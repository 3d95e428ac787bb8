"""pacshift: PAC prediction sets that stay valid under label shift.

Constructs prediction-set thresholds whose coverage guarantee survives a
shift in the label distribution, by wrapping the confusion matrix and
predicted-label frequencies in exact binomial confidence intervals,
propagating those intervals through Gaussian elimination to box the
importance weights, and calibrating a worst-case threshold over that box.
"""

from .binomial import RiskParams, binom_cdf, binom_k, binom_k_range, cp_interval
from .intervals import Aborted, Interval, WeightBox, interval_gauss_elim
from .predsets import (
    AcceptanceRandomness,
    ThresholdResult,
    evaluate_set,
    psc_threshold,
    psr_threshold,
    psw_threshold,
    ps_threshold,
    rejection_sample,
    wcp_threshold,
)
from .harness import METHODS, TrialReport, aggregate, run_trials
from .shift_sim import ShiftSpec, SyntheticModel, sample_shifted, true_weights, tweak_one
from .tables import ScoreTable
from .weights import (
    SingularMatrix,
    bbse_point_weights,
    cp_bounds,
    delta_split,
    estimate_confusion,
    estimate_qhat,
    weight_box,
)

__version__ = "0.1.0"
