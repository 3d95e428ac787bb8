"""Repeated-trial experiment runner.

Each trial draws fresh calibration/test datasets and fresh acceptance
randomness, calibrates every requested method on the *same* data (paired
comparison), and evaluates on the shared target test set.  Per-trial RNG
streams are derived from the master seed and the trial index, so trials
are independent of execution order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .binomial import RiskParams, _integer
from .predsets import (
    AcceptanceRandomness,
    ThresholdResult,
    evaluate_set,
    psc_threshold,
    psr_threshold,
    psw_threshold,
    ps_threshold,
    wcp_threshold,
)
from .shift_sim import ShiftSpec, SyntheticModel, sample_shifted, true_weights
from .weights import (
    SingularMatrix,
    bbse_point_weights,
    delta_split,
    estimate_confusion,
    estimate_qhat,
    weight_box,
)

METHODS = ("PS", "PS-W", "PS-C", "PS-R", "WCP", "ORACLE")
QUANTILES = (0, 25, 50, 75, 100)  # percentiles reported by ``aggregate``


@dataclass
class TrialReport:
    """Per-trial outcome for one method; a NaN tau marks an aborted calibration."""

    method: str
    trial: int
    error: float
    avg_size: float
    tau: float

    @property
    def aborted(self) -> bool:
        return math.isnan(self.tau)


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Splittable per-trial stream: independent of other trials' consumption."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(trial,)))


def run_trials(
    spec: ShiftSpec,
    model: SyntheticModel,
    methods,
    rp: RiskParams,
    trials: int,
    seed: int,
) -> list[TrialReport]:
    """Run `trials` paired repetitions of each requested method, once each in first-seen order."""
    methods = list(dict.fromkeys(methods))
    if not (_integer(trials) and trials >= 1):
        raise ValueError(f"trials must be an integer >= 1, got {trials!r}")
    if 0 in (spec.m, spec.n, spec.o):
        raise ValueError("sample sizes m, n and o must be >= 1")
    for method in methods:
        if method not in METHODS:
            raise ValueError(f"unknown method {method!r}")
    K = spec.k
    box_budget, calib_delta = delta_split(K, rp.delta)
    rp_resid = RiskParams(rp.epsilon, calib_delta)
    truew = true_weights(spec)
    reports: list[TrialReport] = []

    for trial in range(trials):
        rng = trial_rng(seed, trial)
        data_seed = int(rng.integers(2**62))
        v_seed = int(rng.integers(2**62))
        src, tgt, test = sample_shifted(spec, model, data_seed)
        v = AcceptanceRandomness.draw(spec.m, v_seed)

        box = weight_box(src, tgt, box_budget)
        try:
            pointw = bbse_point_weights(estimate_confusion(src), estimate_qhat(tgt))
        except SingularMatrix:
            pointw = None
        # Looked up when called, so a rebound module name takes effect.
        calibrators = {
            "PS": lambda: ps_threshold(src, rp),
            "PS-W": lambda: psw_threshold(src, v, box, rp_resid),
            "PS-C": lambda: psc_threshold(src, box, rp_resid),
            "PS-R": lambda: psr_threshold(src, v, pointw, rp),
            "WCP": lambda: wcp_threshold(src, pointw, rp.epsilon),
            "ORACLE": lambda: psr_threshold(src, v, truew, rp),
        }
        if pointw is None:
            calibrators["PS-R"] = calibrators["WCP"] = lambda: ThresholdResult(math.nan)

        for method in methods:
            result = calibrators[method]()
            error, avg_size = evaluate_set(result, test)
            reports.append(TrialReport(method, trial, error, avg_size, result.tau))
    return reports


def aggregate(reports, epsilon: float) -> dict:
    """Per method, a flat dict whose keys are the summary.csv columns in order."""
    if not reports:
        raise ValueError("no reports to aggregate")
    summary = {}
    for method in dict.fromkeys(r.method for r in reports):
        rows = [r for r in reports if r.method == method]
        errors = np.array([r.error for r in rows])
        sizes = np.array([r.avg_size for r in rows])
        summary[method] = {
            "trials": len(rows),
            "violations": int(np.count_nonzero(errors > epsilon)),
            "aborts": sum(r.aborted for r in rows),
            "mean_error": float(errors.mean()),
            "mean_size": float(sizes.mean()),
            **{f"error_q{q}": float(np.percentile(errors, q)) for q in QUANTILES},
            **{f"size_q{q}": float(np.percentile(sizes, q)) for q in QUANTILES},
        }
    return summary
