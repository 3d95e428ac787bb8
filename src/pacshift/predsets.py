"""Prediction-set calibrators and evaluation.

All calibrators return a threshold tau; the prediction set for a row is
every label whose score is at least tau.  A row's own score at exactly tau
counts as covered, so the empirical error of tau on a table counts rows
with true-label score strictly below tau.

Calibrators:

* ``ps_threshold``   - unshifted PAC threshold from the binomial tail bound.
* ``psw_threshold``  - worst-case threshold over a weight box: the minimum,
  over all weight vectors in the box, of the PAC threshold computed on the
  rejection-sampled source.  The sampler accepts a row iff
  ``v <= w[y] / b``, so rows with tied v are accepted together and each
  label's accepted rows form a prefix in v order.  Computed exactly via a
  per-label breakpoint scheme over the sampler's cells and a dynamic program
  keeping the most errors made with at most each total sample size.
* ``psc_threshold``  - conservative baseline: inflate the error budget by
  the envelope bound b and calibrate unweighted.
* ``psr_threshold``  - rejection sampling with plug-in weights, ignoring
  their uncertainty (no guarantee under shift).
* ``wcp_threshold``  - weighted split-conformal quantile with plug-in
  weights, targeting marginal coverage only (no test-point correction
  term; approximate by design).
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .binomial import RiskParams, _check_probability, binom_k, binom_k_range
from .intervals import Aborted, WeightBox
from .tables import ScoreTable

CALIBRATED = "calibrated"
FULL_SET = "full_set"
ABORTED = "aborted"


@dataclass(frozen=True)
class ThresholdResult:
    """A calibrated tau; its status follows from tau alone.

    NaN is an aborted calibration, -inf the full set and a finite tau a
    calibrated set.  A ``status`` passed in must be the one tau implies.
    """

    tau: float

    def __init__(self, tau: float, status: str | None = None):
        object.__setattr__(self, "tau", float(tau))
        if self.tau == math.inf or status not in (None, self.status):
            raise ValueError(f"tau {tau!r} is +inf or contradicts status {status!r}")

    @property
    def status(self) -> str:
        if math.isnan(self.tau):
            return ABORTED
        return FULL_SET if self.tau == -math.inf else CALIBRATED


@dataclass
class AcceptanceRandomness:
    """The uniform draws V used by rejection sampling, one per source row."""

    v: np.ndarray

    def __post_init__(self):
        self.v = np.asarray(self.v, dtype=float)
        if self.v.ndim != 1:
            raise ValueError(f"acceptance uniforms must be 1-D, got shape {self.v.shape}")
        if not np.all((0 <= self.v) & (self.v <= 1)):
            raise ValueError("acceptance uniforms must lie in [0, 1]")

    @classmethod
    def draw(cls, m: int, seed: int) -> "AcceptanceRandomness":
        rng = np.random.default_rng(seed)
        return cls(v=rng.uniform(size=m))


def ps_threshold(src: ScoreTable, rp: RiskParams) -> ThresholdResult:
    """Largest tau whose empirical error count stays within the binomial bound.

    Candidates are the observed true-label scores; the answer is the
    (k+1)-th smallest where k is the binomial tail inversion.  Returns a
    full set when no error count is admissible.
    """
    scores = np.sort(src.true_scores())
    k = int(binom_k(src.n, rp))
    if k < 0:
        return ThresholdResult(-math.inf)
    return ThresholdResult(scores[k])


def _weight_vector(w, k: int) -> np.ndarray:
    """w as floats, checked to be finite with one entry per label; negatives clamped to 0."""
    w = np.asarray(w, dtype=float)
    if not np.isfinite(w).all():
        raise ValueError("weights must be finite")
    if w.shape != (k,):
        raise ValueError(f"need one weight per label, got shape {w.shape} for K={k}")
    return np.clip(w, 0.0, None)


def rejection_sample(
    src: ScoreTable, v: AcceptanceRandomness, w: np.ndarray, b: float
) -> np.ndarray:
    """Indices of source rows accepted with probability w[y_i] / b.

    Row i is accepted iff v_i <= w[y_i] / b, so rows of one label with tied
    v are accepted together.  This is the only acceptance rule: PS-W's
    worst case ranges over the cells it produces.  Negative weights are
    clamped to zero (never accept); a non-finite w or b is a ValueError.
    """
    if not src.is_labeled:
        raise ValueError("source table must be labeled")
    w = _weight_vector(w, src.k)
    if not 0 < b < math.inf:
        raise ValueError(f"envelope b must be finite and positive, got {b}")
    if np.any(w > b):
        raise ValueError("weights must not exceed the envelope b")
    if len(v.v) != src.n:
        raise ValueError("need one uniform per source row")
    return np.flatnonzero(v.v <= w[src.labels] / b)


def psw_threshold(
    src: ScoreTable, v: AcceptanceRandomness, box: WeightBox | Aborted, rp: RiskParams
) -> ThresholdResult:
    """min over w in the box of the PAC threshold on the rejection-sampled source.

    A candidate tau is attainable iff for every feasible acceptance pattern
    the accepted error count stays within the binomial bound at the
    accepted sample size.  For label k, ``rejection_sample`` at any w_k in
    the box accepts a prefix of the label's rows sorted by v; rows with tied
    v accept together.  The shortest and longest prefixes are the sampler's
    own counts at the box's corners, and each prefix between them counts the
    rows with v at most the v of a row between them.  A DP over labels gives
    the most errors made with at most each total accepted count, and a
    bisection over the (monotone) candidate grid finds the first failing
    tau, whose predecessor is the answer.
    """
    if isinstance(box, Aborted):
        return ThresholdResult(math.nan)
    # Per label: its achievable prefix lengths in increasing order, and its
    # true-label scores in v order.
    b = box.envelope_b
    a_min = np.bincount(src.labels[rejection_sample(src, v, box.lo, b)], minlength=src.k)
    a_max = np.bincount(src.labels[rejection_sample(src, v, box.hi, b)], minlength=src.k)
    s_true = src.true_scores()
    per_label = []
    for k in range(src.k):
        idx = np.flatnonzero(src.labels == k)
        idx = idx[np.argsort(v.v[idx], kind="stable")]
        vk, sk = v.v[idx], s_true[idx]
        longer = np.unique(np.searchsorted(vk, vk[a_min[k] : a_max[k]], side="right"))
        per_label.append((np.concatenate(([a_min[k]], longer)), sk))

    # Sizes run from n_lo (the lower corner's) to n_max.  At the least candidate no
    # pattern errs and k(N) is nondecreasing, so every tau fails (full set) iff k(n_lo) < 0.
    n_lo, n_max = int(a_min.sum()), int(a_max.sum())
    if binom_k(n_lo, rp) < 0:
        return ThresholdResult(-math.inf)
    kbin = binom_k_range(n_lo, n_max, rp)
    dp_dtype = np.min_scalar_type(n_max)

    def fails(tau: float) -> bool:
        # dp[i] = most errors any pattern of the labels so far makes with at most
        # n_lo + i rows.  As k(N) is nondecreasing, some pattern errs more than
        # k(N) at its own size N iff dp exceeds kbin somewhere.  Each entry, and each
        # dp + e, is one pattern's error count, so it lies in [0, n_max]: the least
        # unsigned type holding n_max holds them all, and an array plus an in-range
        # int keeps the array's type.  A narrower type would wrap without an error.
        dp = np.zeros(len(kbin), dtype=dp_dtype)
        for acc, sk in per_label:
            errs = np.concatenate(([0], np.cumsum(sk < tau)))[acc]
            new_dp = np.zeros_like(dp)
            for o, e in zip((acc - acc[0]).tolist(), errs.tolist()):
                np.maximum(new_dp[o:], dp[: len(dp) - o] + e, out=new_dp[o:])
            dp = new_dp
        return bool(np.any(dp > kbin))

    candidates = np.unique(s_true)
    # fails() is monotone in tau (raising tau only adds errors); first_fail >= 1.
    first_fail = bisect.bisect_left(candidates, True, key=fails)
    return ThresholdResult(candidates[first_fail - 1])


def psc_threshold(
    src: ScoreTable, box: WeightBox | Aborted, rp: RiskParams
) -> ThresholdResult:
    """Conservative threshold: unweighted calibration at error budget eps / b."""
    if isinstance(box, Aborted):
        return ThresholdResult(math.nan)
    eps = min(rp.epsilon / box.envelope_b, 1.0 - 1e-15)
    return ps_threshold(src, RiskParams(epsilon=eps, delta=rp.delta))


def psr_threshold(
    src: ScoreTable, v: AcceptanceRandomness, pointw: np.ndarray, rp: RiskParams
) -> ThresholdResult:
    """Rejection-sample with plug-in weights, then calibrate unweighted."""
    w = _weight_vector(pointw, src.k)
    b = float(w.max())
    if b <= 0:
        return ThresholdResult(-math.inf)
    idx = rejection_sample(src, v, w, b)
    return ps_threshold(src.subset(idx), rp)


def wcp_threshold(src: ScoreTable, pointw: np.ndarray, eps: float) -> ThresholdResult:
    """Weighted empirical quantile: largest tau with weighted error mass <= eps."""
    _check_probability("eps", eps)
    u = _weight_vector(pointw, src.k)[src.labels]
    total = u.sum()
    if total <= 0:
        raise ValueError("no source row has a positive weight")
    order = np.argsort(src.true_scores(), kind="stable")
    s = src.true_scores()[order]
    cum = np.concatenate(([0.0], np.cumsum(u[order])))
    vals, first = np.unique(s, return_index=True)
    below = cum[first]  # weight mass strictly below each distinct score
    ok = below <= eps * total
    return ThresholdResult(vals[ok][-1])


def evaluate_set(result: ThresholdResult, test: ScoreTable) -> tuple[float, float]:
    """Prediction-set error and average size on a labeled test table.

    Full sets (and aborted calibrations, which degrade to full sets) have
    error 0 and size K.  A table with no rows, where both are undefined,
    is a ValueError.
    """
    if test.n == 0:
        raise ValueError("test table has no rows")
    if result.status != CALIBRATED:
        return 0.0, float(test.k)
    err = int(np.count_nonzero(test.true_scores() < result.tau))
    sizes = int(np.count_nonzero(test.scores >= result.tau))
    return err / test.n, sizes / test.n
