"""Exact binomial machinery: CDF, tail inversion, and Clopper-Pearson intervals."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from .intervals import Interval


@dataclass(frozen=True)
class RiskParams:
    """Error budget epsilon and failure budget delta, both in (0, 1)."""

    epsilon: float
    delta: float

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must be in (0, 1), got {self.epsilon}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must be in (0, 1), got {self.delta}")


def binom_cdf(k: int, m: int, eps: float) -> float:
    """P[Binom(m, eps) <= k], via the regularized incomplete beta function.

    Accurate to well below 1e-12 absolute for m up to ~1e5, unlike naive
    term-by-term summation.
    """
    if not 0 <= k <= m:
        raise ValueError(f"need 0 <= k <= m, got k={k}, m={m}")
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"eps must be in [0, 1], got {eps}")
    if k == m:
        return 1.0
    if eps == 0.0:
        return 1.0
    if eps == 1.0:
        return 0.0
    return float(special.betainc(m - k, k + 1, 1.0 - eps))


def binom_k(m: int, rp: RiskParams) -> int:
    """Largest k with F(k; m, epsilon) <= delta, or -1 when no k qualifies.

    With m = 0 the CDF at 0 is 1 > delta, so the result is -1; callers map
    that to a full prediction set.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    if m == 0 or binom_cdf(0, m, rp.epsilon) > rp.delta:
        return -1
    # Exponential search for an infeasible upper end, then binary search.
    lo = 0
    hi = 1
    while hi < m and binom_cdf(hi, m, rp.epsilon) <= rp.delta:
        lo = hi
        hi = min(2 * hi, m)
    # Invariant: F(lo) <= delta; F(hi) > delta unless hi == m (F(m) = 1 > delta).
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if binom_cdf(mid, m, rp.epsilon) <= rp.delta:
            lo = mid
        else:
            hi = mid
    return lo


def cp_interval(successes, trials, level) -> Interval:
    """Exact two-sided Clopper-Pearson intervals at the given failure level.

    The arguments broadcast like NumPy arrays, one interval per entry;
    scalar arguments give 0-d endpoints.  Endpoints are the usual beta
    quantiles; the boundary cases x = 0 and x = n use the closed forms
    lo = 0 and hi = 1.
    """
    x, n, level = np.asarray(successes), np.asarray(trials), np.asarray(level, dtype=float)
    if np.any(n < 1):
        raise ValueError("trials must be >= 1")
    if not np.all((0 <= x) & (x <= n)):
        raise ValueError("successes must be in [0, trials]")
    if not np.all((0.0 < level) & (level < 1.0)):
        raise ValueError("level must be in (0, 1)")
    lo = np.where(x == 0, 0.0, special.betaincinv(x, n - x + 1, level / 2))
    hi = np.where(x == n, 1.0, special.betaincinv(x + 1, n - x, 1.0 - level / 2))
    # Also rejects NaN endpoints.
    if not np.all((0.0 <= lo) & (lo <= hi) & (hi <= 1.0)):
        raise ValueError("interval bounds out of order")
    return Interval(lo, hi)
