"""Exact binomial machinery: CDF, tail inversion, and Clopper-Pearson intervals.

``scipy.special`` costs about 0.3 s to import, most of a cold ``import
pacshift``. ``binom_cdf`` and ``cp_interval`` import it inside the function,
so the library loads it on first use: imports, ``--help`` and the CLI's
usage, config and data errors stay cheap, and every later call finds it in
the import cache.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .intervals import Interval


@dataclass(frozen=True)
class RiskParams:
    """Error budget epsilon and failure budget delta, both in (0, 1)."""

    epsilon: float
    delta: float

    def __post_init__(self):
        _check_probability("epsilon", self.epsilon)
        _check_probability("delta", self.delta)


def _check_probability(name: str, x) -> None:
    """Raise ValueError unless x, a budget such as epsilon or delta, is a real scalar in (0, 1).

    A Python or NumPy real number passes; a bool, an array, a string and NaN do not.
    """
    if not isinstance(x, numbers.Real) or isinstance(x, bool):
        raise ValueError(f"{name} must be a real number, got {x!r}")
    if not 0.0 < x < 1.0:
        raise ValueError(f"{name} must be in (0, 1), got {x}")


def _integer(x) -> bool:
    """Whether x is a scalar count, size or index: a Python or NumPy integer, not a bool."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _integers(x) -> np.ndarray:
    """Mask of the entries of x whose values are finite integers, 3.0 too; NaN and +-inf are not."""
    return np.isfinite(x) & (x == np.floor(x))


def _check_label_count(K) -> None:
    """Raise ValueError unless K, a number of labels, is an integer >= 2."""
    if not (_integer(K) and K >= 2):
        raise ValueError(f"K must be an integer >= 2, got {K!r}")


def binom_cdf(k, m, eps):
    """P[Binom(m, eps) <= k], via the regularized incomplete beta function.

    The arguments broadcast like NumPy arrays, one CDF value per entry;
    scalar arguments give a 0-d result.  Accurate to within 1e-12 absolute
    for m up to 1e6 (tested against extended-precision summation), unlike
    naive term-by-term summation.
    """
    from scipy import special

    k, m, eps = np.broadcast_arrays(k, m, np.asarray(eps, dtype=float))
    bad = ~((0 <= k) & (k <= m) & _integers(k) & _integers(m))
    if bad.any():
        i = np.argmax(bad)
        raise ValueError(f"need integers 0 <= k <= m, got k={k.flat[i]}, m={m.flat[i]}")
    bad = ~((0.0 <= eps) & (eps <= 1.0))
    if bad.any():
        raise ValueError(f"eps must be in [0, 1], got {eps.flat[np.argmax(bad)]}")
    cdf = np.where(eps == 1.0, 0.0, special.betainc(m - k, k + 1, 1.0 - eps))
    return np.where((k == m) | (eps == 0.0), 1.0, cdf)


def binom_k(m, rp: RiskParams):
    """Largest k with F(k; m, epsilon) <= delta, or -1 when no k qualifies.

    `m` may be an array; every entry is inverted by one lockstep bisection
    on [-1, m], and a scalar `m` gives a 0-d result.  With m = 0 the CDF
    at 0 is 1 > delta, so the result is -1; callers map that to a full
    prediction set.
    """
    m = np.asarray(m)
    if not np.all(_integers(m) & (m >= 0)):
        raise ValueError("m must be nonnegative integers")
    # Invariant: lo == -1 or F(lo) <= delta, and F(hi) > delta (F(m) = 1).
    lo = np.full(m.shape, -1, dtype=np.int64)
    hi = m.astype(np.int64)
    while (active := hi - lo > 1).any():
        mid = (lo + hi) // 2
        ok = binom_cdf(np.maximum(mid, 0), m, rp.epsilon) <= rp.delta
        lo = np.where(active & ok, mid, lo)
        hi = np.where(active & ~ok, mid, hi)
    return lo


def binom_k_range(n_lo: int, n_max: int, rp: RiskParams) -> np.ndarray:
    """``binom_k`` at every size N = n_lo, ..., n_max, inverted over error counts.

    k(N) >= E iff F(E; N) <= delta, and F(E; N) does not increase with N, so
    k is nondecreasing and each count E in (k(n_lo), k(n_max)] first becomes
    admissible at N*(E) = min{N : F(E; N) <= delta}.  Then k(N) is k(n_lo)
    plus the number of those E with N*(E) <= N.  One lockstep bisection over
    N finds every N*(E) in (max(n_lo, E), n_max]: F(E; n_lo) > delta as
    E > k(n_lo), F(E; E) = 1 > delta, and F(E; n_max) <= delta as E <= k(n_max).
    That is about epsilon * (n_max - n_lo) searches instead of one per size.
    In floating point the result equals ``binom_k`` entry for entry as long as
    ``F <= delta`` flips once along k and once along N; the tests and
    ``tests/sweep_k_table.py`` check that it does.
    """
    if not (_integer(n_lo) and _integer(n_max) and 0 <= n_lo <= n_max):
        raise ValueError(f"need integers 0 <= n_lo <= n_max, got {n_lo!r}, {n_max!r}")
    k_lo, k_hi = int(binom_k(n_lo, rp)), int(binom_k(n_max, rp))
    e = np.arange(k_lo + 1, k_hi + 1)
    # Invariant: F(e; lo) > delta and F(e; hi) <= delta.
    lo = np.maximum(e, n_lo)
    hi = np.full(e.shape, n_max)
    while (active := hi - lo > 1).any():
        mid = (lo + hi) // 2
        ok = binom_cdf(e, mid, rp.epsilon) <= rp.delta
        hi = np.where(active & ok, mid, hi)
        lo = np.where(active & ~ok, mid, lo)
    return k_lo + np.searchsorted(hi, np.arange(n_lo, n_max + 1), side="right")


def cp_interval(successes, trials, level) -> Interval:
    """Exact two-sided Clopper-Pearson intervals at the given failure level.

    The arguments broadcast like NumPy arrays, one interval per entry;
    scalar arguments give 0-d endpoints.  Endpoints are the usual beta
    quantiles.  An endpoint ``betaincinv`` cannot compute (x = 0, x = n,
    or a small x at a level below about 1e-150) becomes the trivial bound
    lo = 0 or hi = 1, which always holds.
    """
    from scipy import special

    x, n, level = np.asarray(successes), np.asarray(trials), np.asarray(level, dtype=float)
    if not np.all(_integers(x) & _integers(n)):
        raise ValueError("successes and trials must be finite integers")
    if np.any(n < 1):
        raise ValueError("trials must be >= 1")
    if not np.all((0 <= x) & (x <= n)):
        raise ValueError("successes must be in [0, trials]")
    if not np.all((0.0 < level) & (level < 1.0)):
        raise ValueError("level must be in (0, 1)")
    lo = np.fmax(special.betaincinv(x, n - x + 1, level / 2), 0.0)
    hi = np.fmin(special.betaincinv(x + 1, n - x, 1.0 - level / 2), 1.0)
    return Interval(lo, hi)
