"""Oracles and small interval helpers shared by the tests.

Every oracle here is computed from the definitions, independently of the
library: it imports nothing from ``pacshift`` but the ``Interval`` type, and
none calls ``betainc``.  The binomial CDF is summed in mpmath.  The tail
inversion k(N) is decided in exact integers, one N at a time by
``binom_k_oracle`` or for every N up to a size by the walk
``binom_k_walk``, so ties at delta are exact.  PS-W's two oracles take each
label's acceptance cells from ``acceptance_limits``, which derives them
from ``v`` and the box.  ``psw_brute_force`` tries every combination of
cells, so it is for tiny instances only.  ``psw_full_table`` runs a dynamic
program over every exact total size 0..n_max, with -1 marking the sizes no
pattern reaches, and so reaches thousands of rows.
"""

import bisect
import itertools
import math

import mpmath
import numpy as np

from pacshift import Interval


def exact(a) -> Interval:
    """The zero-width interval [a, a]; lo and hi are separate copies."""
    a = np.asarray(a, dtype=float)
    return Interval(a.copy(), a.copy())


def contains(box, w) -> bool:
    """Whether lo_k <= w_k <= hi_k for every label k."""
    w = np.asarray(w, dtype=float)
    return bool(np.all(box.lo <= w) and np.all(w <= box.hi))


def binom_cdf_oracle(k, m, eps) -> float:
    """P[Binom(m, eps) <= k] at 50 digits, from the tail on k's side of the mode.

    Below the mode it sums P(X = i) down from i = k, else 1 minus the sum up
    from i = k + 1.  Either way the terms shrink, and it stops at the first
    term that no longer changes the sum.
    """
    with mpmath.workdps(50):
        e, lower = mpmath.mpf(eps), k < (m + 1) * eps
        i = k if lower else k + 1
        term, total = mpmath.binomial(m, i) * e**i * (1 - e) ** (m - i), mpmath.mpf(0)
        while total + term != total:
            total += term
            if lower:
                term *= i * (1 - e) / ((m - i + 1) * e)
                i -= 1
            else:
                term *= (m - i) * e / ((i + 1) * (1 - e))
                i += 1
        return float(total if lower else 1 - total)


def binom_k_oracle(m, rp) -> int:
    """Largest k with P[Binom(m, eps) <= k] <= delta, or -1, in exact integers.

    With eps = p/q and delta = r/s the floats' exact ratios, F(k) = S_k / q^m
    where S_k sums the integers C(m, i) p^i (q - p)^(m - i) over i <= k, so
    F(k) <= delta iff s S_k <= r q^m.  Nothing rounds, so ties are decided.
    """
    (p, q), (r, s) = float(rp.epsilon).as_integer_ratio(), float(rp.delta).as_integer_ratio()
    m, k = int(m), 0
    term = total = (q - p) ** m
    bound = r * q**m
    while s * total <= bound:  # F(m) = 1 > delta ends the scan
        term = term * (m - k) * p // ((k + 1) * (q - p))
        k, total = k + 1, total + term
    return k - 1


def binom_k_walk(n_max, rp) -> list[int]:
    """binom_k_oracle(N, rp) for every N = 0..n_max, by one walk over N in exact integers.

    k(N + 1) is k(N) or k(N) + 1, so the walk keeps j = k(N) + 1, the least k
    with F(k; N) > delta.  With eps = p/q it holds S = q^N F(j; N) and
    T = q^N P(X = j) as integers: one more draw gives
    S(N + 1, j) = q S(N, j) - p T(N, j) and
    T(N + 1, j) = T(N, j) (q - p) (N + 1) / (N + 1 - j), and j steps up
    iff s S(N + 1, j) <= r q^(N + 1), where delta = r/s, as in
    ``binom_k_oracle``.
    """
    (p, q), (r, s) = float(rp.epsilon).as_integer_ratio(), float(rp.delta).as_integer_ratio()
    j, S, T, bound = 0, 1, 1, r  # N = 0: F(0; 0) = 1 > delta
    ks = [-1]
    for n in range(1, int(n_max) + 1):
        S, T = q * S - p * T, T * (q - p) * n // (n - j)
        bound *= q
        if s * S <= bound:
            T = T * (n - j) * p // ((j + 1) * (q - p))
            j, S = j + 1, S + T
        ks.append(j - 1)
    return ks


def ps_oracle(true_scores, rp):
    """PS threshold: the (k+1)-th smallest true-label score, or -inf."""
    k = binom_k_oracle(len(true_scores), rp)
    if k < 0:
        return -math.inf
    return float(np.sort(true_scores)[k])


def acceptance_limits(src, v, box):
    """Per label k, its row indices and the limits t that give all its cells.

    The rejection sampler accepts row i iff v_i <= w[y_i] / b, so label k
    accepts {v_i <= t} for a limit t between max(lo_k, 0) / b and hi_k / b.
    That set changes only where t passes some v_i, so the limits
    {max(lo_k, 0) / b, hi_k / b} and every v_i strictly above the first and
    at most the second give all of label k's cells.
    """
    b = box.envelope_b
    for k in range(src.k):
        idx = np.flatnonzero(src.labels == k)
        t_lo, t_hi = max(box.lo[k], 0.0) / b, box.hi[k] / b
        yield idx, {t_lo, t_hi} | {t for t in v.v[idx] if t_lo < t <= t_hi}


def psw_brute_force(src, v, box, rp):
    """Exact min of the PS threshold over every combination of acceptance cells."""
    s_true = src.true_scores()
    per_label = [
        {frozenset(idx[v.v[idx] <= t].tolist()) for t in limits}
        for idx, limits in acceptance_limits(src, v, box)
    ]
    best = math.inf
    for combo in itertools.product(*per_label):
        rows = sorted(set().union(*combo))
        best = min(best, ps_oracle(s_true[rows], rp))
    return best


def psw_full_table(src, v, box, rp):
    """PS-W's tau from a DP over every exact total size 0..n_max.

    In v order each of label k's cells is a prefix of its rows, whose length
    is the number of the label's v at most the cell's limit.  A probe tau
    fails iff some combination of cells makes more errors than k(N) at its
    total size N.
    """
    s_true = src.true_scores()
    per_label = []
    for idx, limits in acceptance_limits(src, v, box):
        order = np.argsort(v.v[idx], kind="stable")
        sizes = np.searchsorted(v.v[idx][order], sorted(limits), side="right")
        per_label.append((np.unique(sizes), s_true[idx][order]))

    n_max = sum(int(sizes[-1]) for sizes, _ in per_label)
    kbin = np.array(binom_k_walk(n_max, rp))

    def fails(tau: float) -> bool:
        # dp[N] = worst (max) total error count over patterns of total size N;
        # -1 marks unreachable sizes.
        dp = np.full(n_max + 1, -1, dtype=np.int64)
        dp[0] = 0
        for sizes, sk in per_label:
            errs = np.concatenate(([0], np.cumsum(sk < tau)))
            new_dp = np.full(n_max + 1, -1, dtype=np.int64)
            for a in sizes:
                e = errs[a]
                seg = dp[: n_max + 1 - a]
                shifted = np.where(seg < 0, -1, seg + e)
                np.maximum(new_dp[a:], shifted, out=new_dp[a:])
            dp = new_dp
        # Unreachable sizes hold -1 and kbin >= -1, so only reachable ones fail.
        return bool(np.any(dp > kbin))

    candidates = np.unique(src.true_scores())
    # fails() is monotone in tau: raising tau only adds errors.
    first_fail = bisect.bisect_left(candidates, True, key=fails)
    if first_fail == 0:
        return -math.inf
    return float(candidates[first_fail - 1])
