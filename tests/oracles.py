"""Brute-force oracles and small interval helpers shared by the tests.

Each brute-force oracle is computed independently of the library: the
binomial tail by scipy's CDF scan, and PS-W by enumerating every acceptance
cell of the rejection sampler.  Both are slow and meant for tiny instances
only.  ``psw_full_table`` is PS-W's earlier dynamic program over every exact
total size 0..n_max, with -1 marking the sizes no pattern reaches.  It checks
the library's formulation, the most errors with at most each size, at sizes
the brute force cannot reach; it reuses the library's
``_per_label_acceptance`` and ``binom_k``, so it is not independent of the
library.
"""

import bisect
import itertools
import math

import numpy as np
from scipy import stats

from pacshift import Interval
from pacshift.binomial import binom_k
from pacshift.predsets import _per_label_acceptance


def exact(a) -> Interval:
    """The zero-width interval [a, a]; lo and hi are separate copies."""
    a = np.asarray(a, dtype=float)
    return Interval(a.copy(), a.copy())


def contains(box, w) -> bool:
    """Whether lo_k <= w_k <= hi_k for every label k."""
    w = np.asarray(w, dtype=float)
    return bool(np.all(box.lo <= w) and np.all(w <= box.hi))


def binom_k_oracle(m, rp):
    """Largest k with binom.cdf(k, m, eps) <= delta, or None if none."""
    best = None
    for k in range(m + 1):
        if stats.binom.cdf(k, m, rp.epsilon) <= rp.delta:
            best = k
        else:
            break
    return best


def ps_oracle(true_scores, rp):
    """PS threshold: the (k+1)-th smallest true-label score, or -inf."""
    k = binom_k_oracle(len(true_scores), rp)
    if k is None:
        return -math.inf
    return float(np.sort(true_scores)[k])


def psw_brute_force(src, v, box, rp):
    """Exact min of the PS threshold over every acceptance cell of the box.

    The rejection sampler accepts row i iff v_i <= w[y_i] / b, so label k
    accepts {v_i <= t} for a limit t between max(lo_k, 0) / b and hi_k / b.
    That set changes only where t passes some v_i, so the limits
    {max(lo_k, 0) / b, hi_k / b} and every v_i strictly above the first and
    at most the second give all of label k's cells.
    """
    b = box.envelope_b
    s_true = src.true_scores()
    per_label = []
    for k in range(src.k):
        idx = np.flatnonzero(src.labels == k)
        t_lo, t_hi = max(box.lo[k], 0.0) / b, box.hi[k] / b
        limits = {t_lo, t_hi} | {t for t in v.v[idx] if t_lo < t <= t_hi}
        per_label.append({frozenset(idx[v.v[idx] <= t].tolist()) for t in limits})
    best = math.inf
    for combo in itertools.product(*per_label):
        rows = sorted(set().union(*combo))
        best = min(best, ps_oracle(s_true[rows], rp))
    return best


def psw_full_table(src, v, box, rp):
    """PS-W's tau from the DP that keeps every total size 0..n_max."""
    per_label = _per_label_acceptance(src, v, box)

    n_max = sum(int(acc[-1]) for acc, _ in per_label)
    kbin = binom_k(np.arange(n_max + 1), rp)

    def fails(tau: float) -> bool:
        # dp[N] = worst (max) total error count over patterns of total size N;
        # -1 marks unreachable sizes.
        dp = np.full(n_max + 1, -1, dtype=np.int64)
        dp[0] = 0
        for acc, sk in per_label:
            errs = np.concatenate(([0], np.cumsum(sk < tau)))
            new_dp = np.full(n_max + 1, -1, dtype=np.int64)
            for a in acc:
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
