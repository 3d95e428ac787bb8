"""Interval Gaussian elimination.

Propagates elementwise confidence intervals for a nonnegative coefficient
matrix C and right-hand side q through Gaussian elimination, so that the
resulting box (unless elimination aborts) provably contains every
nonnegative solution of every system inside the input intervals.

The forward sweep runs once over the augmented K x (K+1) matrix [C | q],
with q as column K, so one slice update eliminates the right-hand side
together with C.  Before each step the diagonal and column K must have
positive lower bounds, or elimination aborts at that step.  Off-diagonal
lower bounds may go negative during the sweep, so each product and
quotient takes the min/max over all four endpoint pairs (``_hull``).
Importance weights q(y)/p(y) are never negative, so back-substitution
intersects each weight interval with [0, inf) as it computes it: weight
lower bounds are >= 0, and the tighter intervals feed the rows above.

No row pivoting: a nonpositive pivot lower bound is an abort, never a swap
(interval bounds after a swap are not well defined here).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class Interval:
    """Elementwise interval [lo, hi] around an array of any shape."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        self.lo = np.asarray(self.lo, dtype=float)
        self.hi = np.asarray(self.hi, dtype=float)
        if self.lo.shape != self.hi.shape:
            raise ValueError("lo and hi must have the same shape")
        # Written as not-all so that NaN endpoints are rejected too.
        if not np.all(self.lo <= self.hi):
            raise ValueError("lo must be <= hi elementwise")


class WeightBox(Interval):
    """Per-label interval [lo_k, hi_k] around the importance weights.

    Lower bounds from elimination are >= 0; ``clamped_lo`` also clips boxes
    built by hand.  ``envelope_b`` is max_k hi_k, the common upper
    bound used for rejection sampling and the conservative risk inflation.
    """

    def __post_init__(self):
        super().__post_init__()
        if not np.all((self.hi > 0) & (self.hi < np.inf)):
            raise ValueError("weight upper bounds must be positive and finite")
        if not np.all(self.lo > -np.inf):
            raise ValueError("weight lower bounds must be finite")

    @property
    def envelope_b(self) -> float:
        return float(self.hi.max())

    def clamped_lo(self) -> np.ndarray:
        return np.clip(self.lo, 0.0, None)


@dataclass(frozen=True)
class Aborted:
    """Elimination gave up: a positivity condition failed at `step`."""

    step: int
    reason: str


def _hull(op, a_lo, a_hi, b_lo, b_hi):
    """Elementwise min and max of op(a, b) over the four endpoint pairs."""
    cands = np.stack([op(a_lo, b_lo), op(a_lo, b_hi), op(a_hi, b_lo), op(a_hi, b_hi)])
    return cands.min(axis=0), cands.max(axis=0)


def interval_gauss_elim(c: Interval, q: Interval):
    """Solve the interval system, returning a WeightBox or Aborted.

    `c` must be K x K and `q` a K-vector, with K >= 2.  Guarantee: unless
    it aborts, the returned box contains every nonnegative solution of a
    system inside the intervals.  In particular, if the true (C, q) lie
    inside the input intervals and C^-1 q >= 0, as importance weights are,
    C^-1 q lies in the box.
    """
    K = q.lo.size
    if c.lo.shape != (K, K) or q.lo.shape != (K,) or K < 2:
        raise ValueError(
            f"need a K x K matrix and a K-vector with K >= 2, got {c.lo.shape} and {q.lo.shape}"
        )
    lo = np.column_stack([c.lo, q.lo])
    hi = np.column_stack([c.hi, q.hi])

    for k in range(K):
        diag = np.diag(lo)
        if np.any(diag <= 0):
            i = int(np.argmax(diag <= 0))
            return Aborted(k, f"diagonal lower bound c[{i},{i}] <= 0")
        if np.any(lo[:, K] <= 0):
            i = int(np.argmax(lo[:, K] <= 0))
            return Aborted(k, f"rhs lower bound q[{i}] <= 0")
        # Subtract (row i's pivot-column entry) * (pivot row) / pivot from
        # every row i below k, right-hand side included.  Entries below the
        # diagonal are never read again, so they are not zeroed.
        rows, cols = slice(k + 1, K), slice(k + 1, K + 1)
        p_lo, p_hi = _hull(
            np.multiply, lo[rows, k, None], hi[rows, k, None], lo[k, None, cols], hi[k, None, cols]
        )
        r_lo, r_hi = _hull(np.divide, p_lo, p_hi, lo[k, k], hi[k, k])
        lo[rows, cols] -= r_hi
        hi[rows, cols] -= r_lo

    w_lo = np.zeros(K)
    w_hi = np.zeros(K)
    for i in range(K - 1, -1, -1):
        tail = slice(i + 1, K)
        t_lo, t_hi = _hull(np.multiply, lo[i, tail], hi[i, tail], w_lo[tail], w_hi[tail])
        num_lo = lo[i, K] - float(t_hi.sum())
        num_hi = hi[i, K] - float(t_lo.sum())
        w_lo[i] = max(num_lo, 0.0) / hi[i, i]
        w_hi[i] = num_hi / (lo[i, i] if num_hi >= 0 else hi[i, i])
    if np.any(w_hi <= 0):
        i = int(np.argmax(w_hi <= 0))
        return Aborted(K - 1, f"nonpositive weight upper bound w[{i}]")
    return WeightBox(w_lo, w_hi)
