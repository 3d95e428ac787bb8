"""Interval Gaussian elimination.

Propagates elementwise confidence intervals for a nonnegative coefficient
matrix and right-hand side through the forward sweep and back-substitution
of Gaussian elimination, so that the resulting box (unless elimination
aborts) provably contains every nonnegative solution of every system
inside the input intervals.

Off-diagonal lower bounds may go negative during the sweep, so each
product and quotient takes the min/max over all endpoint combinations.
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

    @classmethod
    def exact(cls, a) -> "Interval":
        a = np.asarray(a, dtype=float)
        return cls(a.copy(), a.copy())


class WeightBox(Interval):
    """Per-label interval [lo_k, hi_k] around the importance weights.

    Lower bounds from elimination are >= 0; ``clamped_lo`` also clips boxes
    built by hand.  ``envelope_b`` is max_k hi_k, the common upper
    bound used for rejection sampling and the conservative risk inflation.
    """

    def __post_init__(self):
        super().__post_init__()
        if not np.all(self.hi > 0):
            raise ValueError("weight upper bounds must be positive")

    @property
    def envelope_b(self) -> float:
        return float(self.hi.max())

    def contains(self, w) -> bool:
        w = np.asarray(w, dtype=float)
        return bool(np.all(self.lo <= w) and np.all(w <= self.hi))

    def clamped_lo(self) -> np.ndarray:
        return np.clip(self.lo, 0.0, None)


@dataclass(frozen=True)
class Aborted:
    """Elimination gave up: a positivity condition failed at `step`."""

    step: int
    reason: str


def _check_positivity(c_lo, q_lo, step):
    diag = np.diag(c_lo)
    if np.any(diag <= 0):
        i = int(np.argmax(diag <= 0))
        return Aborted(step, f"diagonal lower bound c[{i},{i}] <= 0")
    if np.any(q_lo <= 0):
        i = int(np.argmax(q_lo <= 0))
        return Aborted(step, f"rhs lower bound q[{i}] <= 0")
    return None


def _ratio_bounds(num_lo, num_hi, den_lo, den_hi):
    """Min/max of (a * b) / d over a*b in [num products], d in [den_lo, den_hi] > 0.

    `num_lo`, `num_hi` here are already the product-endpoint candidates;
    this helper just forms all quotient combinations.
    """
    cands = np.stack(
        [num_lo / den_lo, num_lo / den_hi, num_hi / den_lo, num_hi / den_hi]
    )
    return cands.min(axis=0), cands.max(axis=0)


def _prod_bounds(a_lo, a_hi, b_lo, b_hi):
    cands = np.stack([a_lo * b_lo, a_lo * b_hi, a_hi * b_lo, a_hi * b_hi])
    return cands.min(axis=0), cands.max(axis=0)


def forward_sweep(c: Interval, q: Interval):
    """Run the elimination phase; returns (c_lo, c_hi, q_lo, q_hi) or Aborted.

    `c` must be K x K and `q` a K-vector, with K >= 2.
    """
    K = q.lo.size
    if c.lo.shape != (K, K) or q.lo.shape != (K,) or K < 2:
        raise ValueError(
            f"need a K x K matrix and a K-vector with K >= 2, got {c.lo.shape} and {q.lo.shape}"
        )
    c_lo, c_hi = c.lo.copy(), c.hi.copy()
    q_lo, q_hi = q.lo.copy(), q.hi.copy()

    for k in range(K - 1):
        bad = _check_positivity(c_lo, q_lo, k)
        if bad is not None:
            return bad
        piv_lo, piv_hi = c_lo[k, k], c_hi[k, k]
        rows = slice(k + 1, K)
        p_lo, p_hi = _prod_bounds(
            c_lo[rows, k][:, None],
            c_hi[rows, k][:, None],
            c_lo[k, rows][None, :],
            c_hi[k, rows][None, :],
        )
        r_lo, r_hi = _ratio_bounds(p_lo, p_hi, piv_lo, piv_hi)
        qp_lo, qp_hi = _prod_bounds(c_lo[rows, k], c_hi[rows, k], q_lo[k], q_hi[k])
        qr_lo, qr_hi = _ratio_bounds(qp_lo, qp_hi, piv_lo, piv_hi)

        c_lo[rows, rows] -= r_hi
        c_hi[rows, rows] -= r_lo
        q_lo[rows] -= qr_hi
        q_hi[rows] -= qr_lo
        # Exact elimination zeroes the pivot column below the diagonal.
        c_lo[rows, k] = 0.0
        c_hi[rows, k] = 0.0

    bad = _check_positivity(c_lo, q_lo, K - 1)
    if bad is not None:
        return bad
    return c_lo, c_hi, q_lo, q_hi


def back_substitute(c_lo, c_hi, q_lo, q_hi):
    """Back-substitution on the eliminated interval system.

    Sign-aware interval products keep the bounds valid when eliminated
    off-diagonal entries have negative lower bounds.  Each weight lower
    bound is clamped at 0 as it is computed: the clamp drops only negative
    weights, which no importance weight can be.
    """
    K = c_lo.shape[0]
    w_lo = np.zeros(K)
    w_hi = np.zeros(K)
    for i in range(K - 1, -1, -1):
        tail = slice(i + 1, K)
        t_lo, t_hi = _prod_bounds(c_lo[i, tail], c_hi[i, tail], w_lo[tail], w_hi[tail])
        num_lo = q_lo[i] - float(t_hi.sum())
        num_hi = q_hi[i] - float(t_lo.sum())
        w_lo[i] = max(num_lo, 0.0) / c_hi[i, i]
        w_hi[i] = num_hi / (c_lo[i, i] if num_hi >= 0 else c_hi[i, i])
    return w_lo, w_hi


def interval_gauss_elim(c: Interval, q: Interval):
    """Solve the interval system, returning a WeightBox or Aborted.

    Guarantee: unless it aborts, the returned box contains every
    nonnegative solution of a system inside the intervals.  In particular,
    if the true (C, q) lie inside the input intervals and C^-1 q >= 0, as
    importance weights are, C^-1 q lies in the box.
    """
    swept = forward_sweep(c, q)
    if isinstance(swept, Aborted):
        return swept
    w_lo, w_hi = back_substitute(*swept)
    if np.any(w_hi <= 0):
        i = int(np.argmax(w_hi <= 0))
        return Aborted(len(w_hi) - 1, f"nonpositive weight upper bound w[{i}]")
    return WeightBox(w_lo, w_hi)
