"""Importance-weight estimation from calibration data.

Estimates the joint confusion counts on labeled source data and the
predicted-label frequencies on unlabeled target data, wraps every entry in
a Clopper-Pearson interval under a union-bound budget, and solves the
resulting interval linear system for a guaranteed box around the weights.
Also provides the plug-in (point-estimate) solve used by the baselines.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .binomial import cp_interval
from .intervals import (
    Aborted,
    IntervalMatrix,
    IntervalVector,
    WeightBox,
    interval_gauss_elim,
)
from .tables import ScoreTable


class SingularMatrix(Exception):
    """Plug-in confusion matrix is (numerically) singular."""


@dataclass
class ConfusionEstimate:
    """Joint counts[i, j] = #(predicted i, true j) over m source rows."""

    counts: np.ndarray
    m: int

    def __post_init__(self):
        self.counts = np.asarray(self.counts)
        if self.counts.sum() != self.m:
            raise ValueError("counts must sum to m")
        if np.any(self.counts < 0):
            raise ValueError("counts must be nonnegative")

    @property
    def k(self) -> int:
        return self.counts.shape[0]

    def rates(self) -> np.ndarray:
        return self.counts / self.m


@dataclass
class LabelDistEstimate:
    """Predicted-label counts over n target rows."""

    counts: np.ndarray
    n: int

    def __post_init__(self):
        self.counts = np.asarray(self.counts)
        if self.counts.sum() != self.n:
            raise ValueError("counts must sum to n")

    @property
    def k(self) -> int:
        return self.counts.shape[0]

    def rates(self) -> np.ndarray:
        return self.counts / self.n


def estimate_confusion(src: ScoreTable) -> ConfusionEstimate:
    """Count (predicted, true) label pairs on the labeled source table."""
    if not src.is_labeled:
        raise ValueError("source table must be labeled")
    K = src.k
    pred = src.predicted()
    flat = np.bincount(pred * K + src.labels, minlength=K * K)
    return ConfusionEstimate(counts=flat.reshape(K, K), m=src.n)


def estimate_qhat(tgt: ScoreTable) -> LabelDistEstimate:
    """Count predicted labels on the (unlabeled) target table."""
    pred = tgt.predicted()
    counts = np.bincount(pred, minlength=tgt.k)
    return LabelDistEstimate(counts=counts, n=tgt.n)


def delta_split(K: int, delta: float) -> tuple[float, float]:
    """Split delta into (interval budget, calibration level).

    The K(K+1) elementwise intervals share the first part equally; the
    remaining delta/(K(K+1)+1) is reserved for threshold calibration.
    """
    n_int = K * (K + 1)
    calib = delta / (n_int + 1)
    return delta - calib, calib


def cp_bounds(
    conf: ConfusionEstimate, qh: LabelDistEstimate, delta_total: float
) -> tuple[IntervalMatrix, IntervalVector]:
    """Entrywise CP intervals that jointly hold with probability >= 1 - delta_total.

    Each of the K^2 confusion entries and K frequency entries gets level
    delta_total / (K(K+1)); joint validity follows by a union bound.
    """
    if not 0.0 < delta_total < 1.0:
        raise ValueError("delta_total must be in (0, 1)")
    K = conf.k
    per_entry = delta_total / (K * (K + 1))
    c_lo = np.empty((K, K))
    c_hi = np.empty((K, K))
    for i in range(K):
        for j in range(K):
            ci = cp_interval(int(conf.counts[i, j]), conf.m, per_entry)
            c_lo[i, j], c_hi[i, j] = ci.lo, ci.hi
    q_lo = np.empty(K)
    q_hi = np.empty(K)
    for k in range(K):
        ci = cp_interval(int(qh.counts[k]), qh.n, per_entry)
        q_lo[k], q_hi[k] = ci.lo, ci.hi
    return IntervalMatrix(c_lo, c_hi), IntervalVector(q_lo, q_hi)


def bbse_point_weights(conf: ConfusionEstimate, qh: LabelDistEstimate) -> np.ndarray:
    """Plug-in weight estimate: solve c_hat w = q_hat, clamping negatives to 0.

    Raises SingularMatrix unless c_hat's condition number is below 1e12.
    """
    a = conf.rates()
    # An empty source sample gives NaN rates, on which the SVD fails.
    cond = np.linalg.cond(a) if np.all(np.isfinite(a)) else np.inf
    if not cond < 1e12:
        raise SingularMatrix(f"confusion matrix condition number {cond:.3g} >= 1e12")
    return np.clip(np.linalg.solve(a, qh.rates()), 0.0, None)


def weight_box(src: ScoreTable, tgt: ScoreTable, delta_total: float) -> WeightBox | Aborted:
    """Guaranteed weight box from raw calibration tables.

    Composes count estimation, CP bounding at budget delta_total, and
    interval Gaussian elimination.  Propagates Aborted from the solver.
    """
    if src.k != tgt.k:
        raise ValueError(f"source has K={src.k} but target has K={tgt.k}")
    conf = estimate_confusion(src)
    qh = estimate_qhat(tgt)
    c_iv, q_iv = cp_bounds(conf, qh, delta_total)
    return interval_gauss_elim(c_iv, q_iv)
