"""Importance-weight estimation from calibration data.

Estimates the joint confusion counts on labeled source data and the
predicted-label frequencies on unlabeled target data, wraps every entry in
a Clopper-Pearson interval under a union-bound budget, and solves the
resulting interval linear system for a guaranteed box around the weights.
Also provides the plug-in (point-estimate) solve used by the baselines.
"""

from __future__ import annotations

import numpy as np

from .binomial import _check_label_count, _check_probability, _integers, cp_interval
from .intervals import Aborted, Interval, WeightBox, interval_gauss_elim
from .tables import ScoreTable


class SingularMatrix(Exception):
    """Plug-in confusion matrix is (numerically) singular."""


def estimate_confusion(src: ScoreTable) -> np.ndarray:
    """K x K counts[i, j] = #(predicted i, true j) on the labeled source table."""
    if not src.is_labeled:
        raise ValueError("source table must be labeled")
    K = src.k
    pred = src.predicted()
    flat = np.bincount(pred * K + src.labels, minlength=K * K)
    return flat.reshape(K, K)


def estimate_qhat(tgt: ScoreTable) -> np.ndarray:
    """K counts of each predicted label on the (unlabeled) target table."""
    return np.bincount(tgt.predicted(), minlength=tgt.k)


def _check_counts(conf, qh) -> tuple[np.ndarray, np.ndarray]:
    """The count arrays, checked to be K x K and K of finite nonnegative integers."""
    conf, qh = np.asarray(conf), np.asarray(qh)
    K = qh.size
    if conf.shape != (K, K) or qh.shape != (K,):
        raise ValueError(f"need K x K and K counts, got shapes {conf.shape} and {qh.shape}")
    if not all(np.all(_integers(x) & (x >= 0)) for x in (conf, qh)):
        raise ValueError("counts must be finite nonnegative integers")
    return conf, qh


def _n_intervals(K: int) -> int:
    """CP intervals under the union bound: K^2 confusion entries and K frequencies."""
    _check_label_count(K)
    return K * (K + 1)


def delta_split(K: int, delta: float) -> tuple[float, float]:
    """Split delta into (interval budget, calibration level).

    The K(K+1) elementwise intervals share the first part equally (see
    interval_level); the remaining delta/(K(K+1)+1) is reserved for
    threshold calibration.  Raises ValueError unless delta is in (0, 1), or
    if it is too small for the calibration level and each interval's level
    to be positive.
    """
    _check_probability("delta", delta)
    parts = _n_intervals(K) + 1
    calib = delta / parts
    box_budget = delta - calib
    if not (calib > 0 and interval_level(K, box_budget) > 0):
        raise ValueError(f"delta {delta} is too small to split over {parts} levels")
    return box_budget, calib


def interval_level(K: int, box_budget: float) -> float:
    """Failure level of each of the K(K+1) CP intervals sharing box_budget."""
    return box_budget / _n_intervals(K)


def cp_bounds(
    conf: np.ndarray, qh: np.ndarray, delta_total: float
) -> tuple[Interval, Interval]:
    """Entrywise CP intervals that jointly hold with probability >= 1 - delta_total.

    Each of the K^2 confusion entries and K frequency entries gets level
    interval_level(K, delta_total); joint validity follows by a union bound.
    """
    _check_probability("delta_total", delta_total)
    conf, qh = _check_counts(conf, qh)
    per_entry = interval_level(qh.size, delta_total)
    return cp_interval(conf, conf.sum(), per_entry), cp_interval(qh, qh.sum(), per_entry)


def bbse_point_weights(conf: np.ndarray, qh: np.ndarray) -> np.ndarray:
    """Plug-in weight estimate: solve c_hat w = q_hat, clamping negatives to 0.

    c_hat = conf / conf.sum() and q_hat = qh / qh.sum().  Raises ValueError
    on an all-zero target count vector, and SingularMatrix on an all-zero
    confusion matrix or unless c_hat's condition number is below 1e12.
    """
    conf, qh = _check_counts(conf, qh)
    if qh.sum() == 0:
        raise ValueError("target counts are all zero")
    if conf.sum() == 0:
        raise SingularMatrix("confusion counts are all zero")
    a = conf / conf.sum()
    if not (cond := np.linalg.cond(a)) < 1e12:
        raise SingularMatrix(f"confusion matrix condition number {cond:.3g} >= 1e12")
    return np.clip(np.linalg.solve(a, qh / qh.sum()), 0.0, None)


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
