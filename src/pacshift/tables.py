"""Score tables: the library's view of a scored dataset.

A table holds an (N, K) matrix of real-valued scores, one column per label,
plus an optional label vector (present for source calibration data, absent
for unlabeled target data).  Labels are 0-based internally.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .binomial import _integers


@dataclass
class ScoreTable:
    """Per-example scores f(x, .) with optional true labels.

    Scores are float64.  Labels are the narrowest signed integer type that
    holds K - 1, ``np.min_scalar_type(-K)`` (int8 up to K = 128), so
    arithmetic that can pass K - 1 must widen them first.
    """

    scores: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=float)
        if self.scores.ndim != 2:
            raise ValueError("scores must be a 2-D array")
        if self.scores.shape[1] < 2:
            raise ValueError("need at least 2 label columns")
        if not np.all(np.isfinite(self.scores).any(axis=1)):
            raise ValueError("every row needs at least one finite score")
        if self.labels is not None:
            # Checked before the int cast, which turns NaN, inf or 1e300 into an arbitrary int.
            labels = np.asarray(self.labels)
            if labels.shape != (self.n,):
                raise ValueError("labels must be a vector matching the row count")
            if np.any((labels < 0) | (labels >= self.k)):
                raise ValueError("labels out of range")
            if not np.all(_integers(labels)):
                raise ValueError("labels must be integers")
            self.labels = np.asarray(labels, dtype=np.min_scalar_type(-self.k))
            # A NaN or infinite true-label score would count as covered.
            if not np.isfinite(self.true_scores()).all():
                raise ValueError("true-label scores must be finite")

    @property
    def n(self) -> int:
        return self.scores.shape[0]

    @property
    def k(self) -> int:
        return self.scores.shape[1]

    @property
    def is_labeled(self) -> bool:
        return self.labels is not None

    def predicted(self) -> np.ndarray:
        """Induced classifier argmax_k f(x, k), NaN scores skipped; ties go to the lowest index."""
        pred = np.argmax(self.scores, axis=1)
        # np.argmax picks a row's first NaN, so only those rows are picked again.
        nan_rows = np.flatnonzero(np.isnan(self.scores[np.arange(self.n), pred]))
        pred[nan_rows] = np.nanargmax(self.scores[nan_rows], axis=1)
        return pred

    def true_scores(self) -> np.ndarray:
        """Scores of the true labels, f(x_i, y_i)."""
        if self.labels is None:
            raise ValueError("table has no labels")
        return self.scores[np.arange(self.n), self.labels]

    def subset(self, idx) -> "ScoreTable":
        labels = None if self.labels is None else self.labels[idx]
        return ScoreTable(self.scores[idx], labels)
