"""Label-shift scenario generation with a synthetic scorer.

Datasets are drawn by sampling labels i.i.d. from the source / target
label distributions and then drawing features from a fixed per-label
Gaussian around a class center.  Because the class-conditional draw is
identical across domains, the label-shift invariance holds by
construction, and the true importance weights are the elementwise ratio
of the two label distributions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tables import ScoreTable

_SIMPLEX_TOL = 1e-12
# SyntheticModel.score takes rows in blocks of about this many (row, label,
# dim) differences (512 KB of float64), so its peak is its output plus one
# block at any N and D.
_BLOCK_ELEMENTS = 1 << 16


def _check_simplex(p: np.ndarray, name: str):
    if p.ndim != 1 or len(p) < 2:
        raise ValueError(f"{name} must be a vector with K >= 2")
    # Written as not-all so that NaN entries are rejected too.
    if not (np.all(p >= 0) and abs(p.sum() - 1.0) <= _SIMPLEX_TOL):
        raise ValueError(f"{name} must be a probability vector summing to 1")


@dataclass
class ShiftSpec:
    """Source/target label distributions and the three sample sizes.

    m: labeled source rows, n: unlabeled target rows, o: labeled target
    test rows.  Every label with target mass must have source mass.
    """

    source_dist: np.ndarray
    target_dist: np.ndarray
    m: int
    n: int
    o: int

    def __post_init__(self):
        self.source_dist = np.asarray(self.source_dist, dtype=float)
        self.target_dist = np.asarray(self.target_dist, dtype=float)
        _check_simplex(self.source_dist, "source_dist")
        _check_simplex(self.target_dist, "target_dist")
        if len(self.source_dist) != len(self.target_dist):
            raise ValueError("source and target distributions must share K")
        if np.any((self.target_dist > 0) & (self.source_dist == 0)):
            raise ValueError("target support must be contained in source support")
        if min(self.m, self.n, self.o) < 0:
            raise ValueError("sample sizes must be nonnegative")

    @property
    def k(self) -> int:
        return len(self.source_dist)


@dataclass
class SyntheticModel:
    """Fixed class-conditional feature model and the induced scorer.

    Features for label y are class_centers[y] plus isotropic Gaussian noise;
    scores are a softmax of negative squared distances to the centers, so
    classifier accuracy is controlled by center spacing vs noise_scale.
    noise_scale may be a scalar or a per-label vector (heteroscedastic
    classes give asymmetric confusion).
    """

    class_centers: np.ndarray
    noise_scale: float | np.ndarray = 1.0
    temperature: float = 1.0

    def __post_init__(self):
        self.class_centers = np.atleast_2d(np.asarray(self.class_centers, dtype=float))
        self.noise_scale = np.broadcast_to(
            np.asarray(self.noise_scale, dtype=float), (self.k,)
        ).copy()
        if not np.all(np.isfinite(self.class_centers)):
            raise ValueError("class centers must be finite")
        # Written as not-all so that NaN values are rejected too.
        if not np.all((0 < self.noise_scale) & (self.noise_scale < np.inf)):
            raise ValueError("noise_scale must be positive and finite")
        if not self.temperature > 0:
            raise ValueError("temperature must be positive")

    @property
    def k(self) -> int:
        return self.class_centers.shape[0]

    def score(self, x: np.ndarray) -> np.ndarray:
        """Softmax over labels of -||x - center||^2 / temperature.

        Besides the (N, K) result, the computation holds one block of
        squared differences at a time; every reduction is within a row, so
        the result does not depend on the block size.
        """
        k, dim = self.class_centers.shape
        out = np.empty((len(x), k))
        rows = max(1, _BLOCK_ELEMENTS // (k * dim))
        for start in range(0, len(x), rows):
            diff = x[start : start + rows, None, :] - self.class_centers
            np.square(diff, out=diff).sum(axis=2, out=out[start : start + rows])
            del diff  # so that the next block is not allocated beside this one
        np.negative(out, out=out)
        out /= self.temperature
        out -= out.max(axis=1, keepdims=True)
        np.exp(out, out=out)
        out /= out.sum(axis=1, keepdims=True)
        return out

    def draw(self, dist: np.ndarray, size: int, rng, labeled: bool = True) -> ScoreTable:
        y = rng.choice(self.k, size=size, p=dist)
        x = rng.standard_normal((size, self.class_centers.shape[1]))
        x *= self.noise_scale[y, None]
        x += self.class_centers[y]
        return ScoreTable(scores=self.score(x), labels=y if labeled else None)


def tweak_one(K: int, rho: float, tweaked: int = 0) -> np.ndarray:
    """Distribution giving rho to one label and (1-rho)/(K-1) to each other."""
    if not 0.0 <= rho <= 1.0:
        raise ValueError("rho must be in [0, 1]")
    p = np.full(K, (1.0 - rho) / (K - 1))
    p[tweaked] = rho
    return p


def true_weights(spec: ShiftSpec) -> np.ndarray:
    """Ground-truth importance weights q(y) / p(y) (0 where both are 0)."""
    out = np.zeros(spec.k)
    pos = spec.source_dist > 0
    out[pos] = spec.target_dist[pos] / spec.source_dist[pos]
    return out


def sample_shifted(
    spec: ShiftSpec, model: SyntheticModel, seed: int
) -> tuple[ScoreTable, ScoreTable, ScoreTable]:
    """Draw (labeled source, unlabeled target, labeled target test) tables.

    Deterministic per (spec, model, seed).
    """
    if model.k != spec.k:
        raise ValueError("model and spec disagree on K")
    rng = np.random.default_rng(seed)
    src = model.draw(spec.source_dist, spec.m, rng, labeled=True)
    tgt = model.draw(spec.target_dist, spec.n, rng, labeled=False)
    test = model.draw(spec.target_dist, spec.o, rng, labeled=True)
    return src, tgt, test

