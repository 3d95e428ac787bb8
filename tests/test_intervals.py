"""Tests for interval Gaussian elimination.

The load-bearing property is containment: whenever the true system lies
inside the input intervals and elimination does not abort, every
nonnegative exact solution must lie in the output box.  Oracles here are
plain dense solves of systems sampled inside the intervals, and the
textbook K=2 update rules as a reference for tightness.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pacshift import (
    Aborted,
    Interval,
    WeightBox,
    interval_gauss_elim,
)

from oracles import exact


def random_dominant_system(rng, k):
    """A diagonally dominant nonnegative system with known positive solution."""
    c = rng.uniform(0.0, 0.08, size=(k, k))
    c[np.diag_indices(k)] = rng.uniform(0.5, 1.0, size=k)
    w = rng.uniform(0.2, 3.0, size=k)
    return c, c @ w, w


def widen(rng, c, q, scale):
    wc = rng.uniform(0.0, scale, size=c.shape)
    wq = rng.uniform(0.0, scale, size=q.shape)
    cm = Interval(np.maximum(c - wc, 0.0), c + wc)
    qv = Interval(np.maximum(q - wq, 1e-9), q + wq)
    return cm, qv


def k2_strict_oracle(c_lo, c_hi, q_lo, q_hi):
    """Independent step-by-step application of the K=2 strict update rules.

    For nonnegative inputs these plain endpoint formulas are sound while
    every intermediate lower bound stays positive; returns None otherwise.
    """
    t22_lo = c_lo[1, 1] - c_hi[1, 0] * c_hi[0, 1] / c_lo[0, 0]
    t22_hi = c_hi[1, 1] - c_lo[1, 0] * c_lo[0, 1] / c_hi[0, 0]
    u2_lo = q_lo[1] - c_hi[1, 0] * q_hi[0] / c_lo[0, 0]
    u2_hi = q_hi[1] - c_lo[1, 0] * q_lo[0] / c_hi[0, 0]
    if t22_lo <= 0 or u2_lo <= 0:
        return None
    w2_lo, w2_hi = u2_lo / t22_hi, u2_hi / t22_lo
    w1_lo = (q_lo[0] - c_hi[0, 1] * w2_hi) / c_hi[0, 0]
    w1_hi = (q_hi[0] - c_lo[0, 1] * w2_lo) / c_lo[0, 0]
    return np.array([w1_lo, w2_lo]), np.array([w1_hi, w2_hi])


PINNED_C_LO = np.array([[0.55, 0.05], [0.05, 0.25]])
PINNED_C_HI = np.array([[0.65, 0.15], [0.15, 0.35]])
PINNED_Q_LO = np.array([0.35, 0.55])
PINNED_Q_HI = np.array([0.45, 0.65])


class TestPinnedExample:
    def test_matches_reference_values(self):
        # The strict rules give lo[0] = -0.1492; the clamp raises it to 0.
        box = interval_gauss_elim(
            Interval(PINNED_C_LO, PINNED_C_HI),
            Interval(PINNED_Q_LO, PINNED_Q_HI),
        )
        assert isinstance(box, WeightBox)
        np.testing.assert_allclose(box.lo, [0.0, 1.2343], atol=1e-3)
        np.testing.assert_allclose(box.hi, [0.7060, 2.9799], atol=1e-3)
        assert box.lo[0] == 0.0

    def test_no_looser_than_strict_oracle(self):
        rng = np.random.default_rng(8)
        cases = [(PINNED_C_LO, PINNED_C_HI, PINNED_Q_LO, PINNED_Q_HI)]
        for _ in range(300):
            c, q, _ = random_dominant_system(rng, 2)
            cm, qv = widen(rng, c, q, scale=rng.uniform(0.0, 0.3))
            cases.append((cm.lo, cm.hi, qv.lo, qv.hi))
        compared = 0
        for c_lo, c_hi, q_lo, q_hi in cases:
            oracle = k2_strict_oracle(c_lo, c_hi, q_lo, q_hi)
            if oracle is None or np.any(oracle[1] <= 0):
                continue
            box = interval_gauss_elim(Interval(c_lo, c_hi), Interval(q_lo, q_hi))
            assert isinstance(box, WeightBox)
            assert np.all(box.hi <= oracle[1] + 1e-12)
            assert np.all(box.lo >= np.maximum(oracle[0], 0.0) - 1e-12)
            compared += 1
        assert compared >= 100

    def test_pinned_example_contains_interior_solutions(self):
        rng = np.random.default_rng(4)
        box = interval_gauss_elim(
            Interval(PINNED_C_LO, PINNED_C_HI),
            Interval(PINNED_Q_LO, PINNED_Q_HI),
        )
        for _ in range(200):
            c = rng.uniform(PINNED_C_LO, PINNED_C_HI)
            q = rng.uniform(PINNED_Q_LO, PINNED_Q_HI)
            w = np.linalg.solve(c, q)
            if np.any(w < 0):
                continue
            assert np.all(box.lo <= w + 1e-9) and np.all(w <= box.hi + 1e-9)

    def test_clamp_tightens_upper_bounds_above(self):
        # Without the clamp, lo[1] is -0.700 and hi[0] is 1.785.  With it,
        # w[1] >= 0, so row 0 subtracts at least c_lo[0,1] * 0 + c_lo[0,2] * lo[2].
        c_lo = np.array([[0.73, 0.15, 0.02], [0.0, 0.38, 0.0], [0.0, 0.13, 0.89]])
        c_hi = np.array([[0.81, 0.33, 0.12], [0.06, 0.5, 0.15], [0.12, 0.22, 1.03]])
        q_lo = np.array([1.0, 0.22, 1.82])
        q_hi = np.array([1.1, 0.32, 1.97])
        box = interval_gauss_elim(Interval(c_lo, c_hi), Interval(q_lo, q_hi))
        assert isinstance(box, WeightBox)
        assert box.lo[1] == 0.0
        assert box.hi[0] == pytest.approx((q_hi[0] - c_lo[0, 2] * box.lo[2]) / c_lo[0, 0])
        assert box.hi[0] < 1.785


class TestDegenerate:
    def test_identity_system(self):
        box = interval_gauss_elim(exact(np.eye(2)), exact([0.3, 0.7]))
        np.testing.assert_allclose(box.lo, [0.3, 0.7], atol=1e-14)
        np.testing.assert_allclose(box.hi, [0.3, 0.7], atol=1e-14)

    def test_zero_width_matches_exact_solve(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            k = int(rng.integers(2, 6))
            c, q, w = random_dominant_system(rng, k)
            box = interval_gauss_elim(exact(c), exact(q))
            assert isinstance(box, WeightBox)
            np.testing.assert_allclose(box.lo, w, atol=1e-8)
            np.testing.assert_allclose(box.hi, w, atol=1e-8)


class TestContainment:
    def test_interior_solutions_contained(self):
        rng = np.random.default_rng(6)
        boxes = 0
        for _ in range(150):
            k = int(rng.integers(2, 6))
            c, q, _ = random_dominant_system(rng, k)
            cm, qv = widen(rng, c, q, scale=0.03)
            box = interval_gauss_elim(cm, qv)
            if isinstance(box, Aborted):
                continue
            boxes += 1
            assert np.all(box.lo >= 0)
            for _ in range(20):
                cs = rng.uniform(cm.lo, cm.hi)
                qs = rng.uniform(qv.lo, qv.hi)
                w = np.linalg.solve(cs, qs)
                assert np.all(box.lo <= w + 1e-9) and np.all(w <= box.hi + 1e-9)
        assert boxes >= 50  # the abort path must not dominate this regime

    @settings(max_examples=300, deadline=None)
    @given(k=st.integers(2, 5), seed=st.integers(0, 2**32 - 1), scale=st.floats(0.0, 0.1))
    def test_nonnegative_interior_solutions_contained(self, k, seed, scale):
        # Interior solves with a negative component may fall outside the
        # box; importance weights never have one.
        rng = np.random.default_rng(seed)
        c = rng.uniform(0.0, 0.15, size=(k, k))
        c[np.diag_indices(k)] = rng.uniform(0.5, 1.0, size=k)
        w = rng.uniform(0.01, 3.0, size=k)
        cm, qv = widen(rng, c, c @ w, scale)
        box = interval_gauss_elim(cm, qv)
        if isinstance(box, Aborted):
            return
        assert np.all(box.lo >= 0)
        cs = rng.uniform(cm.lo[None], cm.hi[None], size=(200, k, k))
        qs = rng.uniform(qv.lo[None], qv.hi[None], size=(200, k))
        ws = np.linalg.solve(cs, qs[:, :, None])[:, :, 0]
        ws = ws[np.all(ws >= 0, axis=1)]
        tol = 1e-9 * np.maximum(1.0, np.abs(ws))
        assert np.all((box.lo - tol <= ws) & (ws <= box.hi + tol))

    def test_nested_inputs_give_nested_boxes(self):
        rng = np.random.default_rng(7)
        checked = 0
        for _ in range(100):
            k = int(rng.integers(2, 5))
            c, q, _ = random_dominant_system(rng, k)
            narrow = widen(rng, c, q, scale=0.01)
            wide = (
                Interval(narrow[0].lo - 0.01, narrow[0].hi + 0.01),
                Interval(np.maximum(narrow[1].lo - 0.01, 1e-9), narrow[1].hi + 0.01),
            )
            bn = interval_gauss_elim(*narrow)
            bw = interval_gauss_elim(*wide)
            if isinstance(bn, Aborted) or isinstance(bw, Aborted):
                continue
            checked += 1
            assert np.all(bn.lo >= 0) and np.all(bw.lo >= 0)
            assert np.all(bw.lo <= bn.lo + 1e-9) and np.all(bn.hi <= bw.hi + 1e-9)
        assert checked >= 40


class TestAborts:
    # Each (C, q) pins the exact Aborted(step, reason) that a calibration
    # report carries as its abort step and reason.
    @pytest.mark.parametrize("c,q,want", [
        pytest.param(
            Interval(np.array([[0.0, 0.0], [0.0, 0.5]]), np.eye(2)),
            exact([0.5, 0.5]),
            Aborted(0, "diagonal lower bound c[0,0] <= 0"),
            id="diagonal-step0",
        ),
        pytest.param(
            exact(np.eye(2)),
            Interval(np.array([0.0, 0.5]), np.array([0.5, 0.5])),
            Aborted(0, "rhs lower bound q[0] <= 0"),
            id="rhs-step0",
        ),
        pytest.param(  # the eliminated pivot is 1 - 1 = 0
            exact([[1, 1], [1, 1]]),
            exact([1, 1]),
            Aborted(1, "diagonal lower bound c[1,1] <= 0"),
            id="diagonal-step1",
        ),
        pytest.param(  # the eliminated right-hand side is 0.5 - 1 < 0
            exact([[1, 1], [1, 1.5]]),
            exact([1, 0.5]),
            Aborted(1, "rhs lower bound q[1] <= 0"),
            id="rhs-step1",
        ),
        pytest.param(  # the last pivot of a K=3 system is 1 - 1 = 0
            exact([[1, 0, 0], [0, 1, 1], [0, 1, 1]]),
            exact([1, 1, 1]),
            Aborted(2, "diagonal lower bound c[2,2] <= 0"),
            id="diagonal-step2",
        ),
        pytest.param(  # back-substitution: w[0] <= 0.5 - 1 * 1
            exact([[1, 1], [0, 1]]),
            exact([0.5, 1]),
            Aborted(1, "nonpositive weight upper bound w[0]"),
            id="weight-upper-bound",
        ),
    ])
    def test_abort_step_and_reason(self, c, q, want):
        assert interval_gauss_elim(c, q) == want


class TestShapes:
    def test_vector_of_wrong_length_raises(self):
        # Unchecked, elimination would ignore q[2] and return a box.
        with pytest.raises(ValueError, match="K-vector"):
            interval_gauss_elim(exact(np.eye(2)), exact([0.3, 0.7, 0.5]))

    @pytest.mark.parametrize("c,q", [
        (np.ones((2, 3)), [0.3, 0.7]),  # not square
        (np.ones((1, 1)), [0.3]),  # K < 2
        (np.eye(2), [[0.3, 0.7]]),  # q not a vector
    ])
    def test_bad_shapes_raise(self, c, q):
        with pytest.raises(ValueError, match="K-vector"):
            interval_gauss_elim(exact(c), exact(q))

    def test_interval_endpoints_must_agree(self):
        with pytest.raises(ValueError, match="same shape"):
            Interval(np.zeros(2), np.ones(3))
        with pytest.raises(ValueError, match="same shape"):
            # Unchecked, lo would broadcast against hi in every comparison.
            WeightBox([0.5], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="lo must be <= hi"):
            Interval(np.ones(2), np.zeros(2))

    def test_nan_endpoints_raise(self):
        with pytest.raises(ValueError, match="lo must be <= hi"):
            Interval([np.nan], [np.nan])
        with pytest.raises(ValueError, match="lo must be <= hi"):
            Interval([0.0, 0.5], [1.0, np.nan])

    def test_nan_coefficient_raises_instead_of_nan_box(self):
        with pytest.raises(ValueError, match="lo must be <= hi"):
            interval_gauss_elim(exact([[1, np.nan], [0.5, 1]]), exact([1, 1]))


class TestWeightBox:
    def test_envelope_is_max_hi(self):
        box = WeightBox([-0.5, 0.2], [1.0, 3.0])
        assert box.envelope_b == 3.0
        np.testing.assert_allclose(box.clamped_lo(), [0.0, 0.2])

    def test_rejects_nonpositive_upper(self):
        with pytest.raises(ValueError):
            WeightBox([-1.0, 0.1], [0.0, 1.0])
        # An infinite b would reach PS-C as epsilon / b = 0.
        with pytest.raises(ValueError, match="^weight upper bounds must be positive and finite$"):
            WeightBox(np.zeros(2), [1.0, np.inf])

    def test_rejects_infinite_lower(self):
        # PS-C would calibrate on such a box, and PS-W's sampler reject it as an infinite weight.
        with pytest.raises(ValueError, match="^weight lower bounds must be finite$"):
            WeightBox([-np.inf, 0.2], [1.0, 1.0])

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="lo must be <= hi"):
            WeightBox([0.0, np.nan], [1.0, np.nan])
        with pytest.raises(ValueError, match="lo must be <= hi"):
            WeightBox([0.0, 0.5], [1.0, np.nan])
