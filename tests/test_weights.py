"""Tests for confusion/frequency estimation and weight boxing.

Oracles: brute-force recounts for the estimators, the scalar cp_interval
applied entrywise for the bound matrices, residual checks for the plug-in
solve, and Monte Carlo containment of the simulator's ground-truth weights
for the end-to-end box.
"""

import numpy as np
import pytest

from pacshift import (
    Aborted,
    Interval,
    ScoreTable,
    ShiftSpec,
    SingularMatrix,
    SyntheticModel,
    WeightBox,
    bbse_point_weights,
    cp_bounds,
    cp_interval,
    delta_split,
    estimate_confusion,
    estimate_qhat,
    interval_gauss_elim,
    sample_shifted,
    true_weights,
    tweak_one,
    weight_box,
)


def random_table(rng, n, k, labeled=True):
    scores = rng.dirichlet(np.ones(k), size=n)
    labels = rng.integers(0, k, size=n) if labeled else None
    return ScoreTable(scores=scores, labels=labels)


class TestEstimateConfusion:
    def test_two_row_example(self):
        t = ScoreTable(scores=np.array([[0.9, 0.1], [0.2, 0.8]]), labels=np.array([0, 1]))
        np.testing.assert_array_equal(estimate_confusion(t), [[1, 0], [0, 1]])

    def test_all_rows_one_cell(self):
        m = 17
        t = ScoreTable(scores=np.tile([0.9, 0.1], (m, 1)), labels=np.ones(m, dtype=int))
        conf = estimate_confusion(t)
        assert conf[0, 1] == m
        assert conf.sum() == m

    def test_random_table_matches_recount(self):
        rng = np.random.default_rng(8)
        t = random_table(rng, 100, 4)
        conf = estimate_confusion(t)
        pred = np.argmax(t.scores, axis=1)
        expected = np.zeros((4, 4), dtype=int)
        for p, y in zip(pred, t.labels):
            expected[p, y] += 1
        np.testing.assert_array_equal(conf, expected)

    def test_requires_labels(self):
        rng = np.random.default_rng(9)
        with pytest.raises(ValueError):
            estimate_confusion(random_table(rng, 10, 3, labeled=False))


class TestEstimateQhat:
    def test_all_rows_same_class(self):
        t = ScoreTable(scores=np.tile([0.1, 0.2, 0.7], (9, 1)))
        np.testing.assert_array_equal(estimate_qhat(t), [0, 0, 9])

    def test_one_row_per_class(self):
        t = ScoreTable(scores=np.eye(3) * 0.8 + 0.1)
        np.testing.assert_array_equal(estimate_qhat(t), [1, 1, 1])

    def test_random_table_matches_recount(self):
        rng = np.random.default_rng(10)
        t = random_table(rng, 200, 5, labeled=False)
        qh = estimate_qhat(t)
        expected = np.bincount(np.argmax(t.scores, axis=1), minlength=5)
        np.testing.assert_array_equal(qh, expected)


class TestDeltaSplit:
    @pytest.mark.parametrize("k,delta", [(2, 0.1), (3, 5e-4), (10, 1e-2), (7, 1e-6)])
    def test_budget_sums_to_delta(self, k, delta):
        box_budget, calib = delta_split(k, delta)
        assert abs(box_budget + calib - delta) <= 1e-12
        assert calib == pytest.approx(delta / (k * (k + 1) + 1), rel=1e-12)

    def test_interval_budget_dominates(self):
        box_budget, calib = delta_split(3, 5e-4)
        assert box_budget == pytest.approx(12 * calib, rel=1e-12)


class TestCpBounds:
    def test_concentrated_counts_closed_form(self):
        m, K = 50, 2
        conf = np.zeros((K, K), dtype=int)
        conf[0, 0] = m
        delta_total = 0.06
        per_entry = delta_total / (K * (K + 1))
        c_iv, _ = cp_bounds(conf, np.array([30, 20]), delta_total)
        assert c_iv.lo[0, 0] == pytest.approx((per_entry / 2) ** (1 / m), abs=1e-12)
        assert c_iv.hi[0, 0] == 1.0
        assert np.all(c_iv.lo[c_iv.lo != c_iv.lo[0, 0]] == 0.0)

    def test_nesting_in_budget(self):
        rng = np.random.default_rng(11)
        conf = rng.multinomial(300, np.ones(9) / 9).reshape(3, 3)
        qh = rng.multinomial(200, np.ones(3) / 3)
        wide_c, wide_q = cp_bounds(conf, qh, 0.01)
        narrow_c, narrow_q = cp_bounds(conf, qh, 1 - 1e-9)
        assert np.all(wide_c.lo <= narrow_c.lo) and np.all(narrow_c.hi <= wide_c.hi)
        assert np.all(wide_q.lo <= narrow_q.lo) and np.all(narrow_q.hi <= wide_q.hi)

    def test_entrywise_equals_scalar_oracle(self):
        rng = np.random.default_rng(12)
        conf = rng.multinomial(500, np.ones(9) / 9).reshape(3, 3)
        qh = rng.multinomial(400, np.ones(3) / 3)
        delta_total = 4e-4
        per_entry = delta_total / 12
        c_iv, q_iv = cp_bounds(conf, qh, delta_total)
        for i in range(3):
            for j in range(3):
                ref = cp_interval(int(conf[i, j]), 500, per_entry)
                assert c_iv.lo[i, j] == ref.lo and c_iv.hi[i, j] == ref.hi
            ref = cp_interval(int(qh[i]), 400, per_entry)
            assert q_iv.lo[i] == ref.lo and q_iv.hi[i] == ref.hi

    @pytest.mark.parametrize("conf,qh", [
        (np.full((2, 2), 10), np.array([10, 10, 10])),  # unchecked, qh[2] would be ignored
        (np.full((3, 3), 10), np.array([10, 10])),
        (np.full((2, 3), 10), np.array([10, 10])),
    ])
    def test_k_mismatch_raises(self, conf, qh):
        with pytest.raises(ValueError, match="shapes"):
            cp_bounds(conf, qh, 0.01)

    def test_negative_counts_raise(self):
        with pytest.raises(ValueError, match="nonnegative"):
            cp_bounds(np.array([[10, -1], [1, 10]]), np.array([10, 10]), 0.01)
        with pytest.raises(ValueError, match="nonnegative"):
            cp_bounds(np.full((2, 2), 10), np.array([-1, 10]), 0.01)


class TestBbsePointWeights:
    def test_perfect_classifier_uniform_source(self):
        K = 4
        qh = np.array([10, 20, 30, 40])
        w = bbse_point_weights(25 * np.eye(K, dtype=int), qh)
        np.testing.assert_allclose(w, K * qh / qh.sum(), atol=1e-12)

    def test_no_shift_gives_unit_weights(self):
        rng = np.random.default_rng(13)
        conf = rng.multinomial(1000, np.ones(9) / 9).reshape(3, 3)
        conf[np.diag_indices(3)] += 200
        w = bbse_point_weights(conf, conf.sum(axis=1))
        np.testing.assert_allclose(w, np.ones(3), atol=1e-10)

    def test_residual_oracle(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            conf = rng.multinomial(2000, np.ones(9) / 9).reshape(3, 3)
            conf[np.diag_indices(3)] += 400
            qh = rng.multinomial(500, np.ones(3) / 3)
            w = bbse_point_weights(conf, qh)
            assert np.max(np.abs((conf / conf.sum()) @ w - qh / qh.sum())) <= 1e-8

    def test_singular_raises(self):
        with pytest.raises(SingularMatrix):
            bbse_point_weights(np.array([[50, 50], [0, 0]]), np.array([60, 40]))

    def test_empty_source_raises(self):
        conf = np.zeros((2, 2), dtype=int)
        with pytest.raises(SingularMatrix, match="all zero"):
            bbse_point_weights(conf, np.array([60, 40]))

    def test_empty_target_raises(self):
        # q_hat would be 0/0: NaN weights, not a solve.
        with pytest.raises(ValueError, match="all zero"):
            bbse_point_weights(np.array([[40, 10], [10, 40]]), np.zeros(2, dtype=int))

    def test_k_mismatch_raises(self):
        with pytest.raises(ValueError, match="shapes"):
            bbse_point_weights(np.array([[40, 10], [10, 40]]), np.array([60, 40, 5]))

    def test_negative_counts_raise(self):
        with pytest.raises(ValueError, match="nonnegative"):
            bbse_point_weights(np.array([[40, 10], [-10, 40]]), np.array([60, 40]))

    def test_ill_conditioned_raises(self):
        # Full rank in floating point, but cond(c_hat) ~ 4e13 > 1e12.
        big = 10**13
        conf = np.array([[big, big], [big, big + 1]])
        assert np.linalg.matrix_rank(conf / conf.sum()) == 2
        assert np.linalg.cond(conf / conf.sum()) > 1e12
        with pytest.raises(SingularMatrix):
            bbse_point_weights(conf, np.array([60, 40]))


class TestWeightBox:
    def test_zero_width_collapses_to_point_solve(self):
        rng = np.random.default_rng(15)
        conf = rng.multinomial(3000, np.ones(9) / 9).reshape(3, 3)
        conf[np.diag_indices(3)] += 600
        qh = rng.multinomial(800, np.ones(3) / 3)
        box = interval_gauss_elim(
            Interval.exact(conf / conf.sum()), Interval.exact(qh / qh.sum())
        )
        point = bbse_point_weights(conf, qh)
        assert isinstance(box, WeightBox)
        np.testing.assert_allclose(box.lo, point, atol=1e-8)
        np.testing.assert_allclose(box.hi, point, atol=1e-8)

    def test_identity_classifier_no_shift_contains_ones(self):
        model = SyntheticModel(class_centers=[[0.0], [8.0], [16.0]], noise_scale=0.5)
        spec = ShiftSpec(np.full(3, 1 / 3), np.full(3, 1 / 3), 3000, 3000, 0)
        src, tgt, _ = sample_shifted(spec, model, seed=16)
        box = weight_box(src, tgt, 4e-4)
        assert isinstance(box, WeightBox)
        assert box.contains(np.ones(3))

    def test_k_mismatch_raises(self):
        rng = np.random.default_rng(17)
        with pytest.raises(ValueError):
            weight_box(random_table(rng, 20, 3), random_table(rng, 20, 2, labeled=False), 0.01)

    def test_tweak_one_containment_monte_carlo(self):
        model = SyntheticModel(class_centers=[[0.0], [2.0], [4.0]], noise_scale=1.0)
        spec = ShiftSpec(np.full(3, 1 / 3), tweak_one(3, 0.5, 0), 5000, 5000, 0)
        w_true = true_weights(spec)
        contained = 0
        for seed in range(100):
            src, tgt, _ = sample_shifted(spec, model, seed=seed)
            box = weight_box(src, tgt, 4e-4)
            if isinstance(box, WeightBox) and box.contains(w_true):
                contained += 1
        assert contained >= 99

    def test_cdc_style_containment_monte_carlo(self):
        # Two-class severe shift: (0.94, 0.06) -> (0.636, 0.364).
        model = SyntheticModel(class_centers=[[0.0], [2.0]], noise_scale=1.0)
        spec = ShiftSpec([0.94, 0.06], [0.636, 0.364], 42000, 42000, 0)
        w_true = true_weights(spec)
        np.testing.assert_allclose(w_true, [0.676596, 6.066667], atol=1e-4)
        contained = 0
        for seed in range(100):
            src, tgt, _ = sample_shifted(spec, model, seed=seed)
            box = weight_box(src, tgt, 4e-4)
            if isinstance(box, WeightBox) and box.contains(w_true):
                contained += 1
        assert contained >= 99

    def test_abort_propagates(self):
        # A classifier that never predicts class 1 makes the pivot vanish.
        scores = np.tile([0.9, 0.1], (40, 1))
        src = ScoreTable(scores=scores, labels=np.tile([0, 1], 20))
        tgt = ScoreTable(scores=scores)
        out = weight_box(src, tgt, 0.01)
        assert isinstance(out, Aborted)
