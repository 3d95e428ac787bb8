"""Tests for the synthetic label-shift simulator.

Key invariants: tweak_one builds the advertised distributions, sampling is
deterministic in the seed, label frequencies follow the requested
distributions, and the class-conditional score distributions are identical
between source and target draws (the label-shift assumption itself).
"""

import tracemalloc

import numpy as np
import pytest
from scipy import stats

from pacshift import ShiftSpec, SyntheticModel, sample_shifted, true_weights, tweak_one
from pacshift.shift_sim import _BLOCK_ELEMENTS

# Bytes allowed above a peak-memory bound for the features and numpy's
# reduction buffers.
PEAK_SLACK = 1 << 18


def small_model():
    return SyntheticModel(class_centers=[[0.0], [2.0], [4.0]], noise_scale=1.0)


def score_reference(model, x):
    """The scorer as it was written before it worked in place."""
    d2 = ((x[:, None, :] - model.class_centers[None, :, :]) ** 2).sum(axis=2)
    logits = -d2 / model.temperature
    logits -= logits.max(axis=1, keepdims=True)
    e = np.exp(logits)
    return e / e.sum(axis=1, keepdims=True)


class TestTweakOne:
    def test_k10_reference(self):
        q = tweak_one(10, 0.4)
        assert q[0] == pytest.approx(0.4)
        np.testing.assert_allclose(q[1:], 0.6 / 9)

    def test_k4_reference(self):
        np.testing.assert_allclose(tweak_one(4, 0.625), [0.625, 0.125, 0.125, 0.125])

    def test_k2_uniform(self):
        np.testing.assert_allclose(tweak_one(2, 0.5), [0.5, 0.5])

    def test_tweaked_index(self):
        q = tweak_one(3, 0.9, tweaked=2)
        np.testing.assert_allclose(q, [0.05, 0.05, 0.9])

    def test_sums_to_one(self):
        for k, rho in [(2, 0.01), (5, 0.99), (7, 1 / 7)]:
            assert tweak_one(k, rho).sum() == pytest.approx(1.0, abs=1e-12)

    def test_invalid_rho(self):
        with pytest.raises(ValueError):
            tweak_one(3, -0.1)
        with pytest.raises(ValueError):
            tweak_one(3, 1.1)


class TestTrueWeights:
    def test_no_shift_gives_ones(self):
        spec = ShiftSpec(np.full(4, 0.25), np.full(4, 0.25), 10, 10, 10)
        np.testing.assert_allclose(true_weights(spec), np.ones(4))

    def test_cdc_style_reference(self):
        spec = ShiftSpec([0.94, 0.06], [0.636, 0.364], 10, 10, 10)
        np.testing.assert_allclose(true_weights(spec), [0.676596, 6.066667], atol=1e-4)

    def test_random_ratio_oracle(self):
        rng = np.random.default_rng(50)
        for _ in range(20):
            k = int(rng.integers(2, 6))
            p = rng.dirichlet(np.ones(k)) + 0.01
            p /= p.sum()
            q = rng.dirichlet(np.ones(k))
            spec = ShiftSpec(p, q, 5, 5, 5)
            np.testing.assert_allclose(true_weights(spec), q / p, atol=1e-12)


class TestShiftSpec:
    def test_rejects_non_simplex(self):
        with pytest.raises(ValueError):
            ShiftSpec([0.5, 0.6], [0.5, 0.5], 10, 10, 10)
        with pytest.raises(ValueError):
            ShiftSpec([0.5, 0.5], [1.1, -0.1], 10, 10, 10)
        with pytest.raises(ValueError):
            ShiftSpec([0.5, np.nan], [0.5, 0.5], 10, 10, 10)

    def test_rejects_target_outside_source_support(self):
        with pytest.raises(ValueError):
            ShiftSpec([1.0, 0.0], [0.5, 0.5], 10, 10, 10)

    def test_zero_target_class_allowed(self):
        spec = ShiftSpec([0.5, 0.5], [1.0, 0.0], 10, 10, 10)
        assert spec.k == 2

    def test_rejects_negative_sizes(self):
        with pytest.raises(ValueError):
            ShiftSpec([0.5, 0.5], [0.5, 0.5], -1, 10, 10)


class TestSyntheticModel:
    def test_scores_are_simplex_rows(self):
        rng = np.random.default_rng(51)
        table = small_model().draw(np.full(3, 1 / 3), 40, rng)
        assert table.scores.shape == (40, 3)
        np.testing.assert_allclose(table.scores.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(table.scores > 0)

    def test_well_separated_centers_classify_correctly(self):
        rng = np.random.default_rng(52)
        model = SyntheticModel(class_centers=[[0.0], [100.0]], noise_scale=1.0)
        table = model.draw(np.array([0.5, 0.5]), 100, rng)
        np.testing.assert_array_equal(np.argmax(table.scores, axis=1), table.labels)

    def test_heteroscedastic_noise_broadcast(self):
        # Tight class 0 is always classified correctly; the wide class 1
        # spills across the decision boundary at x=2 about 42% of the time.
        model = SyntheticModel(class_centers=[[0.0], [4.0]], noise_scale=[0.1, 10.0])
        rng = np.random.default_rng(53)
        table = model.draw(np.array([0.5, 0.5]), 2000, rng)
        pred = np.argmax(table.scores, axis=1)
        err0 = np.mean(pred[table.labels == 0] != 0)
        err1 = np.mean(pred[table.labels == 1] != 1)
        assert err0 < 0.01 < 0.2 < err1

    @pytest.mark.parametrize("dim", [1, 2, 3, 9])
    @pytest.mark.parametrize("k", [2, 3, 100])
    def test_scores_equal_reference_bitwise(self, dim, k):
        # Draws are repeated with the same seed to rebuild the features that
        # draw() scored; per-label noise, and a temperature small enough that
        # the far labels' logits underflow to 0.  The sizes cover one row,
        # part of a block, and several blocks with a partial last one.
        rng = np.random.default_rng(1000 * dim + k)
        centers = 3.0 * rng.standard_normal((k, dim))
        noise = rng.uniform(0.2, 4.0, size=k)
        dist = rng.dirichlet(np.ones(k))
        block_rows = _BLOCK_ELEMENTS // (k * dim)
        for size in (1, 300, 3 * block_rows + 17):
            for temperature in (0.01, 1.0, 430.0):
                model = SyntheticModel(centers, noise, temperature)
                table = model.draw(dist, size, np.random.default_rng(7))
                rng2 = np.random.default_rng(7)
                y = rng2.choice(k, size=size, p=dist)
                x = centers[y] + noise[y, None] * rng2.standard_normal((size, dim))
                want = score_reference(model, x)
                np.testing.assert_array_equal(table.labels, y)
                assert table.scores.view(np.uint64).tolist() == want.view(np.uint64).tolist()
                assert model.score(x).view(np.uint64).tolist() == want.view(np.uint64).tolist()
                if temperature == 0.01 and size > 1:
                    assert np.any(want == 0.0)

    @pytest.mark.parametrize("dim", [1, 2, 3, 9])
    def test_peak_memory(self, dim):
        # Besides its output the scorer holds one block of differences.
        rng = np.random.default_rng(54)
        model = SyntheticModel(rng.standard_normal((100, dim)), 1.0, 8.0)
        x = rng.standard_normal((5000, dim))
        tracemalloc.start()
        try:
            out = model.score(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= out.nbytes + 8 * _BLOCK_ELEMENTS + PEAK_SLACK

    def test_invalid_noise_scale(self):
        with pytest.raises(ValueError):
            SyntheticModel(class_centers=[[0.0], [4.0]], noise_scale=[1.0, 0.0])
        with pytest.raises(ValueError):
            SyntheticModel(class_centers=[[0.0], [4.0]], noise_scale=[1.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            SyntheticModel(class_centers=[[0.0], [4.0]], noise_scale=[1.0, np.nan])
        with pytest.raises(ValueError):
            SyntheticModel(class_centers=[[0.0], [4.0]], noise_scale=[1.0, np.inf])

    def test_non_finite_centers_and_nan_temperature_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            SyntheticModel(class_centers=[[0.0], [np.nan]])
        with pytest.raises(ValueError, match="finite"):
            SyntheticModel(class_centers=[[0.0], [np.inf]])
        with pytest.raises(ValueError, match="temperature"):
            SyntheticModel(class_centers=[[0.0], [4.0]], temperature=np.nan)


class TestSampleShifted:
    def test_deterministic_in_seed(self):
        spec = ShiftSpec(np.full(3, 1 / 3), tweak_one(3, 0.6), 50, 40, 30)
        a = sample_shifted(spec, small_model(), seed=54)
        b = sample_shifted(spec, small_model(), seed=54)
        for ta, tb in zip(a, b):
            np.testing.assert_array_equal(ta.scores, tb.scores)
            if ta.is_labeled:
                np.testing.assert_array_equal(ta.labels, tb.labels)

    def test_different_seeds_differ(self):
        spec = ShiftSpec(np.full(3, 1 / 3), tweak_one(3, 0.6), 50, 40, 30)
        a = sample_shifted(spec, small_model(), seed=55)
        b = sample_shifted(spec, small_model(), seed=56)
        assert not np.array_equal(a[0].scores, b[0].scores)

    def test_shapes_and_labels(self):
        spec = ShiftSpec(np.full(3, 1 / 3), tweak_one(3, 0.6), 21, 13, 8)
        src, tgt, test = sample_shifted(spec, small_model(), seed=57)
        assert (src.n, tgt.n, test.n) == (21, 13, 8)
        assert src.is_labeled and test.is_labeled and not tgt.is_labeled

    def test_peak_memory(self):
        # The three tables are built one after another, each scored a block
        # at a time, so the peak is about the outputs themselves.
        spec = ShiftSpec(np.full(100, 0.01), tweak_one(100, 0.05), 5000, 5000, 5000)
        model = SyntheticModel(8.0 * np.arange(100.0)[:, None], 1.0, 8.0)
        tracemalloc.start()
        try:
            tables = sample_shifted(spec, model, seed=61)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        outputs = sum(t.scores.nbytes + (t.labels.nbytes if t.is_labeled else 0) for t in tables)
        assert peak <= outputs + 8 * _BLOCK_ELEMENTS + PEAK_SLACK

    def test_empty_draws(self):
        spec = ShiftSpec(np.full(2, 0.5), np.full(2, 0.5), 0, 5, 0)
        src, tgt, test = sample_shifted(spec, SyntheticModel([[0.0], [2.0]]), seed=58)
        assert src.n == 0 and tgt.n == 5 and test.n == 0

    def test_label_frequencies_follow_spec(self):
        p = np.array([0.5, 0.3, 0.2])
        q = tweak_one(3, 0.7, tweaked=2)
        spec = ShiftSpec(p, q, 20_000, 0, 20_000)
        src, _, test = sample_shifted(spec, small_model(), seed=59)
        _, pv_src = stats.chisquare(np.bincount(src.labels, minlength=3), p * src.n)
        _, pv_test = stats.chisquare(np.bincount(test.labels, minlength=3), q * test.n)
        assert pv_src > 0.01 and pv_test > 0.01

    def test_class_conditional_scores_invariant_under_shift(self):
        # Assumption behind label shift: P(score | y) is the same in source
        # and target; check per class with a two-sample KS test.
        spec = ShiftSpec(np.full(3, 1 / 3), tweak_one(3, 0.8), 15_000, 0, 15_000)
        src, _, test = sample_shifted(spec, small_model(), seed=60)
        for k in range(3):
            a = src.true_scores()[src.labels == k]
            b = test.true_scores()[test.labels == k]
            assert stats.ks_2samp(a, b).pvalue > 0.01
