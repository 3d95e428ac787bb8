"""Tests for the prediction-set calibrators.

The worst-case calibrator is checked against an exhaustive cell
enumeration: per label the accepted set is piecewise constant in the
weight, so scanning every breakpoint of every label and taking the min
threshold over the product of cells is an exact (if slow) oracle.
"""

import math

import numpy as np
import pytest
from scipy import stats

from pacshift import (
    Aborted,
    AcceptanceRandomness,
    RiskParams,
    ScoreTable,
    ThresholdResult,
    WeightBox,
    evaluate_set,
    ps_threshold,
    psc_threshold,
    psr_threshold,
    psw_threshold,
    rejection_sample,
    wcp_threshold,
)
from pacshift.predsets import ABORTED, CALIBRATED, FULL_SET, aborted_result, full_set_result

from oracles import ps_oracle, psw_brute_force


def random_instance(rng, m=None, ties=False):
    m = m or int(rng.integers(4, 21))
    scores = rng.dirichlet(np.ones(2), size=m)
    labels = rng.integers(0, 2, size=m)
    src = ScoreTable(scores=scores, labels=labels)
    # With ties, v takes four values, so many rows share one limit.
    v = AcceptanceRandomness(v=rng.integers(0, 4, size=m) / 4 if ties else rng.uniform(size=m))
    lo = rng.uniform(-0.3, 0.6, size=2)
    hi = lo + rng.uniform(0.3, 1.5, size=2)
    box = WeightBox(lo, hi)
    rp = RiskParams(epsilon=float(rng.uniform(0.2, 0.6)), delta=float(rng.uniform(0.3, 0.8)))
    return src, v, box, rp


def planted_boundary_instance(rng):
    """A singleton-box instance with a label-0 row planted just past w[0] / b.

    The sampler rejects that row, since its v exceeds w[0] / b, yet v times
    b rounds down to w[0]: a rule that tested the product would accept it.
    """
    while True:
        src, v, _, rp = random_instance(rng, m=int(rng.integers(20, 80)))
        w = rng.uniform(0.3, 1.5, size=2)
        b = w.max()
        rows = np.flatnonzero(src.labels == 0)
        planted = np.nextafter(w[0] / b, np.inf)
        if rows.size and planted <= 1 and planted * b <= w[0]:
            v.v[rows[0]] = planted
            return src, v, w, rp


class TestPsThreshold:
    def test_three_point_example(self):
        src = ScoreTable(
            scores=np.array([[0.2, 0.8], [0.5, 0.5], [0.9, 0.1]]),
            labels=np.array([0, 0, 0]),
        )
        rp = RiskParams(epsilon=0.5, delta=0.6)
        res = ps_threshold(src, rp)
        assert res.tau == ps_oracle([0.2, 0.5, 0.9], rp) == 0.5

    def test_no_feasible_k_gives_full_set(self):
        src = ScoreTable(scores=np.array([[0.6, 0.4]] * 5), labels=np.zeros(5, dtype=int))
        res = ps_threshold(src, RiskParams(epsilon=0.01, delta=1e-9))
        assert res.status == FULL_SET and res.tau == -math.inf

    def test_constant_scores(self):
        src = ScoreTable(scores=np.array([[0.7, 0.3]] * 8), labels=np.zeros(8, dtype=int))
        res = ps_threshold(src, RiskParams(epsilon=0.4, delta=0.5))
        assert res.tau == 0.7

    def test_random_instances_match_scan_oracle(self):
        rng = np.random.default_rng(18)
        for _ in range(50):
            src, _, _, rp = random_instance(rng, m=int(rng.integers(5, 200)))
            res = ps_threshold(src, rp)
            assert res.tau == ps_oracle(src.true_scores(), rp)


class TestRejectionSample:
    def test_full_weights_accept_everything(self):
        rng = np.random.default_rng(19)
        src, v, _, _ = random_instance(rng)
        idx = rejection_sample(src, v, np.array([2.0, 2.0]), 2.0)
        assert len(idx) == src.n

    def test_zero_weight_label_never_accepted(self):
        rng = np.random.default_rng(20)
        src, v, _, _ = random_instance(rng, m=20)
        idx = rejection_sample(src, v, np.array([0.0, 1.0]), 1.0)
        assert not np.any(src.labels[idx] == 0)

    def test_negative_weights_clamp_to_zero(self):
        rng = np.random.default_rng(21)
        src, v, _, _ = random_instance(rng, m=20)
        a = rejection_sample(src, v, np.array([-0.5, 1.0]), 1.0)
        b = rejection_sample(src, v, np.array([0.0, 1.0]), 1.0)
        np.testing.assert_array_equal(a, b)

    def test_accepted_labels_match_target_distribution(self):
        rng = np.random.default_rng(22)
        p = np.array([0.5, 0.3, 0.2])
        q = np.array([0.2, 0.3, 0.5])
        w = q / p
        n = 10_000
        labels = rng.choice(3, size=n, p=p)
        scores = np.full((n, 3), 1 / 3)
        src = ScoreTable(scores=scores, labels=labels)
        v = AcceptanceRandomness(v=rng.uniform(size=n))
        idx = rejection_sample(src, v, w, float(w.max()))
        counts = np.bincount(labels[idx], minlength=3)
        _, pval = stats.chisquare(counts, q * counts.sum())
        assert pval > 0.01

    def test_envelope_validation(self):
        rng = np.random.default_rng(23)
        src, v, _, _ = random_instance(rng, m=10)
        with pytest.raises(ValueError):
            rejection_sample(src, v, np.array([1.0, 2.0]), 1.5)
        with pytest.raises(ValueError):
            rejection_sample(src, v, np.array([0.5, 0.5]), 0.0)

    @pytest.mark.parametrize("w", [[1.0], [0.5, 0.5, 0.1]])
    def test_weights_need_one_entry_per_label(self, w):
        rng = np.random.default_rng(23)
        src, v, _, _ = random_instance(rng, m=10)
        with pytest.raises(ValueError, match="one weight per label"):
            rejection_sample(src, v, np.array(w), 1.0)

    def test_nan_uniform_rejected(self):
        with pytest.raises(ValueError, match="must lie in"):
            AcceptanceRandomness(v=[0.5, np.nan])


class TestPswThreshold:
    def test_singleton_box_equals_rejection_plus_ps(self):
        rng = np.random.default_rng(24)
        instances = []
        for _ in range(20):
            src, v, _, rp = random_instance(rng, m=int(rng.integers(20, 80)))
            instances.append((src, v, rng.uniform(0.3, 1.5, size=2), rp))
        instances += [planted_boundary_instance(rng) for _ in range(10)]
        for src, v, w, rp in instances:
            res = psw_threshold(src, v, WeightBox(w, w), rp)
            ref = psr_threshold(src, v, w, rp)
            assert res.tau == ref.tau and res.status == ref.status

    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(25)
        instances = [random_instance(rng, ties=ties) for ties in [False] * 60 + [True] * 60]
        # Every v equal: the whole label accepts or rejects as one tie group.
        src, _, box, rp = random_instance(rng)
        instances.append((src, AcceptanceRandomness(v=np.full(src.n, 0.5)), box, rp))
        for src, v, box, rp in instances:
            res = psw_threshold(src, v, box, rp)
            assert res.tau == psw_brute_force(src, v, box, rp)

    def test_never_above_exact_weight_oracle(self):
        rng = np.random.default_rng(26)
        for _ in range(30):
            src, v, _, rp = random_instance(rng, m=int(rng.integers(30, 120)))
            w_true = rng.uniform(0.3, 1.5, size=2)
            pad = rng.uniform(0.0, 0.4, size=2)
            box = WeightBox(w_true - pad, w_true + pad)
            res = psw_threshold(src, v, box, rp)
            idx = rejection_sample(src, v, w_true, box.envelope_b)
            oracle = ps_threshold(src.subset(idx), rp)
            assert res.tau <= oracle.tau

    def test_wider_box_is_more_conservative(self):
        rng = np.random.default_rng(27)
        for _ in range(20):
            src, v, box, rp = random_instance(rng, m=int(rng.integers(20, 80)))
            wider = WeightBox(box.lo - 0.2, box.hi + 0.2)
            assert psw_threshold(src, v, wider, rp).tau <= psw_threshold(src, v, box, rp).tau

    def test_aborted_box_propagates(self):
        rng = np.random.default_rng(28)
        src, v, _, rp = random_instance(rng)
        res = psw_threshold(src, v, Aborted(step=1, reason="x"), rp)
        assert res.status == ABORTED

    def test_box_for_another_k_raises(self):
        # Unchecked, a K=2 source would calibrate with b = 9 from label 2.
        rng = np.random.default_rng(28)
        src, v, _, rp = random_instance(rng)
        with pytest.raises(ValueError, match="one weight per label"):
            psw_threshold(src, v, WeightBox([0.5, 0.5, 0.1], [1.0, 1.0, 9.0]), rp)


class TestPscThreshold:
    def test_unit_envelope_equals_ps(self):
        rng = np.random.default_rng(29)
        src, _, _, rp = random_instance(rng, m=60)
        box = WeightBox([0.4, 0.6], [0.8, 1.0])
        assert psc_threshold(src, box, rp).tau == ps_threshold(src, rp).tau

    def test_larger_envelope_is_more_conservative(self):
        rng = np.random.default_rng(30)
        src, _, _, _ = random_instance(rng, m=200)
        rp = RiskParams(epsilon=0.4, delta=0.3)
        small = WeightBox([0.5, 0.5], [1.0, 1.0])
        large = WeightBox([0.5, 0.5], [1.0, 2.5])
        assert psc_threshold(src, large, rp).tau <= psc_threshold(src, small, rp).tau

    def test_aborted_box_propagates(self):
        rng = np.random.default_rng(31)
        src, _, _, rp = random_instance(rng)
        assert psc_threshold(src, Aborted(step=0, reason="x"), rp).status == ABORTED


class TestPsrThreshold:
    def test_uniform_weights_equal_plain_ps(self):
        rng = np.random.default_rng(32)
        src, v, _, rp = random_instance(rng, m=80)
        res = psr_threshold(src, v, np.array([0.7, 0.7]), rp)
        assert res.tau == ps_threshold(src, rp).tau

    def test_all_zero_weights_give_full_set(self):
        rng = np.random.default_rng(33)
        src, v, _, rp = random_instance(rng)
        assert psr_threshold(src, v, np.array([0.0, 0.0]), rp).status == FULL_SET

    def test_equals_ps_on_accepted_subsample(self):
        rng = np.random.default_rng(34)
        for _ in range(20):
            src, v, _, rp = random_instance(rng, m=int(rng.integers(30, 120)))
            w = rng.uniform(0.1, 2.0, size=2)
            res = psr_threshold(src, v, w, rp)
            idx = rejection_sample(src, v, w, float(w.max()))
            assert res.tau == ps_threshold(src.subset(idx), rp).tau


class TestWcpThreshold:
    def test_uniform_weights_give_unweighted_quantile(self):
        rng = np.random.default_rng(35)
        src, _, _, _ = random_instance(rng, m=100)
        eps = 0.3
        res = wcp_threshold(src, np.array([1.0, 1.0]), eps)
        s = src.true_scores()
        vals = np.unique(s)
        ok = [val for val in vals if np.mean(s < val) <= eps]
        assert res.tau == ok[-1]

    def test_zero_weight_label_ignored(self):
        rng = np.random.default_rng(36)
        src, _, _, _ = random_instance(rng, m=60)
        res = wcp_threshold(src, np.array([1.0, 0.0]), 0.25)
        keep = np.flatnonzero(src.labels == 0)
        ref = wcp_threshold(src.subset(keep), np.array([1.0, 1.0]), 0.25)
        assert res.tau == ref.tau

    def test_weighted_order_statistic_oracle(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            src, _, _, _ = random_instance(rng, m=int(rng.integers(20, 100)))
            w = rng.uniform(0.2, 3.0, size=2)
            eps = float(rng.uniform(0.1, 0.6))
            res = wcp_threshold(src, w, eps)
            s = src.true_scores()
            u = w[src.labels]
            best = None
            for val in np.unique(s):
                if u[s < val].sum() <= eps * u.sum():
                    best = val
            assert res.tau == best


class TestEvaluateSet:
    def test_full_set_scores_everything(self):
        rng = np.random.default_rng(38)
        test, _, _, _ = random_instance(rng, m=30)
        err, size = evaluate_set(full_set_result(), test)
        assert err == 0.0 and size == 2.0

    def test_aborted_degrades_to_full_set(self):
        rng = np.random.default_rng(39)
        test, _, _, _ = random_instance(rng, m=30)
        assert evaluate_set(aborted_result(), test) == (0.0, 2.0)

    def test_tau_above_max_score(self):
        rng = np.random.default_rng(40)
        test, _, _, _ = random_instance(rng, m=30)
        res = ThresholdResult(tau=1.1, status=CALIBRATED)
        err, size = evaluate_set(res, test)
        assert err == 1.0 and size == 0.0

    def test_recount_oracle(self):
        rng = np.random.default_rng(41)
        test, _, _, _ = random_instance(rng, m=200)
        res = ThresholdResult(tau=0.45, status=CALIBRATED)
        err, size = evaluate_set(res, test)
        exp_err = np.mean([test.scores[i, test.labels[i]] < 0.45 for i in range(test.n)])
        exp_size = np.mean([(test.scores[i] >= 0.45).sum() for i in range(test.n)])
        assert err == pytest.approx(exp_err)
        assert size == pytest.approx(exp_size)


class TestThresholdResult:
    def test_full_set_invariant(self):
        with pytest.raises(ValueError):
            ThresholdResult(tau=-math.inf, status=CALIBRATED)
        with pytest.raises(ValueError):
            ThresholdResult(tau=0.5, status=FULL_SET)
