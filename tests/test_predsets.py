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
    ShiftSpec,
    SyntheticModel,
    ThresholdResult,
    WeightBox,
    binom_k,
    delta_split,
    evaluate_set,
    ps_threshold,
    psc_threshold,
    psr_threshold,
    psw_threshold,
    rejection_sample,
    sample_shifted,
    tweak_one,
    wcp_threshold,
    weight_box,
)
from pacshift import predsets
from pacshift.predsets import ABORTED, CALIBRATED, FULL_SET

from oracles import ps_oracle, psw_brute_force, psw_full_table


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


AWKWARD_PSW = ["empty-label", "all-tied-v", "m=1", "k=2", "delta-near-0", "delta-near-1",
               "high-lower-corners", "lower-corner-at-N0", "empty-first-label",
               "first-label-one-prefix", "last-label-one-prefix", "empty-middle-label"]


def awkward_instance(rng, case):
    """A small PS-W instance of one awkward kind from AWKWARD_PSW.

    v takes quarters, so ties are common in every kind.  Near delta = 0 the
    sample is larger, the box narrow and high and epsilon large, so that
    every acceptance pattern is big enough for some tau to pass.  With high
    lower corners every label has a row at v = 0, so each label's shortest
    prefix is not empty, and at least one label's box width is zero.  For
    the lower corner at N0, epsilon = 0.5 and delta = 0.2 make N0 = 3 rows
    the least sample size with a threshold, and every lower bound is <= 0,
    so the lower corner accepts just the 2 or 3 rows placed at v = 0.  Two
    kinds shape label 0, the first one PS-W's DP adds: with an empty first
    label no row has it (``empty-label`` empties the last label), and with
    one first-label prefix its box has width 0 at a positive weight.  Two
    more shape the edges of the DP's window, which grows by each label's
    longest offset: one last-label prefix (width 0 at a positive weight on
    label K - 1) gives the last label a one-entry window, and with an empty
    middle label (K = 3) no row has label 1, so it adds no offset between
    two labels that do.
    """
    k = 2 if case == "k=2" else 3
    if case == "m=1":
        m = 1
    else:
        m = int(rng.integers(12, 21) if case == "delta-near-0" else rng.integers(4, 11))
    low = 1 if case == "empty-first-label" else 0
    labels = rng.integers(low, k - 1 if case == "empty-label" else k, size=m)
    if case == "empty-middle-label":
        labels[labels == 1] = 2 * rng.integers(0, 2, size=np.count_nonzero(labels == 1))
    scores = rng.dirichlet(np.ones(k), size=m)
    v = rng.integers(0, 5, size=m) / 4
    if case == "all-tied-v":
        v[:] = v[0]
    lo = rng.uniform(-0.3, 0.6, size=k)
    hi = lo + rng.uniform(0.3, 1.5, size=k)
    epsilon, delta = rng.uniform(0.2, 0.6), rng.uniform(0.3, 0.8)
    if case == "delta-near-0":
        lo = rng.uniform(0.7, 1.0, size=k)
        hi = lo + rng.uniform(0.0, 0.3, size=k)
        epsilon, delta = rng.uniform(0.6, 0.95), 10.0 ** -rng.integers(6, 13)
    elif case == "delta-near-1":
        delta = 1 - 10.0 ** -rng.integers(6, 13)
    elif case == "high-lower-corners":
        labels[:k], v[:k] = np.arange(k), 0.0
        lo = rng.uniform(0.3, 1.0, size=k)
        width = rng.uniform(0.0, 0.5, size=k)
        width[rng.integers(k)] = 0.0
        hi = lo + width
    elif case == "lower-corner-at-N0":
        v[v == 0] = 0.25
        v[rng.choice(m, size=rng.integers(2, 4), replace=False)] = 0.0
        lo = rng.uniform(-0.3, 0.0, size=k)
        lo[rng.integers(k)] = 0.0
        hi = lo + rng.uniform(0.3, 1.5, size=k)
        epsilon, delta = 0.5, 0.2
    elif case == "first-label-one-prefix":
        lo[0] = hi[0] = rng.uniform(0.1, 1.0)
    elif case == "last-label-one-prefix":
        lo[-1] = hi[-1] = rng.uniform(0.1, 1.0)
    src = ScoreTable(scores=scores, labels=labels)
    return src, AcceptanceRandomness(v=v), WeightBox(lo, hi), RiskParams(epsilon, delta)


def k100_instance(rng):
    """A K=100 PS-W instance whose box is a single point on all but three labels.

    The three free labels hold half the rows and v takes quarters, so each
    has at most five acceptance cells and the brute force stays small.
    """
    K, m = 100, int(rng.integers(200, 401))
    free = rng.choice(K, size=3, replace=False)
    p = np.full(K, 0.5 / (K - 3))
    p[free] = 0.5 / 3
    labels = rng.choice(K, size=m, p=p)
    scores = rng.dirichlet(np.ones(K), size=m)
    v = rng.integers(0, 5, size=m) / 4
    lo = rng.uniform(0.3, 1.5, size=K)
    hi = lo.copy()
    lo[free] = rng.uniform(-0.3, 0.6, size=3)
    hi[free] = lo[free] + rng.uniform(0.3, 1.5, size=3)
    rp = RiskParams(float(rng.uniform(0.1, 0.3)), float(rng.uniform(0.05, 0.5)))
    return ScoreTable(scores, labels), AcceptanceRandomness(v), WeightBox(lo, hi), rp


def severe_instance(m, seed):
    """The acceptance suite's severe shift at m = n = o, with its weight box."""
    model = SyntheticModel([[-6.0], [6.0], [0.0]], [1.0, 1.0, 36.0], 430.0)
    spec = ShiftSpec([0.2, 0.2, 0.6], tweak_one(3, 0.9, tweaked=2), m, m, m)
    src, tgt, _ = sample_shifted(spec, model, seed)
    box_budget, calib_delta = delta_split(3, 0.6)
    # A seed apart from the data's: sharing it would tie v to the labels.
    v = AcceptanceRandomness.draw(m, seed + 1000)
    return src, v, weight_box(src, tgt, box_budget), RiskParams(0.2, calib_delta)


def k10_instance(rng):
    """A K=10 instance with up to 2000 rows, a random box and v in tenths or uniform."""
    K, m = 10, int(rng.integers(500, 2001))
    labels = rng.integers(0, K, size=m)
    scores = rng.dirichlet(np.ones(K), size=m)
    v = rng.integers(0, 11, size=m) / 10 if rng.random() < 0.5 else rng.uniform(size=m)
    lo = rng.uniform(-0.3, 1.0, size=K)
    hi = np.maximum(lo, 0.1) + rng.uniform(0.0, 1.5, size=K)
    rp = RiskParams(float(rng.uniform(0.1, 0.4)), float(rng.uniform(0.05, 0.5)))
    return ScoreTable(scores, labels), AcceptanceRandomness(v), WeightBox(lo, hi), rp


def metamorphic_instance(kind, seed):
    """``severe_instance(3000, seed)`` or ``k10_instance`` drawn at seed."""
    if kind == "severe":
        return severe_instance(3000, seed)
    return k10_instance(np.random.default_rng(seed))


METAMORPHIC = [("severe", 0), ("severe", 1), ("k10", 33), ("k10", 34)]


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
        with pytest.raises(ValueError, match="need one uniform per source row"):
            rejection_sample(src, AcceptanceRandomness(v.v[:-1]), np.array([0.5, 0.5]), 1.0)

    def test_envelope_check_is_exact(self):
        rng = np.random.default_rng(23)
        src, v, _, _ = random_instance(rng, m=10)
        b = 0.7
        assert len(rejection_sample(src, v, np.array([b, b]), b)) == src.n
        with pytest.raises(ValueError, match="must not exceed the envelope b"):
            rejection_sample(src, v, np.array([0.5, np.nextafter(b, np.inf)]), b)

    @pytest.mark.parametrize("w", [[1.0], [0.5, 0.5, 0.1]])
    def test_weights_need_one_entry_per_label(self, w):
        rng = np.random.default_rng(23)
        src, v, _, _ = random_instance(rng, m=10)
        with pytest.raises(ValueError, match="one weight per label"):
            rejection_sample(src, v, np.array(w), 1.0)

    @pytest.mark.parametrize("w, b", [
        ([np.nan, 1.0], 1.0), ([np.inf, 1.0], 1.0), ([-np.inf, 1.0], 1.0),
        ([0.5, 0.5], np.inf), ([0.5, 0.5], np.nan),
    ])
    def test_non_finite_weights_rejected(self, w, b):
        # A NaN weight would silently drop its label's rows.
        rng = np.random.default_rng(23)
        src, v, _, _ = random_instance(rng, m=10)
        with pytest.raises(ValueError, match="must be finite"):
            rejection_sample(src, v, np.array(w), b)

    def test_nan_uniform_rejected(self):
        with pytest.raises(ValueError, match="must lie in"):
            AcceptanceRandomness(v=[0.5, np.nan])

    @pytest.mark.parametrize("v", [[[0.1], [0.5], [0.9]], 0.5], ids=["n-by-1", "0-d"])
    def test_uniforms_must_be_1d(self, v):
        # A (3, 1) v passes a length check on 3 rows, then broadcasts the
        # acceptance test to (3, 3) and accepts row indices 0-8.
        with pytest.raises(ValueError, match=r"^acceptance uniforms must be 1-D, got shape"):
            AcceptanceRandomness(v=v)

    @pytest.mark.parametrize("call", [
        lambda src, v, w, rp: rejection_sample(src, v, w, 1.0),
        lambda src, v, w, rp: psr_threshold(src, v, w, rp),
        lambda src, v, w, rp: psw_threshold(src, v, WeightBox(w, w), rp),
    ], ids=["rejection_sample", "psr_threshold", "psw_threshold"])
    def test_unlabeled_source_rejected(self, call):
        # With n == K, the missing labels would index w as w[None] and
        # broadcast against v instead of failing.
        src = ScoreTable(scores=np.full((3, 3), 1 / 3))
        v = AcceptanceRandomness(v=[0.1, 0.5, 0.9])
        with pytest.raises(ValueError, match="^source table must be labeled$"):
            call(src, v, np.array([1.0, 0.5, 0.2]), RiskParams(0.1, 0.1))


def one_prefix_instances_with_rows(case, label):
    """Of 40 awkward instances of a kind, how many give ``label`` rows; each must give it one prefix.

    A label's prefixes run from its count at the box's lower corner to its
    count at the upper one, so it has one prefix iff the two are equal.
    """
    rng = np.random.default_rng(AWKWARD_PSW.index(case))
    with_rows = 0
    for _ in range(40):
        src, v, box, _ = awkward_instance(rng, case)
        n_lo, n_hi = (
            np.count_nonzero(src.labels[rejection_sample(src, v, w, box.envelope_b)] == label)
            for w in (box.lo, box.hi)
        )
        assert n_lo == n_hi
        with_rows += n_lo > 0
    return with_rows


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

    @pytest.mark.parametrize("case", AWKWARD_PSW)
    def test_matches_brute_force_on_awkward_inputs(self, case):
        rng = np.random.default_rng(AWKWARD_PSW.index(case))
        for _ in range(40):
            src, v, box, rp = awkward_instance(rng, case)
            assert psw_threshold(src, v, box, rp).tau == psw_brute_force(src, v, box, rp)

    def test_matches_brute_force_at_k100(self):
        below_both_corners = 0
        for seed in range(10):
            src, v, box, rp = k100_instance(np.random.default_rng(seed))
            tau = psw_threshold(src, v, box, rp).tau
            assert tau == psw_brute_force(src, v, box, rp)
            corners = [
                ps_threshold(src.subset(rejection_sample(src, v, w, box.envelope_b)), rp).tau
                for w in (box.lo, box.hi)
            ]
            below_both_corners += tau < min(corners)
        # The worst case is not just the sampler's cell at one of the box's corners.
        assert below_both_corners >= 5

    def test_high_lower_corners_accept_a_row_of_every_label(self):
        rng = np.random.default_rng(AWKWARD_PSW.index("high-lower-corners"))
        for _ in range(40):
            src, v, box, _ = awkward_instance(rng, "high-lower-corners")
            accepted = src.labels[rejection_sample(src, v, box.lo, box.envelope_b)]
            assert set(accepted.tolist()) == set(range(src.k))
            assert np.any(box.lo == box.hi)

    @pytest.mark.parametrize("case", ["empty-first-label", "first-label-one-prefix"])
    def test_first_label_kinds_give_label_0_one_prefix(self, case):
        with_rows = one_prefix_instances_with_rows(case, 0)
        # Only the width-0 kind's one prefix holds rows: in 23 of the 40.
        assert (with_rows > 0) == (case == "first-label-one-prefix")

    @pytest.mark.parametrize("case, label, has_rows", [("last-label-one-prefix", 2, True),
                                                       ("empty-middle-label", 1, False)])
    def test_window_edge_kinds_give_their_label_one_prefix(self, case, label, has_rows):
        # The last label's one prefix holds rows in 26 of the 40; label 1 never has any.
        assert (one_prefix_instances_with_rows(case, label) > 0) == has_rows

    def test_lower_corner_at_n0_decides_the_full_set(self):
        rng = np.random.default_rng(AWKWARD_PSW.index("lower-corner-at-N0"))
        seen = set()
        for _ in range(40):
            src, v, box, rp = awkward_instance(rng, "lower-corner-at-N0")
            n_lo = len(rejection_sample(src, v, box.lo, box.envelope_b))
            full = psw_threshold(src, v, box, rp).tau == -math.inf
            assert n_lo in (2, 3) and full == (n_lo == 2)
            seen.add(n_lo)
        assert seen == {2, 3}

    def test_full_set_builds_no_k_table(self, monkeypatch):
        # A lower corner with fewer than N0 rows decides the full set from k(n_lo)
        # alone, before any k(N) table over [n_lo, n_max] is built.
        def no_table(*args):
            raise AssertionError("a full set must not build the k(N) table")

        monkeypatch.setattr(predsets, "binom_k_range", no_table)
        rng = np.random.default_rng(AWKWARD_PSW.index("lower-corner-at-N0"))
        full = 0
        for _ in range(40):
            src, v, box, rp = awkward_instance(rng, "lower-corner-at-N0")
            if len(rejection_sample(src, v, box.lo, box.envelope_b)) == 2:
                assert psw_threshold(src, v, box, rp).tau == -math.inf
                full += 1
        assert full > 0
        # K = 3 and m = 20000 with the box [0, 1]^3: n_lo = 0 and n_max = m.
        src, v, _, _ = severe_instance(20_000, 0)
        box = WeightBox(np.zeros(3), np.ones(3))
        assert psw_threshold(src, v, box, RiskParams(0.1, 1e-3)).tau == -math.inf

    def test_full_set_iff_lower_corner_has_no_threshold(self):
        # The smallest pattern, the lower corner's, decides the full set alone.
        rng = np.random.default_rng(32)
        full = 0
        for i in range(320):
            src, v, box, rp = awkward_instance(rng, AWKWARD_PSW[i % len(AWKWARD_PSW)])
            lo = box.lo.copy()
            lo[rng.integers(len(lo))] = 0.0
            box = WeightBox(lo, box.hi)
            n_lo = len(rejection_sample(src, v, box.lo, box.envelope_b))
            tau = psw_threshold(src, v, box, rp).tau
            assert (tau == -math.inf) == (binom_k(n_lo, rp) < 0)
            full += tau == -math.inf
        # Both outcomes are common: 153 of the 320 are full sets.
        assert 80 < full < 240

    @pytest.mark.parametrize("m, seeds", [(1000, 6), (3000, 4)])
    def test_matches_full_table_dp_on_severe_shift(self, m, seeds):
        calibrated = 0
        for seed in range(seeds):
            src, v, box, rp = severe_instance(m, seed)
            assert not isinstance(box, Aborted)
            tau = psw_threshold(src, v, box, rp).tau
            assert float(tau).hex() == float(psw_full_table(src, v, box, rp)).hex()
            calibrated += math.isfinite(tau)
        assert calibrated >= seeds - 1

    def test_matches_full_table_dp_at_k10(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            src, v, box, rp = k10_instance(rng)
            tau = psw_threshold(src, v, box, rp).tau
            assert float(tau).hex() == float(psw_full_table(src, v, box, rp)).hex()

    def test_full_table_oracle_matches_brute_force(self):
        # Both oracles, with no library calculation in the loop, on the kinds
        # the brute-force tests use.
        rng = np.random.default_rng(35)
        instances = [random_instance(rng, ties=ties) for ties in [False] * 60 + [True] * 60]
        instances += [awkward_instance(rng, case) for case in AWKWARD_PSW for _ in range(20)]
        for src, v, box, rp in instances:
            assert psw_full_table(src, v, box, rp) == psw_brute_force(src, v, box, rp)

    @pytest.mark.parametrize("n, table, narrower", [
        (250, np.uint8, np.int8),
        (1000, np.uint16, np.uint8),
        (100_000, np.uint32, np.uint16),
    ], ids=["uint8", "uint16", "uint32"])
    def test_error_counts_past_a_narrower_table_keep_tau_exact(self, n, table, narrower):
        # A zero-width box has one pattern, its rejection sample, so n_max is its
        # size.  Label 0's error count at tau alone passes the next narrower type,
        # in which the first label's scatter and the DP's sums would wrap, some
        # without an error.
        rng = np.random.default_rng(30)
        w, rp = np.array([1.0, 0.9]), RiskParams(0.9, 0.01)
        labels = rng.choice(2, size=n, p=[0.8, 0.2])
        src = ScoreTable(rng.dirichlet(np.ones(2), size=n), labels)
        v = AcceptanceRandomness.draw(n, 31)
        sample = src.subset(rejection_sample(src, v, w, w.max()))
        ref = ps_threshold(sample, rp).tau
        assert np.min_scalar_type(sample.n) == table
        label0_errs = np.count_nonzero((sample.true_scores() < ref) & (sample.labels == 0))
        assert label0_errs > np.iinfo(narrower).max
        tau = psw_threshold(src, v, WeightBox(w, w), rp).tau
        assert float(tau).hex() == float(ref).hex()

    @pytest.mark.parametrize("kind, seed", METAMORPHIC)
    def test_label_order_leaves_tau_unchanged(self, kind, seed):
        # The DP's max-plus combination over labels must not depend on their order.
        src, v, box, rp = metamorphic_instance(kind, seed)
        tau = psw_threshold(src, v, box, rp).tau
        assert math.isfinite(tau)
        rng = np.random.default_rng(seed)
        # With the unpermuted run, the rotations put every label first once, so
        # each label's prefixes build the first table by the scatter.
        rotations = [np.roll(np.arange(src.k), s) for s in range(1, src.k)]
        for perm in [np.arange(src.k)[::-1], rng.permutation(src.k), *rotations]:
            # New label j is old label perm[j]; each row keeps its true-label score.
            src_p = ScoreTable(src.scores[:, perm], np.argsort(perm)[src.labels])
            box_p = WeightBox(box.lo[perm], box.hi[perm])
            assert float(psw_threshold(src_p, v, box_p, rp).tau).hex() == float(tau).hex()

    @pytest.mark.parametrize("seed", [0, 1])
    def test_doubled_scores_double_tau(self, seed):
        # Doubling is exact and keeps the order, so every probe decides alike.
        src, v, box, rp = severe_instance(3000, seed)
        tau = psw_threshold(src, v, box, rp).tau
        assert math.isfinite(tau)
        doubled = ScoreTable(2 * src.scores, src.labels)
        assert float(psw_threshold(doubled, v, box, rp).tau).hex() == float(2 * tau).hex()

    @pytest.mark.parametrize("seed", [0, 1])
    def test_never_above_ps_at_weights_inside_the_box(self, seed):
        # Every w in the box gives one of the patterns PS-W minimises over.
        src, v, box, rp = severe_instance(3000, seed)
        tau = psw_threshold(src, v, box, rp).tau
        rng = np.random.default_rng(seed)
        for _ in range(20):
            w = rng.uniform(box.lo, box.hi)
            sample = src.subset(rejection_sample(src, v, w, box.envelope_b))
            assert tau <= ps_threshold(sample, rp).tau

    @pytest.mark.parametrize("kind, seed", METAMORPHIC)
    def test_box_inside_with_the_same_envelope_never_lowers_tau(self, kind, seed):
        # The inner box's patterns are a subset of the outer box's at one b.
        src, v, box, rp = metamorphic_instance(kind, seed)
        tau = psw_threshold(src, v, box, rp).tau
        assert math.isfinite(tau)
        rng = np.random.default_rng(seed)
        top = np.argmax(box.hi)
        for _ in range(3):
            lo = rng.uniform(box.lo, box.hi)
            hi = rng.uniform(lo, box.hi)
            hi[top] = box.hi[top]
            inner = WeightBox(lo, hi)
            assert inner.envelope_b == box.envelope_b
            assert psw_threshold(src, v, inner, rp).tau >= tau

    @pytest.mark.parametrize("g", [np.sqrt, lambda x: x + 0.5], ids=["sqrt", "plus-half"])
    @pytest.mark.parametrize("kind, seed", METAMORPHIC)
    def test_increasing_transform_maps_tau(self, kind, seed, g):
        # Correctly rounded, g never reverses two scores, but it could tie two
        # close ones; the first assertion rules that out.
        src, v, box, rp = metamorphic_instance(kind, seed)
        tau = psw_threshold(src, v, box, rp).tau
        assert math.isfinite(tau)
        g_src = ScoreTable(g(src.scores), src.labels)
        s, gs = src.true_scores(), g_src.true_scores()
        order = np.argsort(s, kind="stable")
        assert np.all(np.diff(gs[order])[np.diff(s[order]) > 0] > 0)
        g_tau = gs[s == tau][0]
        assert float(psw_threshold(g_src, v, box, rp).tau).hex() == float(g_tau).hex()

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

    def test_matches_ps_oracle_at_eps_over_b(self):
        # Half the boxes have b below 1, where eps / b may pass 1 and is capped.
        rng = np.random.default_rng(43)
        for b in np.concatenate([rng.uniform(0.3, 0.95, 20), rng.uniform(1.05, 3.0, 20)]):
            src, _, _, rp = random_instance(rng, m=int(rng.integers(5, 200)))
            hi = rng.permutation([b, b * rng.uniform(0.1, 1.0)])
            box = WeightBox(hi * rng.uniform(-0.2, 1.0, size=2), hi)
            assert box.envelope_b == b
            eps = min(rp.epsilon / b, 1 - 1e-15)
            want = ps_oracle(src.true_scores(), RiskParams(eps, rp.delta))
            assert psc_threshold(src, box, rp).tau == want

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

    @pytest.mark.parametrize("w", [[np.nan, 1.0], [np.inf, 1.0]])
    def test_non_finite_weights_rejected(self, w):
        rng = np.random.default_rng(33)
        src, v, _, rp = random_instance(rng)
        with pytest.raises(ValueError, match="must be finite"):
            psr_threshold(src, v, np.array(w), rp)

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

    @pytest.mark.parametrize("w", [[np.nan, 1.0], [np.inf, 1.0], [1.0, -np.inf]])
    def test_non_finite_weights_rejected(self, w):
        rng = np.random.default_rng(36)
        src, _, _, _ = random_instance(rng, m=60)
        with pytest.raises(ValueError, match="weights must be finite"):
            wcp_threshold(src, np.array(w), 0.25)

    @pytest.mark.parametrize("eps", [0.0, 1.0])
    def test_eps_outside_the_open_unit_interval_rejected(self, eps):
        rng = np.random.default_rng(36)
        src, _, _, _ = random_instance(rng, m=60)
        with pytest.raises(ValueError, match=rf"^eps must be in \(0, 1\), got {eps}$"):
            wcp_threshold(src, np.array([1.0, 1.0]), eps)

    @pytest.mark.parametrize("w", [[1.0], [1.0, 1.0, 1.0], [[1.0, 1.0]]])
    def test_weights_need_one_entry_per_label(self, w):
        # Unchecked, a longer vector would be used silently and a shorter one raise IndexError.
        rng = np.random.default_rng(36)
        src, _, _, _ = random_instance(rng, m=60)
        with pytest.raises(ValueError, match="one weight per label"):
            wcp_threshold(src, np.array(w), 0.25)

    def test_negative_weights_count_as_zero(self):
        # As in rejection_sample and psr_threshold: a negative weight never counts.
        rng = np.random.default_rng(36)
        src, _, _, _ = random_instance(rng, m=200)
        for eps in (0.1, 0.25, 0.5):
            neg = wcp_threshold(src, np.array([-0.4, 1.0]), eps)
            assert neg.tau == wcp_threshold(src, np.array([0.0, 1.0]), eps).tau
        with pytest.raises(ValueError, match="no source row has a positive weight"):
            wcp_threshold(src, np.array([-1.0, -2.0]), 0.25)

    def test_positive_weight_only_on_a_label_absent_from_the_source(self):
        src = ScoreTable(scores=np.array([[0.7, 0.3], [0.4, 0.6]]), labels=np.array([0, 0]))
        with pytest.raises(ValueError, match="no source row has a positive weight"):
            wcp_threshold(src, np.array([0.0, 1.0]), 0.25)

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
        err, size = evaluate_set(ThresholdResult(-math.inf), test)
        assert err == 0.0 and size == 2.0

    def test_aborted_degrades_to_full_set(self):
        rng = np.random.default_rng(39)
        test, _, _, _ = random_instance(rng, m=30)
        assert evaluate_set(ThresholdResult(math.nan), test) == (0.0, 2.0)

    def test_tau_above_max_score(self):
        rng = np.random.default_rng(40)
        test, _, _, _ = random_instance(rng, m=30)
        res = ThresholdResult(tau=1.1, status=CALIBRATED)
        err, size = evaluate_set(res, test)
        assert err == 1.0 and size == 0.0

    def test_scores_at_tau_are_in_the_set(self):
        # Row 0's true-label score is tau, so it is covered; row 1's other
        # label scores tau, so that label is in its set.
        test = ScoreTable(scores=np.array([[0.25, 0.75], [0.75, 0.25], [0.1, 0.9]]),
                          labels=np.array([0, 0, 1]))
        err, size = evaluate_set(ThresholdResult(tau=0.25), test)
        assert err == 0.0 and size == 5 / 3

    def test_recount_oracle(self):
        rng = np.random.default_rng(41)
        test, _, _, _ = random_instance(rng, m=200)
        res = ThresholdResult(tau=0.45, status=CALIBRATED)
        err, size = evaluate_set(res, test)
        exp_err = np.mean([test.scores[i, test.labels[i]] < 0.45 for i in range(test.n)])
        exp_size = np.mean([(test.scores[i] >= 0.45).sum() for i in range(test.n)])
        assert err == pytest.approx(exp_err)
        assert size == pytest.approx(exp_size)

    @pytest.mark.parametrize("tau", [0.45, -math.inf, math.nan])
    def test_empty_table_rejected(self, tau):
        # Error and size are means over rows, so a table with no rows has neither.
        empty = ScoreTable(scores=np.empty((0, 2)), labels=np.empty(0, dtype=int))
        with pytest.raises(ValueError, match="no rows"):
            evaluate_set(ThresholdResult(tau), empty)


class TestThresholdResult:
    def test_full_set_invariant(self):
        with pytest.raises(ValueError):
            ThresholdResult(tau=-math.inf, status=CALIBRATED)
        with pytest.raises(ValueError):
            ThresholdResult(tau=0.5, status=FULL_SET)

    @pytest.mark.parametrize(
        "tau, status", [(0.3, CALIBRATED), (-1e300, CALIBRATED), (-math.inf, FULL_SET),
                        (math.nan, ABORTED)]
    )
    def test_status_follows_tau(self, tau, status):
        assert ThresholdResult(tau).status == status
        assert ThresholdResult(tau=tau, status=status).status == status

    @pytest.mark.parametrize(
        "tau, status", [(math.nan, CALIBRATED), (math.nan, FULL_SET), (0.3, ABORTED),
                        (0.3, "bogus"), (-math.inf, ABORTED), (math.inf, None),
                        (math.inf, CALIBRATED)]
    )
    def test_contradicting_status_or_plus_inf_raises(self, tau, status):
        with pytest.raises(ValueError):
            ThresholdResult(tau=tau, status=status)

    def test_status_cannot_be_set(self):
        res = ThresholdResult(0.3)
        with pytest.raises(AttributeError):
            res.status = ABORTED
