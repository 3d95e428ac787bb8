"""Tests for the binomial tail machinery.

Oracles are computed independently of the implementation: the summed
mpmath CDF and the exact integer tail inversion of ``tests/oracles.py``, and
bisection against that CDF (or, at levels too small for float quantiles,
the mpmath incomplete beta) for Clopper-Pearson.
The array forms of cp_interval and binom_k must also equal, bit for bit,
the per-entry scalar computations they replaced, and binom_k_range must
equal binom_k over every size of its range.
"""

import math
import re

import mpmath
import numpy as np
import pytest
from scipy import special

from pacshift import RiskParams, binom_cdf, binom_k, binom_k_range, cp_interval, delta_split

from oracles import binom_cdf_oracle, binom_k_oracle, binom_k_walk


def _scalar_cdf(k: int, m: int, eps: float) -> float:
    if k == m or eps == 0.0:
        return 1.0
    if eps == 1.0:
        return 0.0
    return float(special.betainc(m - k, k + 1, 1.0 - eps))


def binom_k_scalar_reference(m: int, rp: RiskParams) -> int:
    """The former scalar inversion: exponential search, then binary search."""
    if m == 0 or _scalar_cdf(0, m, rp.epsilon) > rp.delta:
        return -1
    lo, hi = 0, 1
    while hi < m and _scalar_cdf(hi, m, rp.epsilon) <= rp.delta:
        lo = hi
        hi = min(2 * hi, m)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _scalar_cdf(mid, m, rp.epsilon) <= rp.delta:
            lo = mid
        else:
            hi = mid
    return lo


def cp_bisect_oracle(x: int, n: int, level: float) -> tuple[float, float]:
    """Clopper-Pearson (lo, hi) by bisection on the exact binomial tails."""

    def upper_tail(p):  # P(X >= x)
        return 1.0 - binom_cdf_oracle(x - 1, n, p) if x > 0 else 1.0

    def lower_tail(p):  # P(X <= x)
        return binom_cdf_oracle(x, n, p)

    def bisect(f, target, increasing):
        lo, hi = 0.0, 1.0
        for _ in range(200):
            mid = (lo + hi) / 2
            if mid in (lo, hi):
                # lo and hi are adjacent floats: no later step moves the
                # result, so this is what all 200 steps would return.
                return mid
            if (f(mid) < target) == increasing:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2

    lo = 0.0 if x == 0 else bisect(upper_tail, level / 2, increasing=True)
    hi = 1.0 if x == n else bisect(lower_tail, level / 2, increasing=False)
    return lo, hi


def cp_mp_oracle(x: int, n: int, level: float):
    """Clopper-Pearson (lo, hi) as 60-digit mpmath numbers.

    Each endpoint solves a regularized incomplete beta equation by bisection
    on log p, so it stays exact where float quantiles underflow.
    """
    with mpmath.workdps(60):
        half = mpmath.mpf(level) / 2

        def root(a, b):  # p with I_p(a, b) = half; I_p increases in p
            lo, hi = mpmath.mpf(-2000), mpmath.mpf(0)
            for _ in range(120):
                mid = (lo + hi) / 2
                if mpmath.betainc(a, b, 0, mpmath.exp(mid), regularized=True) < half:
                    lo = mid
                else:
                    hi = mid
            return mpmath.exp(hi)

        # P(X >= x) = I_p(x, n-x+1);  P(X <= x) = I_{1-p}(n-x, x+1).
        return root(x, n - x + 1), 1 - root(n - x, x + 1)


def cp_scalar_reference(x: int, n: int, level: float) -> tuple[float, float]:
    """One entry's beta quantiles, with Python branches for x = 0 and x = n."""
    lo = 0.0 if x == 0 else float(special.betaincinv(x, n - x + 1, level / 2))
    hi = 1.0 if x == n else float(special.betaincinv(x + 1, n - x, 1.0 - level / 2))
    return lo, hi


class TestBinomCdf:
    def test_full_support(self):
        assert binom_cdf(7, 7, 0.3) == 1.0
        assert binom_cdf(12, 12, 0.999) == 1.0

    def test_zero_successes_closed_form(self):
        assert binom_cdf(0, 10, 0.1) == pytest.approx(0.9**10, abs=1e-14)

    def test_eps_edge_cases(self):
        assert binom_cdf(0, 5, 0.0) == 1.0
        assert binom_cdf(3, 5, 1.0) == 0.0

    def test_large_case_matches_direct_summation(self):
        assert binom_cdf(500, 5000, 0.1) == pytest.approx(
            binom_cdf_oracle(500, 5000, 0.1), abs=1e-10
        )

    def test_random_cases_match_direct_summation(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            m = int(rng.integers(1, 2000))
            k = int(rng.integers(0, m + 1))
            eps = float(rng.uniform(0.01, 0.99))
            assert binom_cdf(k, m, eps) == pytest.approx(
                binom_cdf_oracle(k, m, eps), abs=1e-10
            )

    def test_monotone_in_k(self):
        vals = [binom_cdf(k, 40, 0.3) for k in range(41)]
        assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))

    def test_scalar_call_gives_0d_result(self):
        assert binom_cdf(3, 20, 0.1).shape == ()

    def test_broadcasts_like_numpy(self):
        k = np.arange(6).reshape(2, 3)
        eps = np.array([0.1, 0.2, 1.0])
        cdf = binom_cdf(k, 5, eps)
        assert cdf.shape == (2, 3)
        for (i, j), val in np.ndenumerate(cdf):
            assert val == _scalar_cdf(int(k[i, j]), 5, float(eps[j]))

    @pytest.mark.parametrize("bad", [(-1, 10, 0.1), (11, 10, 0.1), (3, 10, -0.5),
                                     (3, 10, 1.5), (3, 10, math.nan), (1.5, 10, 0.1),
                                     (3, 10.5, 0.1), (3, math.inf, 0.1), (math.nan, 10, 0.1)])
    def test_one_bad_entry_raises_like_scalar(self, bad):
        with pytest.raises(ValueError) as scalar:
            binom_cdf(*bad)
        cases = [(5, 20, 0.05)] * 7
        cases[4] = bad
        k, m, eps = (np.array(col) for col in zip(*cases))
        with pytest.raises(ValueError, match=f"^{re.escape(str(scalar.value))}$"):
            binom_cdf(k, m, eps)

    @pytest.mark.parametrize("m", [100_000, 1_000_000])
    def test_large_m_matches_extended_precision(self, m):
        rng = np.random.default_rng(m)
        ks, epss = [], []
        for _ in range(20):
            eps = float(10 ** rng.uniform(-3, math.log10(0.5)))
            sd = math.sqrt(m * eps * (1 - eps))
            # From deep in the lower tail to just above the mean.
            ks.append(int(np.clip(round(m * eps + rng.uniform(-8, 2) * sd), 0, m)))
            epss.append(eps)
        got = binom_cdf(np.array(ks), m, np.array(epss))
        want = np.array([binom_cdf_oracle(k, m, e) for k, e in zip(ks, epss)])
        assert np.max(np.abs(got - want)) <= 1e-12


def _table_levels():
    # Calibration levels of the severe-shift benchmark (K=3), the K=100 CLI
    # benchmark and tests/test_golden.py, delta / (K(K+1) + 1), then random.
    levels = [(0.1, 5e-4 / 13), (0.1, 5e-4 / 10101), (0.1, 0.05 / 13)]
    rng = np.random.default_rng(6)
    for _ in range(3):
        levels.append((float(rng.uniform(0.005, 0.5)), float(10 ** rng.uniform(-9, -0.7))))
    return levels


TABLE_LEVELS = _table_levels()


class TestBinomK:
    def test_trivial_half(self):
        assert binom_k(1, RiskParams(epsilon=0.5, delta=0.6)) == 0

    def test_exact_tie_counts_as_within_delta(self):
        # At eps = delta = 0.5, F((m - 1) / 2) is exactly 0.5 for odd m, and
        # betainc returns 0.5 at m = 1 and 3.
        rp = RiskParams(epsilon=0.5, delta=0.5)
        for m in (1, 3):
            assert binom_cdf((m - 1) // 2, m, 0.5) == 0.5
            assert binom_k(m, rp) == (m - 1) // 2
        # Elsewhere betainc may round a tie up, which only lowers k.
        for m in range(61):
            assert binom_k(m, rp) <= binom_k_oracle(m, rp)

    def test_oracle_decides_exact_ties(self):
        # By symmetry F((m - 1) // 2) is 0.5 at odd m and below it at even m,
        # and F at the next k is above 0.5.
        rp = RiskParams(epsilon=0.5, delta=0.5)
        assert [binom_k_oracle(m, rp) for m in range(61)] == [(m - 1) // 2 for m in range(61)]

    @pytest.mark.parametrize("eps, delta, n_max", [(0.5, 0.5, 61)] + [
        (eps, delta, 400) for eps, delta in TABLE_LEVELS[:3]
    ])
    def test_oracle_walk_equals_scalar_oracle(self, eps, delta, n_max):
        # The two exact oracles, one N at a time and walking over N.  At
        # eps = delta = 0.5 every odd N is an exact tie.
        rp = RiskParams(epsilon=eps, delta=delta)
        assert binom_k_walk(n_max, rp) == [binom_k_oracle(n, rp) for n in range(n_max + 1)]

    def test_no_feasible_k(self):
        assert binom_k(10, RiskParams(epsilon=0.01, delta=1e-10)) == -1

    def test_empty_sample(self):
        assert binom_k(0, RiskParams(epsilon=0.1, delta=0.5)) == -1

    def test_reference_case_matches_scan(self):
        rp = RiskParams(epsilon=0.1, delta=5e-4)
        assert binom_k(5000, rp) == binom_k_oracle(5000, rp)

    def test_sandwich_property_random(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            m = int(rng.integers(1, 3000))
            rp = RiskParams(
                epsilon=float(rng.uniform(0.01, 0.5)),
                delta=float(rng.uniform(1e-6, 0.2)),
            )
            k = binom_k(m, rp)
            if k == -1:
                assert binom_cdf(0, m, rp.epsilon) > rp.delta
            else:
                assert binom_cdf(k, m, rp.epsilon) <= rp.delta
                if k < m:
                    assert binom_cdf(k + 1, m, rp.epsilon) > rp.delta

    def test_monotone_in_delta(self):
        rp_tight = RiskParams(epsilon=0.1, delta=1e-4)
        rp_loose = RiskParams(epsilon=0.1, delta=1e-2)
        assert binom_k(2000, rp_tight) <= binom_k(2000, rp_loose)

    def test_scalar_call_gives_0d_result(self):
        k = binom_k(5000, RiskParams(epsilon=0.1, delta=5e-4))
        assert k.shape == ()

    @pytest.mark.parametrize("K, n0", [(2, 91), (3, 97), (4, 102), (10, 117), (13, 122),
                                       (30, 138), (100, 160)])
    def test_least_size_with_a_threshold(self, K, n0):
        # k(N) >= 0 iff 0.9^N <= delta: PS-W's full set iff its lower corner has < N0 rows.
        calib = delta_split(K, 5e-4)[1]
        assert n0 == math.ceil(math.log(calib) / math.log(0.9))
        k = binom_k(np.arange(n0 + 1), RiskParams(epsilon=0.1, delta=calib))
        assert np.flatnonzero(k >= 0)[0] == n0

    def test_negative_m_raises(self):
        # Fractional, NaN and infinite sizes too: the int cast would wrap or truncate them.
        for bad in (-1, 10.7, math.nan, math.inf):
            with pytest.raises(ValueError, match="m must be nonnegative"):
                binom_k(np.array([3, bad, 5]), RiskParams(epsilon=0.1, delta=0.1))
            with pytest.raises(ValueError, match="m must be nonnegative"):
                binom_k(bad, RiskParams(epsilon=0.1, delta=0.1))

    @pytest.mark.parametrize("eps, delta", TABLE_LEVELS)
    def test_table_equals_scalar_search(self, eps, delta):
        rp = RiskParams(epsilon=eps, delta=delta)
        table = binom_k(np.arange(20_001), rp)
        reference = [binom_k_scalar_reference(n, rp) for n in range(20_001)]
        np.testing.assert_array_equal(table, reference)
        np.testing.assert_array_equal(binom_k_range(0, 20_000, rp), reference)
        # Ranges that start and end anywhere, k(n_lo) = -1 or not.
        rng = np.random.default_rng(round(1e6 * eps))
        for n_lo, n_max in np.sort(rng.integers(0, 20_001, size=(20, 2)), axis=1).tolist():
            np.testing.assert_array_equal(
                binom_k_range(n_lo, n_max, rp), reference[n_lo : n_max + 1]
            )

    @pytest.mark.parametrize("eps, delta", TABLE_LEVELS)
    def test_table_steps_by_0_or_1_to_1e5(self, eps, delta):
        # One more sample raises the admissible error count by at most one;
        # binom_k_range and an error-indexed PS-W rely on this.
        rp = RiskParams(epsilon=eps, delta=delta)
        k = binom_k(np.arange(100_001), rp)
        assert np.isin(np.diff(k), [0, 1]).all()
        np.testing.assert_array_equal(binom_k_range(0, 100_000, rp), k)

    def test_sandwich_on_table_to_1e5(self):
        rp = RiskParams(epsilon=0.1, delta=5e-4 / 13)
        m = np.arange(100_001)
        k = binom_k_range(0, 100_000, rp)
        np.testing.assert_array_equal(k, binom_k(m, rp))
        none = k < 0
        assert np.all(binom_cdf(0, m[none], rp.epsilon) > rp.delta)
        assert np.all(binom_cdf(k[~none], m[~none], rp.epsilon) <= rp.delta)
        below_m = k < m
        assert np.all(binom_cdf(k[below_m] + 1, m[below_m], rp.epsilon) > rp.delta)

    @pytest.mark.parametrize("eps, delta, n_lo, n_max", [
        (0.1, 5e-4 / 13, 5000, 5000),  # one size
        (0.1, 5e-4 / 13, 0, 0),  # one size, k = -1
        (0.1, 5e-4 / 13, 0, 400),  # from 0
        (0.1, 5e-4 / 13, 96, 97),  # k(n_lo) = -1, k(n_max) = 0: N0 = 97 at K = 3
        (0.1, 5e-4 / 13, 96, 3000),  # k(n_lo) = -1, k(n_max) >= 0
        (0.1, 5e-4 / 13, 10, 96),  # k = -1 throughout
        (0.1, 5e-4 / 13, 1000, 1011),  # k(n_lo) = k(n_max) = 64, one size below a step
        (0.5, 0.5, 0, 61),  # every odd N an exact tie
        (0.5, 0.5, 35, 35),
        (0.5, 0.5, 34, 40),  # binom_k is one below the exact k at 35 and 39
    ])
    def test_range_edges_equal_binom_k(self, eps, delta, n_lo, n_max):
        rp = RiskParams(epsilon=eps, delta=delta)
        table = binom_k_range(n_lo, n_max, rp)
        np.testing.assert_array_equal(table, binom_k(np.arange(n_lo, n_max + 1), rp))
        assert table.shape == (n_max - n_lo + 1,)

    def test_range_edge_cases_are_the_named_ones(self):
        rp = RiskParams(epsilon=0.1, delta=5e-4 / 13)
        assert (binom_k(96, rp), binom_k(97, rp)) == (-1, 0)
        assert binom_k(1000, rp) == binom_k(1011, rp) == binom_k(1012, rp) - 1 == 64
        # At the ties eps = delta = 0.5, m = 35 and 39, betainc rounds F above 0.5:
        # the range follows binom_k there, not the exact oracle.
        half = RiskParams(epsilon=0.5, delta=0.5)
        for m in (35, 39):
            assert binom_k(m, half) == binom_k_oracle(m, half) - 1
            assert binom_k_range(34, 40, half)[m - 34] == binom_k(m, half)

    @pytest.mark.parametrize("n_lo, n_max", [(-1, 5), (6, 5), (2.0, 5), (0, 5.0), (True, 5),
                                             (0, np.array([5]))])
    def test_range_needs_integers_in_order(self, n_lo, n_max):
        with pytest.raises(ValueError, match="need integers 0 <= n_lo <= n_max"):
            binom_k_range(n_lo, n_max, RiskParams(epsilon=0.1, delta=0.1))


class TestCpInterval:
    def test_x_zero_closed_form(self):
        iv = cp_interval(0, 10, 0.1)
        assert iv.lo == 0.0
        assert iv.hi == pytest.approx(1 - 0.05 ** (1 / 10), abs=1e-12)

    def test_x_n_closed_form(self):
        iv = cp_interval(10, 10, 0.1)
        assert iv.lo == pytest.approx(0.05 ** (1 / 10), abs=1e-12)
        assert iv.hi == 1.0

    def test_reference_case_matches_bisection(self):
        iv = cp_interval(3, 20, 0.05)
        lo, hi = cp_bisect_oracle(3, 20, 0.05)
        assert iv.lo == pytest.approx(lo, abs=1e-10)
        assert iv.hi == pytest.approx(hi, abs=1e-10)

    def test_random_cases_match_bisection(self):
        rng = np.random.default_rng(2)
        cases = []
        for _ in range(20):
            n = int(rng.integers(1, 500))
            x = int(rng.integers(0, n + 1))
            cases.append((x, n, float(rng.uniform(1e-5, 0.2))))
        iv = cp_interval(*(np.array(col) for col in zip(*cases)))
        for i, case in enumerate(cases):
            lo, hi = cp_bisect_oracle(*case)
            assert iv.lo[i] == pytest.approx(lo, abs=1e-9)
            assert iv.hi[i] == pytest.approx(hi, abs=1e-9)

    def test_nesting_in_level(self):
        wide = cp_interval(7, 40, 1e-4)
        narrow = cp_interval(7, 40, 0.1)
        assert wide.lo <= narrow.lo and narrow.hi <= wide.hi

    def test_monte_carlo_coverage(self):
        rng = np.random.default_rng(3)
        level, n, trials = 0.1, 200, 4000
        p_true = 0.3
        xs = rng.binomial(n, p_true, size=trials)
        iv = cp_interval(xs, n, level)
        hits = np.count_nonzero((iv.lo <= p_true) & (p_true <= iv.hi))
        target = 1 - level
        sigma = math.sqrt(level * (1 - level) / trials)
        assert hits / trials >= target - 3 * sigma

    def test_contains_and_width(self):
        iv = cp_interval(5, 20, 0.1)
        assert iv.lo < 5 / 20 < iv.hi

    @pytest.mark.parametrize("x,n,level", [(5, 300, 1e-200), (2, 5000, 1e-190),
                                           (3, 20000, 1e-160)])
    def test_contains_extended_precision_endpoints_at_tiny_levels(self, x, n, level):
        # betaincinv returns NaN for lo here; the trivial bound must stand in.
        iv = cp_interval(x, n, level)
        lo, hi = cp_mp_oracle(x, n, level)
        assert 0.0 <= iv.lo <= lo and hi <= iv.hi <= 1.0

    def test_scalar_call_gives_0d_endpoints(self):
        iv = cp_interval(3, 20, 0.05)
        assert iv.lo.shape == iv.hi.shape == ()

    def test_broadcasts_like_numpy(self):
        iv = cp_interval(np.arange(6).reshape(2, 3), 10, np.array([0.01, 0.05, 0.1]))
        assert iv.lo.shape == iv.hi.shape == (2, 3)
        assert iv.lo[1, 2] == cp_interval(5, 10, 0.1).lo

    def test_array_equals_scalar_calls_bitwise(self):
        rng = np.random.default_rng(4)
        n = np.concatenate([[1, 1, 1, 1], rng.integers(1, 30000, size=300)])
        x = np.concatenate([[0, 1, 0, 1], rng.integers(0, n[4:] + 1)])
        x[4:40] = 0  # lo = 0 closed form
        x[40:80] = n[40:80]  # hi = 1 closed form
        level = np.concatenate([[1e-6, 1e-6, 0.5, 0.5], 10 ** rng.uniform(-9, -0.5, size=300)])
        iv = cp_interval(x, n, level)
        entries = list(zip(x.tolist(), n.tolist(), level.tolist()))
        scalar = [cp_interval(*e) for e in entries]
        reference = np.array([cp_scalar_reference(*e) for e in entries])
        for got, calls, ref in ((iv.lo, [s.lo for s in scalar], reference[:, 0]),
                                (iv.hi, [s.hi for s in scalar], reference[:, 1])):
            np.testing.assert_array_equal(got.view(np.uint64), np.array(calls).view(np.uint64))
            np.testing.assert_array_equal(got.view(np.uint64), ref.view(np.uint64))

    @pytest.mark.parametrize("bad", [(3, 0, 0.1), (-1, 10, 0.1), (11, 10, 0.1),
                                     (3, 10, 0.0), (3, 10, 1.0), (3, 10, math.nan),
                                     (1.5, 10, 0.05), (1, 10.5, 0.05), (3, math.inf, 0.1),
                                     (math.nan, 10, 0.1)])
    def test_one_bad_entry_raises_like_scalar(self, bad):
        with pytest.raises(ValueError) as scalar:
            cp_interval(*bad)
        cases = [(5, 20, 0.05)] * 7
        cases[4] = bad
        x, n, level = (np.array(col) for col in zip(*cases))
        with pytest.raises(ValueError, match=f"^{re.escape(str(scalar.value))}$"):
            cp_interval(x, n, level)


class TestRiskParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            RiskParams(epsilon=0.0, delta=0.1)
        with pytest.raises(ValueError):
            RiskParams(epsilon=0.1, delta=1.0)

    @pytest.mark.parametrize("bad", [np.array([0.5]), np.array([0.5, 0.5]), np.array(0.5),
                                     "0.5", True, np.True_, None])
    def test_budget_must_be_a_real_scalar(self, bad):
        # Unchecked, a 1-element array was stored as epsilon, a 2-element one
        # raised NumPy's "truth value ... is ambiguous" and a string a TypeError.
        with pytest.raises(ValueError, match="epsilon must be a real number, got"):
            RiskParams(epsilon=bad, delta=0.1)
        with pytest.raises(ValueError, match="delta must be a real number, got"):
            RiskParams(epsilon=0.1, delta=bad)

    @pytest.mark.parametrize("ok", [0.25, np.float64(0.25), np.float32(0.25), np.float16(0.25)])
    def test_python_and_numpy_real_scalars_pass(self, ok):
        assert RiskParams(epsilon=ok, delta=ok).epsilon == 0.25
