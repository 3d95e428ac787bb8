"""Tests for the binomial tail machinery.

Oracles are computed independently of the implementation: direct
extended-precision summation (mpmath) for the CDF, a linear scan for the
tail inversion, and bisection against the summed CDF for Clopper-Pearson.
The array forms of cp_interval and binom_k must also equal, bit for bit,
the per-entry scalar computations they replaced.
"""

import math
import re

import mpmath
import numpy as np
import pytest
from scipy import special

from pacshift import RiskParams, binom_cdf, binom_k, cp_interval


def cdf_oracle(k: int, m: int, eps: float) -> float:
    """Direct summation of the binomial CDF at 60 significant digits."""
    with mpmath.workdps(60):
        e = mpmath.mpf(eps)
        total = mpmath.mpf(0)
        for i in range(k + 1):
            total += mpmath.binomial(m, i) * e**i * (1 - e) ** (m - i)
        return float(total)


def binom_k_scan_oracle(m: int, rp: RiskParams):
    """Largest k with F(k) <= delta by linear scan, using the summed CDF.

    F(k) is a running sum at 60 significant digits whose terms follow
    t_{k+1} = t_k (m-k)/(k+1) e/(1-e), so the scan is linear in k.
    """
    best = None
    with mpmath.workdps(60):
        e = mpmath.mpf(rp.epsilon)
        ratio = e / (1 - e)
        term = (1 - e) ** m
        total = term
        for k in range(m + 1):
            if float(total) <= rp.delta:
                best = k
            else:
                break
            term *= ratio * (m - k) / (k + 1)
            total += term
    return best


def tail_cdf_oracle(k: int, m: int, eps: float) -> float:
    """F(k) at 50 digits, summing P(X = i) downward from i = k.

    Terms follow t_{i-1} = t_i * i / (m - i + 1) * (1 - e) / e and the sum
    stops once a term is below 1e-30 of the total, so large m stays cheap
    when k is not far above the mean.
    """
    with mpmath.workdps(50):
        e = mpmath.mpf(eps)
        ratio = (1 - e) / e
        term = mpmath.binomial(m, k) * e**k * (1 - e) ** (m - k)
        total = term
        tiny = mpmath.mpf(10) ** -30
        i = k
        while i > 0 and term > total * tiny:
            term *= ratio * i / (m - i + 1)
            total += term
            i -= 1
        return float(total)


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
        return 1.0 - cdf_oracle(x - 1, n, p) if x > 0 else 1.0

    def lower_tail(p):  # P(X <= x)
        return cdf_oracle(x, n, p)

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
            cdf_oracle(500, 5000, 0.1), abs=1e-10
        )

    def test_random_cases_match_direct_summation(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            m = int(rng.integers(1, 2000))
            k = int(rng.integers(0, m + 1))
            eps = float(rng.uniform(0.01, 0.99))
            assert binom_cdf(k, m, eps) == pytest.approx(
                cdf_oracle(k, m, eps), abs=1e-10
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
                                     (3, 10, 1.5), (3, 10, math.nan)])
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
        want = np.array([tail_cdf_oracle(k, m, e) for k, e in zip(ks, epss)])
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

    def test_no_feasible_k(self):
        assert binom_k(10, RiskParams(epsilon=0.01, delta=1e-10)) == -1

    def test_empty_sample(self):
        assert binom_k(0, RiskParams(epsilon=0.1, delta=0.5)) == -1

    def test_reference_case_matches_scan(self):
        rp = RiskParams(epsilon=0.1, delta=5e-4)
        assert binom_k(5000, rp) == binom_k_scan_oracle(5000, rp)

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

    def test_negative_m_raises(self):
        with pytest.raises(ValueError, match="m must be nonnegative"):
            binom_k(np.array([3, -1, 5]), RiskParams(epsilon=0.1, delta=0.1))

    @pytest.mark.parametrize("eps, delta", TABLE_LEVELS)
    def test_table_equals_scalar_search(self, eps, delta):
        rp = RiskParams(epsilon=eps, delta=delta)
        table = binom_k(np.arange(20_001), rp)
        reference = [binom_k_scalar_reference(n, rp) for n in range(20_001)]
        np.testing.assert_array_equal(table, reference)

    def test_sandwich_on_table_to_1e5(self):
        rp = RiskParams(epsilon=0.1, delta=5e-4 / 13)
        m = np.arange(100_001)
        k = binom_k(m, rp)
        none = k < 0
        assert np.all(binom_cdf(0, m[none], rp.epsilon) > rp.delta)
        assert np.all(binom_cdf(k[~none], m[~none], rp.epsilon) <= rp.delta)
        below_m = k < m
        assert np.all(binom_cdf(k[below_m] + 1, m[below_m], rp.epsilon) > rp.delta)


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
                                     (3, 10, 0.0), (3, 10, 1.0), (3, 10, math.nan)])
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
