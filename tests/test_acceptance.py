"""End-to-end acceptance suite.

Each test prints a single PASS/FAIL line for its criterion:

1. Binomial machinery vs extended-precision oracles.
2. Interval elimination containment on a large random battery.
3. Worst-case calibrator vs exhaustive brute force.
4. Guarantee under a severe three-class shift (validity).
5. The same run: worst-case beats the conservative baseline on size.
6. The failure-probability budget is fully accounted for.
"""

import json
import math
import time

import numpy as np
import pytest

from pacshift import (
    AcceptanceRandomness,
    Aborted,
    Interval,
    RiskParams,
    ScoreTable,
    ShiftSpec,
    SyntheticModel,
    WeightBox,
    aggregate,
    binom_cdf,
    binom_k,
    cp_interval,
    delta_split,
    interval_gauss_elim,
    psw_threshold,
    run_trials,
    sample_shifted,
    tweak_one,
)
from pacshift import cli, harness, weights
from pacshift.cli import write_scores

from oracles import binom_cdf_oracle, exact, psw_brute_force


def report(capsys, name, ok, detail=""):
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f"  ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def test_criterion_1_binomial_tails(capsys):
    start = time.monotonic()
    rng = np.random.default_rng(100)
    worst = 0.0
    for _ in range(500):
        m = int(rng.integers(1, 10_001))
        k = int(rng.integers(0, m + 1))
        eps = float(rng.uniform(1e-4, 1 - 1e-4))
        worst = max(worst, abs(binom_cdf(k, m, eps) - binom_cdf_oracle(k, m, eps)))
    cdf_ok = worst <= 1e-10

    sandwich_ok = True
    for _ in range(200):
        m = int(rng.integers(1, 5000))
        rp = RiskParams(
            epsilon=float(rng.uniform(0.01, 0.5)), delta=float(rng.uniform(1e-6, 0.2))
        )
        k = binom_k(m, rp)
        if k == -1:
            sandwich_ok &= binom_cdf(0, m, rp.epsilon) > rp.delta
        else:
            sandwich_ok &= binom_cdf(k, m, rp.epsilon) <= rp.delta
            if k < m:
                sandwich_ok &= binom_cdf(k + 1, m, rp.epsilon) > rp.delta

    level, n, trials, p_true = 0.1, 300, 5000, 0.25
    xs = rng.binomial(n, p_true, size=trials)
    iv = cp_interval(xs, n, level)
    hits = np.count_nonzero((iv.lo <= p_true) & (p_true <= iv.hi))
    sigma = math.sqrt(level * (1 - level) / trials)
    cov_ok = hits / trials >= (1 - level) - 3 * sigma

    elapsed = time.monotonic() - start
    ok = cdf_ok and sandwich_ok and cov_ok and elapsed < 30
    report(
        capsys,
        "criterion 1: binomial tails vs extended-precision oracles",
        ok,
        f"max cdf err {worst:.1e}, coverage {hits / trials:.4f}, {elapsed:.1f}s",
    )


def test_criterion_2_interval_containment(capsys):
    start = time.monotonic()
    rng = np.random.default_rng(101)
    violations = 0
    solved = 0
    for _ in range(1000):
        k = int(rng.integers(2, 6))
        c = rng.uniform(0.0, 0.08, size=(k, k))
        c[np.diag_indices(k)] = rng.uniform(0.5, 1.0, size=k)
        w = rng.uniform(0.2, 3.0, size=k)
        q = c @ w
        wc = rng.uniform(0.0, 0.03, size=c.shape)
        wq = rng.uniform(0.0, 0.03, size=q.shape)
        cm = Interval(np.maximum(c - wc, 0.0), c + wc)
        qv = Interval(np.maximum(q - wq, 1e-9), q + wq)
        box = interval_gauss_elim(cm, qv)
        if isinstance(box, Aborted):
            continue
        solved += 1
        cs = rng.uniform(cm.lo[None], cm.hi[None], size=(100, k, k))
        qs = rng.uniform(qv.lo[None], qv.hi[None], size=(100, k))
        ws = np.linalg.solve(cs, qs[:, :, None])[:, :, 0]
        violations += int(
            np.count_nonzero(
                np.any((ws < box.lo - 1e-9) | (ws > box.hi + 1e-9), axis=1)
            )
        )

    degen_err = 0.0
    for _ in range(100):
        k = int(rng.integers(2, 6))
        c = rng.uniform(0.0, 0.08, size=(k, k))
        c[np.diag_indices(k)] = rng.uniform(0.5, 1.0, size=k)
        w = rng.uniform(0.2, 3.0, size=k)
        box = interval_gauss_elim(exact(c), exact(c @ w))
        assert isinstance(box, WeightBox)
        degen_err = max(degen_err, float(np.max(np.abs(box.lo - w))),
                        float(np.max(np.abs(box.hi - w))))

    elapsed = time.monotonic() - start
    ok = violations == 0 and solved >= 500 and degen_err <= 1e-8 and elapsed < 60
    report(
        capsys,
        "criterion 2: interval elimination containment",
        ok,
        f"{solved} boxes, {violations} violations, degen err {degen_err:.1e}, {elapsed:.1f}s",
    )


def test_criterion_3_worst_case_vs_brute_force(capsys):
    start = time.monotonic()
    rng = np.random.default_rng(102)
    mismatches = 0
    for _ in range(200):
        m = int(rng.integers(4, 21))
        scores = rng.dirichlet(np.ones(2), size=m)
        labels = rng.integers(0, 2, size=m)
        src = ScoreTable(scores=scores, labels=labels)
        v = AcceptanceRandomness(v=rng.uniform(size=m))
        lo = rng.uniform(-0.3, 0.6, size=2)
        box = WeightBox(lo, lo + rng.uniform(0.3, 1.5, size=2))
        rp = RiskParams(
            epsilon=float(rng.uniform(0.2, 0.6)), delta=float(rng.uniform(0.3, 0.8))
        )
        res = psw_threshold(src, v, box, rp)
        if res.tau != psw_brute_force(src, v, box, rp):
            mismatches += 1
    elapsed = time.monotonic() - start
    ok = mismatches == 0 and elapsed < 60
    report(
        capsys,
        "criterion 3: worst-case calibrator equals brute force (200 instances)",
        ok,
        f"{mismatches} mismatches, {elapsed:.1f}s",
    )


EPS, DELTA = 0.1, 5e-4


@pytest.fixture(scope="module")
def severe_shift_run():
    """Shared 100-trial run for criteria 4 and 5.

    Three classes: two tight easy classes at +/-6 and a wide hard class at
    the origin (noise 36), with the target shifted heavily onto the hard
    class.  The plug-in method additionally gets a small unlabeled target
    sample (n=500), where its weight noise is large enough to bite.
    """
    model = SyntheticModel(
        class_centers=[[-6.0], [6.0], [0.0]],
        noise_scale=[1.0, 1.0, 36.0],
        temperature=430.0,
    )
    source = np.array([0.2, 0.2, 0.6])
    target = tweak_one(3, 0.9, tweaked=2)
    rp = RiskParams(epsilon=EPS, delta=DELTA)

    spec_big = ShiftSpec(source, target, 5000, 5000, 5000)
    main = run_trials(spec_big, model, ["PS", "PS-W", "PS-C", "ORACLE"], rp,
                      trials=100, seed=7)
    spec_small_n = ShiftSpec(source, target, 5000, 500, 5000)
    small = run_trials(spec_small_n, model, ["PS-R"], rp, trials=100, seed=7)
    return main + small


def test_criterion_4_validity_under_severe_shift(capsys, severe_shift_run):
    summary = aggregate(severe_shift_run, EPS)
    psw_ok = summary["PS-W"]["violations"] == 0 and summary["PS-W"]["aborts"] == 0
    psc_ok = summary["PS-C"]["violations"] == 0
    ps_bad = summary["PS"]["violations"]
    psr_bad = summary["PS-R"]["violations"]
    ok = psw_ok and psc_ok and ps_bad >= 30 and psr_bad >= 10
    report(
        capsys,
        "criterion 4: validity under severe shift (100 trials)",
        ok,
        f"violations PS-W=0 PS-C=0 required; got PS-W={summary['PS-W']['violations']}"
        f" PS-C={summary['PS-C']['violations']} PS={ps_bad}(>=30) PS-R={psr_bad}(>=10)",
    )


def test_criterion_5_efficiency_under_severe_shift(capsys, severe_shift_run):
    by = {}
    for r in severe_shift_run:
        by.setdefault(r.method, {})[r.trial] = r.avg_size
    w_beats_c = sum(by["PS-W"][t] < by["PS-C"][t] for t in range(100))
    oracle_le_w = sum(by["ORACLE"][t] <= by["PS-W"][t] for t in range(100))
    ok = w_beats_c >= 90 and oracle_le_w >= 90
    report(
        capsys,
        "criterion 5: worst-case tighter than conservative, bounded by oracle",
        ok,
        f"PS-W < PS-C in {w_beats_c}/100 (>=90), ORACLE <= PS-W in {oracle_le_w}/100 (>=90)",
    )


class LedgerSpy:
    """Records the failure levels the library spends while installed.

    Wraps ``pacshift.weights.cp_interval`` (each entry's CP level) and
    ``psw_threshold`` in the given module (the calibration delta).
    """

    def __init__(self, monkeypatch, psw_module):
        self.levels = []  # (level, number of entries) per cp_interval call
        self.psw_deltas = []
        cp, psw = weights.cp_interval, getattr(psw_module, "psw_threshold")

        def spy_cp(successes, trials, level):
            self.levels.append((level, np.broadcast(successes, trials, level).size))
            return cp(successes, trials, level)

        def spy_psw(src, v, box, rp):
            self.psw_deltas.append(rp.delta)
            return psw(src, v, box, rp)

        monkeypatch.setattr(weights, "cp_interval", spy_cp)
        monkeypatch.setattr(psw_module, "psw_threshold", spy_psw)

    def interval_total(self) -> float:
        return math.fsum(level * count for level, count in self.levels)


def ledger_data(K: int, m: int = 300):
    spec = ShiftSpec(np.full(K, 1.0 / K), tweak_one(K, 0.5), m, m, m)
    model = SyntheticModel(8.0 * np.arange(K, dtype=float)[:, None], 1.0, 8.0)
    return spec, model


def test_criterion_6_delta_budget_audit(capsys, monkeypatch, tmp_path):
    pairs = [(2, 0.1), (3, 5e-4), (4, 1e-2), (10, 1e-6), (7, 0.25)]
    worst = 0.0
    for K, delta in pairs:
        box_budget, calib = delta_split(K, delta)
        per_interval = box_budget / (K * (K + 1))
        total = per_interval * K * (K + 1) + calib
        worst = max(worst, abs(total - delta))

    # The levels the code spends: CP levels inside weight_box and the delta
    # that run_trials hands to PS-W, then the same for a calibrate report.
    spent_worst = 0.0
    for K, delta in pairs:
        spec, model = ledger_data(K)
        with monkeypatch.context() as mp:
            spy = LedgerSpy(mp, harness)
            run_trials(spec, model, ["PS-W"], RiskParams(0.1, delta), trials=1, seed=K)
        assert len(spy.levels) == 2  # cp_bounds: one call for conf, one for qh
        assert sum(count for _, count in spy.levels) == K * (K + 1)
        assert len(spy.psw_deltas) == 1
        spent_worst = max(spent_worst, abs(spy.interval_total() + spy.psw_deltas[0] - delta))

        src, tgt, _ = sample_shifted(spec, model, K)
        paths = [str(tmp_path / name) for name in ("src.csv", "tgt.csv", "report.json")]
        write_scores(paths[0], src)
        write_scores(paths[1], tgt)
        with monkeypatch.context() as mp:
            spy = LedgerSpy(mp, cli)
            cli.main(["calibrate", "--epsilon", "0.1", "--delta", repr(delta),
                      "--source", paths[0], "--target", paths[1], "--out", paths[2]])
        with open(paths[2]) as fh:
            rep = json.load(fh)
        assert all(level == rep["per_interval_delta"] for level, _ in spy.levels)
        assert spy.psw_deltas in ([], [rep["calibration_delta"]])
        reported = rep["per_interval_delta"] * K * (K + 1) + rep["calibration_delta"]
        spent = spy.interval_total() + rep["calibration_delta"]
        spent_worst = max(spent_worst, abs(reported - delta), abs(spent - delta))

    ok = worst <= 1e-12 and spent_worst <= 1e-12
    report(
        capsys,
        "criterion 6: failure-probability budget sums to delta",
        ok,
        f"max residual {worst:.2e}, spent by the code {spent_worst:.2e}",
    )
