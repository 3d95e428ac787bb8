"""Tests for the repeated-trial harness.

Determinism and pairing are structural; the severe two-class shift run at
the end checks the headline behavior end to end: the worst-case method
keeps its error guarantee in every trial while staying tighter than the
envelope-inflated baseline.
"""

import math

import numpy as np
import pytest

from pacshift import (
    METHODS,
    RiskParams,
    ShiftSpec,
    SyntheticModel,
    ThresholdResult,
    aggregate,
    delta_split,
    run_trials,
    tweak_one,
)
from pacshift import harness
from pacshift.harness import TrialReport


def small_scenario():
    spec = ShiftSpec(np.full(3, 1 / 3), tweak_one(3, 0.6), 400, 300, 300)
    model = SyntheticModel(class_centers=[[0.0], [2.0], [4.0]], noise_scale=1.0)
    return spec, model


class TestRunTrials:
    def test_deterministic_in_seed(self):
        spec, model = small_scenario()
        rp = RiskParams(epsilon=0.2, delta=0.1)
        a = run_trials(spec, model, ["PS", "PS-W"], rp, trials=3, seed=61)
        b = run_trials(spec, model, ["PS", "PS-W"], rp, trials=3, seed=61)
        assert [(r.method, r.trial, r.error, r.avg_size, r.tau) for r in a] == [
            (r.method, r.trial, r.error, r.avg_size, r.tau) for r in b
        ]

    def test_methods_are_paired_across_subsets(self):
        # A method's per-trial result must not depend on which other
        # methods run alongside it.
        spec, model = small_scenario()
        rp = RiskParams(epsilon=0.2, delta=0.1)
        alone = run_trials(spec, model, ["PS"], rp, trials=3, seed=62)
        together = run_trials(spec, model, list(METHODS), rp, trials=3, seed=62)
        ps_together = [r for r in together if r.method == "PS"]
        assert [(r.trial, r.tau, r.error) for r in alone] == [
            (r.trial, r.tau, r.error) for r in ps_together
        ]

    def test_repeated_method_runs_once(self):
        spec, model = small_scenario()
        rp = RiskParams(epsilon=0.2, delta=0.1)
        repeated = run_trials(spec, model, ["PS", "PS-W", "PS"], rp, trials=2, seed=63)
        once = run_trials(spec, model, ["PS", "PS-W"], rp, trials=2, seed=63)
        assert [(r.method, r.trial) for r in repeated] == [
            ("PS", 0), ("PS-W", 0), ("PS", 1), ("PS-W", 1)
        ]
        assert repr(repeated) == repr(once)  # exact, and a NaN tau compares equal

    def test_rejects_bad_arguments(self):
        spec, model = small_scenario()
        rp = RiskParams(epsilon=0.2, delta=0.1)
        with pytest.raises(ValueError):
            run_trials(spec, model, ["PS-X"], rp, trials=1, seed=0)
        with pytest.raises(ValueError):
            run_trials(spec, model, ["PS"], rp, trials=0, seed=0)
        for trials in (2.5, 2.0, math.nan, math.inf, True):
            with pytest.raises(ValueError, match="trials must be an integer >= 1"):
                run_trials(spec, model, ["PS"], rp, trials=trials, seed=0)

    @pytest.mark.parametrize("sizes", [(50, 0, 50), (0, 50, 50), (50, 50, 0)])
    def test_rejects_empty_samples(self, sizes, monkeypatch):
        # An empty sample breaks each method differently (NaN plug-in
        # weights, IndexError, ZeroDivisionError), so none is drawn.
        spec = ShiftSpec(np.full(2, 0.5), np.full(2, 0.5), *sizes)
        model = SyntheticModel(class_centers=[[0.0], [2.0]])
        monkeypatch.setattr(harness, "sample_shifted", lambda *a: pytest.fail("drew data"))
        with pytest.raises(ValueError, match="m, n and o must be >= 1"):
            run_trials(spec, model, list(METHODS), RiskParams(0.2, 0.1), trials=1, seed=0)

    def test_singular_plug_in_aborts_its_methods(self):
        # Equal centers give every row the scores [0.5, 0.5], so label 0 is
        # always predicted: the confusion matrix is singular, the plug-in
        # solve fails and the weight box aborts.
        spec = ShiftSpec([0.5, 0.5], [0.5, 0.5], 50, 50, 50)
        model = SyntheticModel([[0.0], [0.0]])
        rp = RiskParams(0.2, 0.1)
        reports = {r.method: r for r in run_trials(spec, model, METHODS, rp, 1, 0)}
        for method in ("PS-R", "WCP", "PS-W", "PS-C"):
            assert reports[method].aborted and reports[method].avg_size == 2
        for method in ("PS", "ORACLE"):
            assert not reports[method].aborted and reports[method].tau == 0.5
        summary = aggregate(list(reports.values()), rp.epsilon)
        assert {m: s["aborts"] for m, s in summary.items()} == {
            "PS": 0, "PS-W": 1, "PS-C": 1, "PS-R": 1, "WCP": 1, "ORACLE": 0
        }

    def test_box_methods_get_the_calibration_share_of_delta(self, monkeypatch):
        # The box spends the rest of delta, so only PS-W and PS-C calibrate at
        # delta_split's share; PS, PS-R and ORACLE spend the caller's rp.
        spec, model = small_scenario()
        rp = RiskParams(epsilon=0.2, delta=0.1)
        seen = {}
        for name in ("psw_threshold", "psc_threshold", "ps_threshold", "psr_threshold"):
            def record(*args, name=name):
                seen.setdefault(name, []).append(args[-1])
                return ThresholdResult(0.5)

            monkeypatch.setattr(harness, name, record)
        run_trials(spec, model, ["PS", "PS-W", "PS-C", "PS-R", "ORACLE"], rp, trials=1, seed=64)
        calib = RiskParams(rp.epsilon, delta_split(spec.k, rp.delta)[1])
        assert seen == {"ps_threshold": [rp], "psw_threshold": [calib],
                        "psc_threshold": [calib], "psr_threshold": [rp, rp]}

    def test_no_shift_ps_error_within_budget(self):
        spec = ShiftSpec(np.full(2, 0.5), np.full(2, 0.5), 2000, 100, 2000)
        model = SyntheticModel(class_centers=[[0.0], [2.0]])
        rp = RiskParams(epsilon=0.2, delta=0.05)
        reports = run_trials(spec, model, ["PS"], rp, trials=5, seed=63)
        assert all(r.error <= rp.epsilon for r in reports)
        assert all(np.isfinite(r.tau) for r in reports)


class TestAggregate:
    def test_recomputation_oracle(self):
        spec, model = small_scenario()
        rp = RiskParams(epsilon=0.2, delta=0.1)
        reports = run_trials(spec, model, ["PS", "PS-C"], rp, trials=5, seed=64)
        summary = aggregate(reports, rp.epsilon)
        for method in ("PS", "PS-C"):
            rows = [r for r in reports if r.method == method]
            errs = np.array([r.error for r in rows])
            s = summary[method]
            assert s["trials"] == 5
            assert s["mean_error"] == pytest.approx(errs.mean())
            assert s["violations"] == int((errs > rp.epsilon).sum())
            assert s["error_q50"] == pytest.approx(np.median(errs))
            assert s["error_q0"] == errs.min()
            assert s["error_q100"] == errs.max()

    def test_single_report(self):
        r = TrialReport(method="PS", trial=0, error=0.1, avg_size=1.5, tau=0.3)
        s = aggregate([r], 0.05)["PS"]
        assert s["violations"] == 1 and s["mean_size"] == 1.5
        assert all(s[f"error_q{q}"] == 0.1 for q in harness.QUANTILES)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            aggregate([], 0.1)

    def test_aborted_follows_tau(self):
        rows = [TrialReport("PS-W", 0, 0.0, 3.0, tau) for tau in (math.nan, -math.inf, 0.3)]
        assert [r.aborted for r in rows] == [True, False, False]
        assert aggregate(rows, 0.1)["PS-W"]["aborts"] == 1
        with pytest.raises(AttributeError):
            rows[0].aborted = False
        with pytest.raises(TypeError):
            TrialReport("PS-W", 0, 0.0, 3.0, 0.3, aborted=True)


class TestSevereShiftEndToEnd:
    def test_psw_valid_and_tighter_than_psc(self):
        # Two-class shift (0.94, 0.06) -> (0.636, 0.364), large samples.
        spec = ShiftSpec([0.94, 0.06], [0.636, 0.364], 42000, 42000, 42000)
        model = SyntheticModel(class_centers=[[0.0], [2.0]], noise_scale=1.0)
        rp = RiskParams(epsilon=0.1, delta=5e-4)
        reports = run_trials(spec, model, ["PS-W", "PS-C"], rp, trials=100, seed=3)
        summary = aggregate(reports, rp.epsilon)
        assert summary["PS-W"]["violations"] == 0
        assert summary["PS-W"]["aborts"] == 0
        assert summary["PS-W"]["mean_size"] < summary["PS-C"]["mean_size"]
