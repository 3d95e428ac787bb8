"""The benchmark's workloads, their inputs and their correctness checks.

Every workload is a closed loop: one process runs one op at a time, and
``cli-k100`` starts one child process per op. An op's inputs come from the
workload seed through two separate SeedSequence spawn keys, one for the
data and one for the acceptance uniforms ``v``. The two must not share a
stream: ``sample_shifted`` draws labels with the generator's uniforms, so
feeding one integer to both ``sample_shifted`` and
``AcceptanceRandomness.draw`` makes ``v`` the very uniforms that chose the
labels. In a probe that did so, every severe-shift calibration came out
as a full set.

Why each workload exists:

* ``severe3``: one paired trial of all six methods through
  ``harness.run_trials`` on the acceptance-suite scenario (K=3,
  m=n=o=5000). The only workload that runs ``shift_sim``, the baselines
  and ``evaluate_set``; PS-W is split between the ``kbin`` table and the DP.
* ``severe3-m20k``: one library calibration (``weight_box`` then
  ``psw_threshold``) on the same shift at m=n=o=20000. The DP dominates and
  grows faster than m.
* ``cli-k100``: one ``pacshift calibrate`` child on CSV files with K=100,
  m=n=20000. ``read_scores`` takes most of the op, interpreter start-up
  most of the rest, and the K(K+1) Clopper-Pearson intervals the bulk of
  what remains; elimination aborts, so PS-W never runs. The control for
  PS-W changes and the only workload that measures the cli layer and the
  abort rate.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import pacshift.harness as harness
import pacshift.predsets as predsets
import pacshift.weights as weights
from pacshift import (
    METHODS,
    AcceptanceRandomness,
    Aborted,
    RiskParams,
    ShiftSpec,
    SyntheticModel,
    ThresholdResult,
    delta_split,
    evaluate_set,
    ps_threshold,
    rejection_sample,
    sample_shifted,
    true_weights,
    tweak_one,
)
from pacshift.cli import read_scores, write_scores

EPSILON = 0.1
DELTA = 5e-4
LEDGER_TOL = 1e-12

STREAM_DATA = 0
STREAM_ACCEPT = 1

# Acceptance-suite severe shift: two tight easy classes, one wide hard class
# that the target moves onto.
SEVERE_SOURCE = (0.2, 0.2, 0.6)
SEVERE_TARGET = tweak_one(3, 0.9, 2)
SEVERE_CENTERS = np.array([[-6.0], [6.0], [0.0]])
SEVERE_NOISE = (1.0, 1.0, 36.0)
SEVERE_TEMPERATURE = 430.0

CLI_K = 100
CLI_SPACING = 8.0
CLI_TEMPERATURE = 8.0
CLI_RHO = 0.05


def stream_seed(seed: int, stream: int, op: int) -> int:
    """Seed of `stream` for op `op`; distinct spawn keys give independent streams."""
    ss = np.random.SeedSequence(seed, spawn_key=(stream, op))
    return int(ss.generate_state(1, np.uint64)[0])


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


@dataclass
class Outcome:
    """What one op produced, after its checks."""

    status: str
    digest: str
    set_size: float
    error: float
    problems: list = field(default_factory=list)
    abort_step: int | None = None
    box_width: float | None = None
    envelope_b: float | None = None
    true_w_in_box: float | None = None
    n_max: int | None = None
    candidates: int | None = None

    @property
    def aborted(self) -> bool:
        return self.status == "aborted"


def status_of(tau: float) -> str:
    if math.isnan(tau):
        return "aborted"
    return "full_set" if tau == -math.inf else "calibrated"


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode())
        h.update(b"\0")
    return h.hexdigest()


def box_parts(box) -> tuple:
    if isinstance(box, Aborted):
        return ("aborted", box.step)
    return (box.lo.tobytes().hex(), box.hi.tobytes().hex(), float(box.envelope_b).hex())


def ledger_problems(K: int, delta: float, per_interval: float, calibration: float) -> list:
    total = per_interval * K * (K + 1) + calibration
    if abs(total - delta) > LEDGER_TOL:
        return [f"delta ledger sums to {total!r}, not {delta!r}"]
    return []


def dp_size(src, v, box) -> tuple[int, int]:
    """(n_max, candidates): the largest accepted sample and the prefix lengths
    PS-W's DP visits per probe, counted from its inputs (ties in v*b merge)."""
    thresholds = v.v * box.envelope_b
    lo, hi = box.clamped_lo(), box.hi
    n_max = candidates = 0
    for k in range(src.k):
        tk = np.sort(thresholds[src.labels == k])
        a_min = int(np.searchsorted(tk, lo[k], side="right"))
        a_max = int(np.searchsorted(tk, hi[k], side="right"))
        a = np.arange(a_min + 1, a_max + 1)
        boundary = (a == len(tk)) | (tk[np.minimum(a, len(tk) - 1)] > tk[a - 1])
        n_max += a_max
        candidates += 1 + int(np.count_nonzero(boundary))
    return n_max, candidates


def check_box_and_psw(out: Outcome, src, v, box, rp, tau: float, truew):
    """DP-free check of PS-W; records problems and box statistics on `out`.

    PS-W's tau is a minimum over the box, so for any w in the box the plain
    PAC threshold on the rejection sample at w is at least tau. Checked at
    the clamped lower corner, the upper corner, the midpoint and the true
    weights, each clipped into the box.
    """
    lo, hi, b = box.clamped_lo(), box.hi, box.envelope_b
    probes = {"lo": lo, "hi": hi, "mid": (lo + hi) / 2, "true": np.clip(truew, lo, hi)}
    for name, w in probes.items():
        ref = ps_threshold(src.subset(rejection_sample(src, v, w, b)), rp).tau
        if not ref >= tau:
            out.problems.append(
                f"ps_threshold at the {name} weights gives {ref!r} < PS-W tau {tau!r}"
            )
    out.n_max, out.candidates = dp_size(src, v, box)
    out.box_width = float(np.mean(box.hi - box.lo))
    out.envelope_b = float(box.envelope_b)
    out.true_w_in_box = float(np.mean((box.lo <= truew) & (truew <= box.hi)))


class Workload:
    """Base: in-process ops timed in this process."""

    name = ""
    root_span = ""
    min_ops = 1
    rss_who = resource.RUSAGE_SELF

    def __init__(self, root: Path, work: Path, seed: int, tiny: bool):
        self.work, self.seed, self.tiny = work, seed, tiny
        self.env = child_env(root)
        # Traced cli ops only: child wall time minus in-process cli.main time.
        self.proc_overhead_s: list[float] = []

    def setup(self):
        """Build the inputs; timed and repeated by the caller."""
        subprocess.run([sys.executable, "-c", "import pacshift"], env=self.env, check=True)
        self.build()

    def build(self):
        raise NotImplementedError

    def start(self):
        """Untimed preparation after the last setup."""

    def finish(self):
        """Undo whatever start() changed."""

    def inputs(self, i: int):
        raise NotImplementedError

    def run_op(self, inp):
        raise NotImplementedError

    def run_traced(self, inp, tracer, i: int):
        with tracer.root(i, self.root_span):
            return self.run_op(inp)

    def check(self, inp, raw) -> Outcome:
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return resource.getrusage(self.rss_who).ru_maxrss / 1024.0

    def environment(self) -> dict:
        return {}


class Severe3(Workload):
    name = "severe3"
    root_span = "harness.run_trials"
    min_ops = 4

    def build(self):
        m = 3000 if self.tiny else 5000
        self.spec = ShiftSpec(SEVERE_SOURCE, SEVERE_TARGET, m, m, m)
        self.model = SyntheticModel(SEVERE_CENTERS, SEVERE_NOISE, SEVERE_TEMPERATURE)
        self.rp = RiskParams(EPSILON, DELTA)
        self.truew = true_weights(self.spec)

    def start(self):
        # run_trials draws src and v inside; keep what PS-W was given so the
        # check sees exactly the same inputs. The shim only stores a tuple.
        self._psw = harness.psw_threshold
        self._captured = None

        @functools.wraps(self._psw)
        def capture(src, v, box, rp):
            res = self._psw(src, v, box, rp)
            self._captured = (src, v, box, rp, res)
            return res

        harness.psw_threshold = capture

    def finish(self):
        harness.psw_threshold = self._psw

    def inputs(self, i):
        # run_trials takes one seed and derives the data and acceptance seeds
        # as two separate draws of its own per-trial stream.
        return stream_seed(self.seed, STREAM_DATA, i)

    def run_op(self, trial_seed):
        self._captured = None
        reports = harness.run_trials(self.spec, self.model, METHODS, self.rp, 1, trial_seed)
        return reports, self._captured

    def check(self, inp, raw):
        reports, captured = raw
        by = {r.method: r for r in reports}
        psw = by["PS-W"]
        parts = [(r.method, r.tau.hex(), r.aborted) for r in reports]
        problems = []
        if sorted(by) != sorted(METHODS):
            problems.append(f"methods reported: {sorted(by)}")
        if captured is None:
            problems.append("PS-W was not called")
            return Outcome("failed", digest(parts), float(self.spec.k), 0.0, problems)
        src, v, box, rp, res = captured
        box_budget, calib = delta_split(self.spec.k, DELTA)
        K = self.spec.k
        problems += ledger_problems(K, DELTA, box_budget / (K * (K + 1)), calib)
        if rp.delta != calib:
            problems.append(f"PS-W ran at delta {rp.delta!r}, ledger reserves {calib!r}")
        if psw.tau.hex() != res.tau.hex():
            problems.append("PS-W report tau differs from the psw_threshold result")
        out = Outcome(status_of(res.tau), digest(parts, box_parts(box)), psw.avg_size, psw.error,
                      problems)
        if isinstance(box, Aborted):
            out.abort_step = box.step
        else:
            check_box_and_psw(out, src, v, box, rp, res.tau, self.truew)
        return out


class Severe3M20k(Workload):
    name = "severe3-m20k"
    root_span = "perfbench.calibrate"
    min_ops = 2
    pool_size = 6

    def build(self):
        m = 3000 if self.tiny else 20000
        self.spec = ShiftSpec(SEVERE_SOURCE, SEVERE_TARGET, m, m, m)
        model = SyntheticModel(SEVERE_CENTERS, SEVERE_NOISE, SEVERE_TEMPERATURE)
        self.truew = true_weights(self.spec)
        self.pool = [
            sample_shifted(self.spec, model, stream_seed(self.seed, STREAM_DATA, j))
            for j in range(self.pool_size)
        ]

    def inputs(self, i):
        src, tgt, test = self.pool[i % self.pool_size]
        v = AcceptanceRandomness.draw(src.n, stream_seed(self.seed, STREAM_ACCEPT, i))
        return src, tgt, test, v

    def run_op(self, inp):
        src, tgt, _, v = inp
        box_budget, calib = delta_split(src.k, DELTA)
        box = weights.weight_box(src, tgt, box_budget)
        rp = RiskParams(EPSILON, calib)
        return box, rp, predsets.psw_threshold(src, v, box, rp)

    def check(self, inp, raw):
        src, _, test, v = inp
        box, rp, res = raw
        K = src.k
        box_budget, calib = delta_split(K, DELTA)
        problems = ledger_problems(K, DELTA, box_budget / (K * (K + 1)), calib)
        error, size = evaluate_set(res, test)
        out = Outcome(status_of(res.tau), digest(res.tau.hex(), box_parts(box)), size, error,
                      problems)
        if isinstance(box, Aborted):
            out.abort_step = box.step
        else:
            check_box_and_psw(out, src, v, box, rp, res.tau, self.truew)
        return out


class CliK100(Workload):
    name = "cli-k100"
    root_span = "cli.main"
    min_ops = 2
    rss_who = resource.RUSAGE_CHILDREN

    def __init__(self, *args):
        super().__init__(*args)
        self.source = self.work / "source.csv"
        self.target = self.work / "target.csv"
        self.reference: dict[int, float] = {}

    def setup(self):
        self.build()

    def build(self):
        m = 2000 if self.tiny else 20000
        centers = CLI_SPACING * np.arange(CLI_K, dtype=float)[:, None]
        model = SyntheticModel(centers, 1.0, CLI_TEMPERATURE)
        self.spec = ShiftSpec(np.full(CLI_K, 1.0 / CLI_K), tweak_one(CLI_K, CLI_RHO), m, m, m)
        data_seed = stream_seed(self.seed, STREAM_DATA, 0)
        src, tgt, self.test = sample_shifted(self.spec, model, data_seed)
        write_scores(str(self.source), src)
        write_scores(str(self.target), tgt)
        self.generated = (src, tgt)

    def start(self):
        # The reference calls see the tables as the child parses them.
        self.src = read_scores(str(self.source))
        self.tgt = read_scores(str(self.target))
        for made, parsed in zip(self.generated, (self.src, self.tgt)):
            if not np.array_equal(made.scores, parsed.scores):
                raise RuntimeError("CSV round trip changed the scores")
        box_budget, self.calib = delta_split(CLI_K, DELTA)
        self.box = weights.weight_box(self.src, self.tgt, box_budget)
        self.truew = true_weights(self.spec)

    def finish(self):
        for path in (self.source, self.target):
            path.unlink(missing_ok=True)

    def environment(self):
        return {
            "source_csv_bytes": self.source.stat().st_size,
            "target_csv_bytes": self.target.stat().st_size,
        }

    def inputs(self, i):
        v_seed = stream_seed(self.seed, STREAM_ACCEPT, i)
        args = [
            "calibrate", "--epsilon", repr(EPSILON), "--delta", repr(DELTA),
            "--source", str(self.source), "--target", str(self.target),
            "--seed", str(v_seed), "--out", str(self.work / "report.json"),
        ]
        return v_seed, args

    def _run(self, cmd):
        proc = subprocess.run(cmd, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        report = self.work / "report.json"
        text = report.read_text(encoding="utf-8") if report.exists() else None
        report.unlink(missing_ok=True)
        return proc.returncode, text

    def run_op(self, inp):
        return self._run([sys.executable, "-m", "pacshift.cli", *inp[1]])

    def run_traced(self, inp, tracer, i):
        trace_file = self.work / "child-trace.json"
        child = str(Path(__file__).resolve().parent / "cli_child.py")
        start = time.perf_counter()
        raw = self._run([sys.executable, child, str(trace_file), *inp[1]])
        wall = time.perf_counter() - start
        recorded = json.loads(trace_file.read_text(encoding="utf-8"))
        trace_file.unlink()
        tracer.add(recorded["spans"], recorded["counts"], i)
        self.proc_overhead_s.append(wall - recorded["main_s"])
        return raw

    def _reference(self, v_seed):
        if v_seed not in self.reference:
            if isinstance(self.box, Aborted):
                tau = math.nan
            else:
                v = AcceptanceRandomness.draw(self.src.n, v_seed)
                rp = RiskParams(EPSILON, self.calib)
                tau = predsets.psw_threshold(self.src, v, self.box, rp).tau
            self.reference[v_seed] = tau
        return self.reference[v_seed]

    def check(self, inp, raw):
        v_seed, _ = inp
        code, text = raw
        K = CLI_K
        if code not in (0, 4) or text is None:
            return Outcome("failed", digest(code), float(K), 0.0, [f"calibrate exited {code}"])
        report = json.loads(text)
        status = report["status"]
        if status == "aborted":
            tau = math.nan
        else:
            tau = -math.inf if report["tau"] is None else report["tau"]
        problems = ledger_problems(
            K, DELTA, report["per_interval_delta"], report["calibration_delta"]
        )
        ref_tau = self._reference(v_seed)
        if (code == 4) != (status == "aborted"):
            problems.append(f"exit code {code} with status {status!r}")
        if status != status_of(ref_tau) or float(tau).hex() != float(ref_tau).hex():
            problems.append(f"report status/tau {status}/{tau!r}, in-process {ref_tau!r}")
        box = report.get("weight_box")
        parts = (
            status, report.get("abort_step"), report.get("abort_reason"), float(tau).hex(), box
        )
        out = Outcome(status, digest(*parts), float(K), 0.0, problems)
        if status == "aborted":
            out.abort_step = report["abort_step"]
            if not isinstance(self.box, Aborted) or self.box.step != out.abort_step:
                problems.append(f"abort step {out.abort_step}, in-process {self.box!r}")
        else:
            if box["lo"] != self.box.lo.tolist() or box["hi"] != self.box.hi.tolist():
                problems.append("report weight box differs from the in-process box")
            result = ThresholdResult(tau=tau, status=status)
            out.error, out.set_size = evaluate_set(result, self.test)
            v = AcceptanceRandomness.draw(self.src.n, v_seed)
            rp = RiskParams(EPSILON, self.calib)
            check_box_and_psw(out, self.src, v, self.box, rp, tau, self.truew)
        return out


WORKLOADS = {w.name: w for w in (Severe3, Severe3M20k, CliK100)}
