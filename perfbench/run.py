"""pacshift benchmark: one workload per run, closed loop, every op checked.

Usage (from the repository root):

    python3 perfbench/run.py --workload severe3 --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py for why each exists): ``severe3``,
``severe3-m20k``, ``cli-k100``. One process runs one op at a time for
``--seconds`` seconds, and at least the workload's minimum number of ops.
BLAS/OpenMP pools are pinned to one thread here and in every child.

``--trace 0`` measures the end-to-end metrics listed in BENCHMARK.json:
throughput, median and tail op latency, set-up time, peak RSS and the mean
PS-W set size. Times are CPU seconds of this process and its children,
scaled to a reference host speed by the yardstick kernel timed between
ops (see yardstick.py), because the shared host's speed drifts by more
than the bounds; the raw wall and CPU times are printed as comments and
written to the results file. ``--trace 1`` runs every op twice on the
same inputs, first untraced and then with the tracer wrapping pacshift's
public functions, and reports the per-layer metrics: self time and counts
per op for each layer, DP sizes, box statistics, the failure/abort/violation
shares, and the tracing overhead (traced minus untraced wall time of the
same op).

Each metric is printed as ``name value unit direction``; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. The run also writes
``.perfbench_out/<workload>-seed<seed>-trace<t>.json`` (environment, op
times, output fingerprint, every failed check) and, when tracing, the
spans as JSON lines next to it. Two runs at one seed give the same
fingerprint: a digest of every op's status, tau bits and weight box over
the workload's first ops.

``--tiny`` shrinks every input for the smoke test.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_REPEATS = 3
QUALITY = ("fail_frac", "abort_frac", "psw_violation_frac")
TAIL_BEYOND = 10

# Per-layer self times: metric -> (span names, required parent span or None).
LAYER_SELF_TIMES = {
    "predsets.psw_s": (("predsets.psw_threshold",), None),
    "binomial.kbin_s": (("binomial.binom_k",), "predsets.psw_threshold"),
    "predsets.ps_s": (("predsets.ps_threshold",), None),
    "predsets.psc_s": (("predsets.psc_threshold",), None),
    "predsets.psr_s": (("predsets.psr_threshold",), None),
    "predsets.wcp_s": (("predsets.wcp_threshold",), None),
    "predsets.evaluate_s": (("predsets.evaluate_set",), None),
    "shift_sim.sample_s": (("shift_sim.sample_shifted",), None),
    "harness.trial_self_s": (("harness.run_trials",), None),
    "cli.read_scores_s": (("cli.read_scores",), None),
    "weights.count_s": (("weights.estimate_confusion", "weights.estimate_qhat"), None),
    "weights.cp_bounds_s": (("weights.cp_bounds",), None),
    "weights.bbse_s": (("weights.bbse_point_weights",), None),
    "intervals.elim_s": (("intervals.interval_gauss_elim",), None),
}

# Per-layer counts recorded at the wrapped boundaries: metric -> count name.
LAYER_COUNTS = {
    "binomial.cp_interval_calls": "binomial.cp_interval",
    "weights.bbse_singular": "weights.bbse_point_weights:SingularMatrix",
    "shift_sim.rows": "shift_sim.rows",
    "cli.cells_parsed": "cli.cells_parsed",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description="pacshift benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke test")
    return parser.parse_args(argv)


def tail(times):
    """(percentile, value): the highest percentile with 10 samples beyond it.

    That is p = 100 * (N - 10) / N for N samples. Below 20 samples it would
    fall under the median, so the median is reported instead.
    """
    import numpy as np

    p = max(50.0, 100.0 * (len(times) - TAIL_BEYOND) / len(times))
    return p, float(np.percentile(times, p))


def attempt(fn, *args):
    """(result, None) or (None, traceback) -- ops run behind this boundary."""
    try:
        return fn(*args), None
    except Exception:
        return None, traceback.format_exc()


def measure(w, seconds, tracer, yardstick):
    """Run ops back to back; returns per-op records with untraced/traced results.

    The yardstick times each untraced op (see yardstick.py).
    """
    records = []
    yardstick.resync()
    start = time.perf_counter()
    i = 0
    while i < w.min_ops or time.perf_counter() - start < seconds:
        inp = w.inputs(i)
        (raw, err), times = yardstick.time(attempt, w.run_op, inp)
        rec = {"op": i, "inp": inp, **times, "raw": raw, "err": err}
        if tracer is not None:
            t0 = time.perf_counter()
            raw, err = attempt(w.run_traced, inp, tracer, i)
            rec.update(traced_wall=time.perf_counter() - t0, traced_raw=raw, traced_err=err)
        records.append(rec)
        i += 1
    return records


def check(w, inp, raw, err):
    from workloads import Outcome, digest

    if err is None:
        outcome, err = attempt(w.check, inp, raw)
        if err is None:
            return outcome
    return Outcome("failed", digest(err.splitlines()[-1]), 0.0, 0.0, [err])


def mean(values, empty=0.0):
    values = list(values)
    return float(statistics.fmean(values)) if values else empty


def layer_metrics(w, tracer, records, outcomes):
    from tracing import self_times

    n = max(sum(r["traced_err"] is None for r in records), 1)
    sums = {name: 0.0 for name in LAYER_SELF_TIMES}
    kbin_calls = 0
    for _, name, parent, self_s in self_times(tracer.spans):
        for metric, (names, need_parent) in LAYER_SELF_TIMES.items():
            if name in names and (need_parent is None or parent == need_parent):
                sums[metric] += self_s
        kbin_calls += name == "binomial.binom_k" and parent == "predsets.psw_threshold"
    out = {metric: total / n for metric, total in sums.items()}
    out["binomial.binom_k_calls"] = kbin_calls / n
    for metric, count in LAYER_COUNTS.items():
        out[metric] = sum(v for (_, c), v in tracer.counts.items() if c == count) / n
    out["cli.proc_overhead_s"] = mean(w.proc_overhead_s)

    boxed = [o for o in outcomes if o.n_max is not None]
    aborted = [o for o in outcomes if o.aborted]
    out["predsets.psw_n_max"] = mean(o.n_max for o in boxed)
    out["predsets.psw_candidates"] = mean(o.candidates for o in boxed)
    out["intervals.aborts"] = len(aborted) / len(outcomes)
    out["intervals.abort_step"] = mean((o.abort_step for o in aborted), empty=-1.0)
    out["intervals.box_width"] = mean(o.box_width for o in boxed)
    out["intervals.envelope_b"] = mean(o.envelope_b for o in boxed)
    out["intervals.true_w_in_box_frac"] = mean(o.true_w_in_box for o in boxed)

    pairs = [(r["wall"], r["traced_wall"]) for r in records]
    out["trace.op_s"] = mean(t for _, t in pairs)
    out["trace.overhead_s"] = float(statistics.median(t - u for u, t in pairs))
    out["trace.overhead_frac"] = float(statistics.median(t / u - 1.0 for u, t in pairs))
    return out


def quality_metrics(outcomes, epsilon):
    n = len(outcomes)
    return dict(zip(QUALITY, (
        sum(1 for o in outcomes if o.problems) / n,
        sum(1 for o in outcomes if o.aborted) / n,
        sum(1 for o in outcomes if o.error > epsilon) / n,
    )))


def check_all(w, records, tracing):
    """(untraced outcomes, every outcome, problems); traced ops must match untraced ones."""
    outcomes = [check(w, r["inp"], r["raw"], r["err"]) for r in records]
    problems = [(r["op"], p) for r, o in zip(records, outcomes) for p in o.problems]
    checked = list(outcomes)
    if tracing:
        for r, o in zip(records, outcomes):
            t = check(w, r["inp"], r["traced_raw"], r["traced_err"])
            if t.digest != o.digest and not t.problems:
                t.problems.append("traced op output differs from the untraced op")
            problems += [(r["op"], f"traced: {p}") for p in t.problems]
            checked.append(t)
    return outcomes, checked, problems


def environment(w):
    import numpy
    import scipy

    env = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }
    env.update(w.environment())
    return env


def emit(metrics, specs, values):
    for spec in specs:
        value = values[spec["name"]]
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
        print(f"{spec['name']:32s} {value:>16.6g} {spec['unit']:8s} {spec['better']} is better")


def run(args) -> int:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (ROOT / "src" / "pacshift" / "__init__.py").is_file():
        print(f"no pacshift sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    from tracing import Tracer
    from workloads import EPSILON, WORKLOADS
    from yardstick import Yardstick

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"work-{tag}"
    work.mkdir(parents=True, exist_ok=True)
    w = WORKLOADS[args.workload](ROOT, work, args.seed, args.tiny)

    yardstick = Yardstick()
    setups = [yardstick.time(w.setup)[1] for _ in range(SETUP_REPEATS)]
    w.start()
    env = environment(w)
    tracer = Tracer() if args.trace else None
    try:
        records = measure(w, args.seconds, tracer, yardstick)
    finally:
        w.finish()

    outcomes, checked, problems = check_all(w, records, tracer is not None)
    fingerprint = hashlib.sha256(
        "".join(o.digest for o in outcomes[: w.min_ops]).encode()
    ).hexdigest()

    times = [r["wall"] for r in records]
    cpu = [r["cpu"] for r in records]
    ref = [r["ref"] for r in records]
    tail_p, tail_s = tail(ref)
    values = {
        "ops_per_s": len(ref) / sum(ref),
        "op_p50_s": float(statistics.median(ref)),
        "op_tail_s": tail_s,
        "setup_s": float(statistics.median(s["ref"] for s in setups)),
        "peak_rss_mb": w.peak_rss_mb(),
        "psw_set_size": mean(o.set_size for o in outcomes),
    }
    values.update(quality_metrics(checked, EPSILON))
    if tracer is not None:
        values.update(layer_metrics(w, tracer, records, outcomes))

    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} ops={len(records)}")
    print(f"# env {json.dumps(env, sort_keys=True)}")
    print(f"# op_tail_s is p{tail_p:.1f} of {len(times)} ops; setup repeated {SETUP_REPEATS}x")
    print(f"# times in reference seconds; yardstick median "
          f"{statistics.median(yardstick.samples) * 1e3:.6g} ms over "
          f"{len(yardstick.samples)} samples; unscaled op p50: wall "
          f"{statistics.median(times):.6g} s, cpu {statistics.median(cpu):.6g} s; "
          f"setup median: wall {statistics.median(s['wall'] for s in setups):.6g} s, "
          f"cpu {statistics.median(s['cpu'] for s in setups):.6g} s")
    print(f"# fingerprint {fingerprint} over the first {w.min_ops} ops")
    for op, p in problems:
        print(f"# FAILED op {op}: {p.strip().splitlines()[-1]}")
    metrics = {}
    if args.trace:
        emit(metrics, bench["per_layer"], values)
    else:
        emit(metrics, bench["end_to_end"], values)
        emit({}, [s for s in bench["per_layer"] if s["name"] in QUALITY], values)

    failed = sum(1 for o in checked if o.problems)
    results = {
        "args": vars(args),
        "environment": env,
        "epsilon": EPSILON,
        "fingerprint": fingerprint,
        "fingerprint_ops": w.min_ops,
        "op_digests": [o.digest for o in outcomes],
        "op_wall_s": times,
        "op_cpu_s": cpu,
        "op_ref_s": ref,
        "op_yardstick_s": [r["yardstick"] for r in records],
        "yardstick_s": yardstick.samples,
        "traced_op_wall_s": [r.get("traced_wall") for r in records],
        "op_tail_percentile": tail_p,
        "setup": setups,
        "problems": problems,
        "metrics": values,
    }
    (OUT / f"{tag}.json").write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
    if tracer is not None:
        with open(OUT / f"{args.workload}-seed{args.seed}-spans.jsonl", "w",
                  encoding="utf-8") as fh:
            for sid, parent, op, name, start, end in tracer.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "op": op, "name": name,
                                     "start": start, "end": end}) + "\n")
    try:
        work.rmdir()
    except OSError:
        pass
    print(json.dumps({"correct": failed == 0, "attempted": len(checked), "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    return run(parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
