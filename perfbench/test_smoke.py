"""Smoke test of the benchmark: every workload at a tiny size, traced and not.

Run from the repository root: python3 -m pytest perfbench/test_smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("severe3", "severe3-m20k", "cli-k100")

END_TO_END = ("ops_per_s", "op_p50_s", "op_tail_s", "setup_s", "peak_rss_mb", "psw_set_size")
QUALITY = ("fail_frac", "abort_frac", "psw_violation_frac")
PER_LAYER = (
    "predsets.psw_s", "predsets.psw_n_max", "predsets.psw_candidates",
    "binomial.kbin_s", "binomial.binom_k_calls",
    "predsets.ps_s", "predsets.psc_s", "predsets.psr_s", "predsets.wcp_s",
    "predsets.evaluate_s", "shift_sim.sample_s", "shift_sim.rows", "harness.trial_self_s",
    "cli.read_scores_s", "cli.cells_parsed", "cli.proc_overhead_s",
    "weights.count_s", "weights.cp_bounds_s", "binomial.cp_interval_calls",
    "weights.bbse_s", "weights.bbse_singular", "intervals.elim_s",
    "intervals.aborts", "intervals.abort_step", "intervals.box_width",
    "intervals.envelope_b", "intervals.true_w_in_box_frac",
    "trace.overhead_s",
) + QUALITY


def run_bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    printed = {}
    for line in lines[:-1]:
        fields = line.split()
        if not line.startswith("#") and len(fields) >= 5 and fields[-2:] == ["is", "better"]:
            printed[fields[0]] = (float(fields[1]), fields[2])
    fingerprint = next(line.split()[2] for line in lines if line.startswith("# fingerprint"))
    return json.loads(lines[-1]), printed, fingerprint


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_and_no_op_fails(workload):
    result, printed, fingerprint = run_bench(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    for name in END_TO_END:
        assert result["metrics"][name]["unit"], name
        assert result["metrics"][name]["value"] > 0, name
    for name in END_TO_END + QUALITY:
        assert printed[name][1], name
    assert printed["fail_frac"][0] == 0.0

    traced, printed, traced_fingerprint = run_bench(workload, 1)
    assert traced["correct"] and traced["failed"] == 0
    for name in PER_LAYER:
        assert traced["metrics"][name]["unit"], name
        assert printed[name][1], name
    assert traced["metrics"]["fail_frac"]["value"] == 0.0
    # Same seed, same ops: tracing must not change any output.
    assert traced_fingerprint == fingerprint


def test_refuses_to_run_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "severe3", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
