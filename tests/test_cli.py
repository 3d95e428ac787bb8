"""Tests for the command-line surface and file formats.

Covers the CSV round trip (including a fuzz pass), the exit-code contract
(0 ok, 2 config, 3 data, 4 abort), and determinism of both subcommands.
"""

import contextlib
import csv
import json
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import pacshift
from pacshift import cli
from pacshift import (
    RiskParams,
    ScoreTable,
    aggregate,
    binom_k,
    cp_interval,
    estimate_confusion,
    run_trials,
    sample_shifted,
)
from pacshift.cli import (
    EXIT_ABORT,
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_OK,
    FORMAT_TAG,
    DataError,
    main,
    read_scenario,
    read_scores,
    write_scores,
)


def make_table(rng, n, k, labeled=True):
    scores = rng.dirichlet(np.ones(k), size=n)
    labels = rng.integers(0, k, size=n) if labeled else None
    return ScoreTable(scores=scores, labels=labels)


def write_fixture(path, table):
    write_scores(str(path), table)
    return str(path)


def write_text(path, text):
    path.write_text(text)
    return str(path)


SCENARIO = """\
# three-class scenario, heavy shift onto the hard class
source_dist = 0.2,0.2,0.6
target_dist = 0.05,0.05,0.9
m = 400
n = 400
o = 400
centers = -6;6;0
noise_scale = 1,1,36
temperature = 430
"""


class TestScoreRoundTrip:
    @pytest.mark.parametrize("labeled", [True, False])
    def test_fuzz_round_trip_identity(self, tmp_path, labeled):
        rng = np.random.default_rng(70)
        table = make_table(rng, 1000, 4, labeled)
        path = write_fixture(tmp_path / "t.csv", table)
        back = read_scores(path)
        np.testing.assert_array_equal(back.scores, table.scores)
        if labeled:
            np.testing.assert_array_equal(back.labels, table.labels)
        else:
            assert not back.is_labeled

    def test_written_file_is_tagged(self, tmp_path):
        rng = np.random.default_rng(71)
        path = write_fixture(tmp_path / "t.csv", make_table(rng, 5, 2))
        assert open(path).readline().strip() == FORMAT_TAG

    def test_empty_file(self, tmp_path):
        p = tmp_path / "e.csv"
        p.write_text("")
        with pytest.raises(DataError, match="empty score file"):
            read_scores(str(p))

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            read_scores(str(tmp_path / "nope.csv"))

    def test_bad_header(self, tmp_path):
        p = tmp_path / "b.csv"
        p.write_text("foo,bar\n0.5,0.5\n")
        with pytest.raises(DataError):
            read_scores(str(p))

    def test_one_score_column_rejected(self, tmp_path):
        p = tmp_path / "b.csv"
        p.write_text("s0\n1.0\n")
        with pytest.raises(DataError):
            read_scores(str(p))

    def test_ragged_row_reports_line(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("s0,s1\n0.5,0.5\n0.5\n")
        with pytest.raises(DataError, match=":3"):
            read_scores(str(p))

    def test_tagged_file_reports_physical_line(self, tmp_path):
        # The format tag and a blank line come before the ragged row on line 5.
        p = tmp_path / "r.csv"
        p.write_text(f"{FORMAT_TAG}\ns0,s1\n0.5,0.5\n\n0.5\n")
        with pytest.raises(DataError, match=r"r\.csv:5: expected 2 cells, got 1"):
            read_scores(str(p))

    @pytest.mark.parametrize("header, row, message", [
        *(("label,s0,s1,s2", f"{lab},0.2,0.5,0.3", "labels must be integers")
          for lab in ["1.5", "nan"]),
        *(("label,s0,s1,s2", f"{lab},0.2,0.5,0.3", "labels out of range")
          for lab in ["-1", "3", "inf", "1e300"]),
        *(("label,s0,s1,s2", f"1,0.2,{bad},0.3", "true-label scores must be finite")
          for bad in ["nan", "inf", "-inf"]),
        ("s0,s1,s2", "nan,inf,-inf", "every row needs at least one finite score"),
    ])
    def test_table_rule_names_physical_line(self, tmp_path, header, row, message):
        # Tag, header, comment, good row and blank line put the bad row on line 6.
        good = "0,0.5,0.3,0.2" if header.startswith("label") else "0.5,0.3,0.2"
        p = tmp_path / "t.csv"
        p.write_text(f"{FORMAT_TAG}\n{header}\n# note\n{good}\n\n{row}\n{good}\n")
        with pytest.raises(DataError) as err:
            read_scores(str(p))
        assert str(err.value) == f"{p}:6: {message}"

    def test_non_numeric_cell(self, tmp_path):
        p = tmp_path / "n.csv"
        p.write_text("s0,s1\n0.5,oops\n")
        with pytest.raises(DataError, match=":2"):
            read_scores(str(p))

    def test_label_out_of_range(self, tmp_path):
        p = tmp_path / "l.csv"
        p.write_text("label,s0,s1\n2,0.5,0.5\n")
        with pytest.raises(DataError):
            read_scores(str(p))

    def test_peak_memory_stays_near_table_size(self, tmp_path):
        # The file is streamed: no copy of its text or list of its lines is
        # held beside the parsed table.
        rng = np.random.default_rng(75)
        path = write_fixture(tmp_path / "big.csv", make_table(rng, 5000, 100))
        tracemalloc.start()
        try:
            got = read_scores(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * (got.scores.nbytes + got.labels.nbytes)

    def test_header_only(self, tmp_path):
        p = tmp_path / "h.csv"
        p.write_text("s0,s1\n")
        with pytest.raises(DataError, match="no data rows"):
            read_scores(str(p))


class TestCalibrateCommand:
    def _fixture(self, tmp_path, seed=72, m=400, n=400):
        rng = np.random.default_rng(seed)
        # Separated two-class scores so the pipeline solves cleanly.
        labels = rng.integers(0, 2, size=m)
        centers = np.array([0.3, 0.7])
        s1 = np.clip(centers[labels] + 0.1 * rng.standard_normal(m), 0.01, 0.99)
        src = ScoreTable(scores=np.column_stack([1 - s1, s1]), labels=labels)
        t1 = np.clip(
            centers[rng.integers(0, 2, size=n)] + 0.1 * rng.standard_normal(n), 0.01, 0.99
        )
        tgt = ScoreTable(scores=np.column_stack([1 - t1, t1]))
        return (
            write_fixture(tmp_path / "src.csv", src),
            write_fixture(tmp_path / "tgt.csv", tgt),
        )

    def _run(self, tmp_path, out_name, **overrides):
        src, tgt = self._fixture(tmp_path)
        out = str(tmp_path / out_name)
        args = {
            "--epsilon": "0.2", "--delta": "0.05", "--seed": "5",
            "--source": src, "--target": tgt, "--out": out,
        }
        args.update(overrides)
        argv = ["calibrate"] + [x for kv in args.items() for x in kv]
        return main(argv), out

    def test_success_and_determinism(self, tmp_path):
        code1, out1 = self._run(tmp_path, "r1.json")
        code2, out2 = self._run(tmp_path, "r2.json")
        assert code1 == code2 == EXIT_OK
        r1, r2 = json.load(open(out1)), json.load(open(out2))
        assert r1 == r2
        assert r1["status"] == "calibrated" and 0.0 < r1["tau"] < 1.0
        assert r1["weight_box"]["envelope_b"] >= max(r1["weight_box"]["hi"]) - 1e-12

    def test_report_without_out_goes_to_stdout(self, tmp_path, capsys):
        code, out = self._run(tmp_path, "r.json")
        assert code == EXIT_OK
        capsys.readouterr()
        argv = ["calibrate", "--epsilon", "0.2", "--delta", "0.05", "--seed", "5",
                "--source", str(tmp_path / "src.csv"), "--target", str(tmp_path / "tgt.csv")]
        assert main(argv) == EXIT_OK
        *report, message = capsys.readouterr().out.splitlines()
        assert message.startswith("tau = ")
        assert json.loads("\n".join(report)) == json.load(open(out))

    def test_bad_epsilon_is_config_error(self, tmp_path):
        code, _ = self._run(tmp_path, "r.json", **{"--epsilon": "1.5"})
        assert code == EXIT_CONFIG

    def test_k_mismatch_is_data_error(self, tmp_path):
        rng = np.random.default_rng(73)
        src, _ = self._fixture(tmp_path)
        tgt3 = write_fixture(tmp_path / "t3.csv", make_table(rng, 20, 3, labeled=False))
        code = main(["calibrate", "--epsilon", "0.2", "--delta", "0.05",
                     "--source", src, "--target", tgt3])
        assert code == EXIT_DATA

    def test_unlabeled_source_is_data_error(self, tmp_path):
        rng = np.random.default_rng(74)
        src = write_fixture(tmp_path / "s.csv", make_table(rng, 20, 2, labeled=False))
        tgt = write_fixture(tmp_path / "t.csv", make_table(rng, 20, 2, labeled=False))
        code = main(["calibrate", "--epsilon", "0.2", "--delta", "0.05",
                     "--source", src, "--target", tgt])
        assert code == EXIT_DATA

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_true_label_score_is_data_error(self, tmp_path, capsys, bad):
        src, tgt = self._fixture(tmp_path)
        lines = open(src).read().splitlines()
        label, *cells = lines[2].split(",")  # first row after tag and header
        cells[int(label)] = bad
        lines[2] = ",".join([label] + cells)
        open(src, "w").write("\n".join(lines) + "\n")
        code = main(["calibrate", "--epsilon", "0.2", "--delta", "0.05",
                     "--source", src, "--target", tgt])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err == f"data error: {src}:3: true-label scores must be finite\n"

    def test_nan_off_label_score_is_never_predicted(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("label,s0,s1,s2\n0,0.3,nan,0.7\n2,nan,0.1,0.5\n1,0.2,0.2,nan\n")
        conf = estimate_confusion(read_scores(str(path)))
        want = np.zeros((3, 3), dtype=int)
        want[2, 0] = want[2, 2] = want[0, 1] = 1  # [predicted, true]
        np.testing.assert_array_equal(conf, want)

    @pytest.mark.parametrize("which", ["--source", "--target"])
    @pytest.mark.parametrize("where", ["header", "row"])
    def test_non_utf8_file_is_data_error(self, tmp_path, capsys, which, where):
        src, tgt = self._fixture(tmp_path)
        path = src if which == "--source" else tgt
        raw = open(path, "rb").read().split(b"\n")
        # Line 1 is the version tag, line 2 the header; the last row is far
        # enough into the file to be decoded while NumPy parses.
        at = 1 if where == "header" else -2
        raw[at] = raw[at].replace(b",", b"\xff,", 1)
        open(path, "wb").write(b"\n".join(raw))
        code = main(["calibrate", "--epsilon", "0.2", "--delta", "0.05",
                     "--source", src, "--target", tgt])
        assert code == EXIT_DATA
        assert f"{path}: not UTF-8 text" in capsys.readouterr().err

    def test_abort_exit_code(self, tmp_path):
        # Source whose classifier never predicts class 1: singular confusion.
        src = ScoreTable(scores=np.tile([0.9, 0.1], (60, 1)),
                         labels=np.tile([0, 1], 30))
        tgt = ScoreTable(scores=np.tile([0.9, 0.1], (60, 1)))
        s = write_fixture(tmp_path / "s.csv", src)
        t = write_fixture(tmp_path / "t.csv", tgt)
        out = str(tmp_path / "r.json")
        code = main(["calibrate", "--epsilon", "0.2", "--delta", "0.05",
                     "--source", s, "--target", t, "--out", out])
        assert code == EXIT_ABORT
        report = json.load(open(out))
        assert report["status"] == "aborted" and "abort_reason" in report


class TestExperimentCommand:
    def _scenario(self, tmp_path, text=SCENARIO):
        p = tmp_path / "scenario.txt"
        p.write_text(text)
        return str(p)

    def _run(self, tmp_path, outdir, extra=()):
        argv = ["experiment", "--epsilon", "0.2", "--delta", "0.05",
                "--scenario", self._scenario(tmp_path), "--trials", "3",
                "--seed", "9", "--method", "PS", "--method", "PS-C",
                "--out", str(tmp_path / outdir), *extra]
        return main(argv)

    def test_smoke_and_outputs(self, tmp_path):
        assert self._run(tmp_path, "out") == EXIT_OK
        jsonl = tmp_path / "out" / "reports.jsonl"
        summary = tmp_path / "out" / "summary.csv"
        lines = jsonl.read_text().splitlines()
        assert lines[0] == FORMAT_TAG
        rows = [json.loads(x) for x in lines[1:]]
        assert len(rows) == 6  # 2 methods x 3 trials
        assert {r["method"] for r in rows} == {"PS", "PS-C"}
        with open(summary) as fh:
            assert fh.readline().strip() == FORMAT_TAG
            table = list(csv.DictReader(fh))
        assert {r["method"] for r in table} == {"PS", "PS-C"}
        for r in table:
            assert int(r["trials"]) == 3
            float(r["mean_error"]), float(r["mean_size"])

    def test_repeated_method_runs_once(self, tmp_path):
        assert self._run(tmp_path, "out", ["--method", "PS"]) == EXIT_OK
        lines = (tmp_path / "out" / "reports.jsonl").read_text().splitlines()
        assert [json.loads(x)["method"] for x in lines[1:]] == ["PS", "PS-C"] * 3
        with open(tmp_path / "out" / "summary.csv") as fh:
            fh.readline()
            assert [int(r["trials"]) for r in csv.DictReader(fh)] == [3, 3]

    def test_summary_columns_are_the_aggregate_keys(self, tmp_path):
        assert self._run(tmp_path, "out") == EXIT_OK
        spec, model = read_scenario(self._scenario(tmp_path))
        rp = RiskParams(0.2, 0.05)
        summary = aggregate(run_trials(spec, model, ["PS", "PS-C"], rp, 3, 9), rp.epsilon)
        lines = (tmp_path / "out" / "summary.csv").read_text().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        assert all(rows[0] == ["method", *s] for s in summary.values())
        assert rows[1:] == [[m, *map(repr, s.values())] for m, s in summary.items()]

    def test_repeat_run_is_deterministic(self, tmp_path):
        self._run(tmp_path, "a")
        self._run(tmp_path, "b")
        assert (tmp_path / "a" / "reports.jsonl").read_text() == (
            tmp_path / "b" / "reports.jsonl"
        ).read_text()
        assert (tmp_path / "a" / "summary.csv").read_text() == (
            tmp_path / "b" / "summary.csv"
        ).read_text()

    def test_missing_scenario_key_is_config_error(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("source_dist = 0.5,0.5\nm = 10\n")
        code = main(["experiment", "--epsilon", "0.2", "--delta", "0.05",
                     "--scenario", str(p)])
        assert code == EXIT_CONFIG

    def test_malformed_scenario_line_is_config_error(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("source_dist 0.5,0.5\n")
        code = main(["experiment", "--epsilon", "0.2", "--delta", "0.05",
                     "--scenario", str(p)])
        assert code == EXIT_CONFIG

    def test_k_mismatch_scenario_is_config_error(self, tmp_path, capsys):
        # One noise_scale value, so the model builds and read_scenario's K check runs.
        text = SCENARIO.replace("centers = -6;6;0", "centers = -6;6").replace(
            "noise_scale = 1,1,36", "noise_scale = 1")
        code = main(["experiment", "--epsilon", "0.2", "--delta", "0.05",
                     "--scenario", self._scenario(tmp_path, text)])
        assert code == EXIT_CONFIG
        assert "centers imply K=2, distributions K=3" in capsys.readouterr().err

    def test_center_with_coordinates_is_config_error(self, tmp_path, capsys):
        text = SCENARIO.replace("centers = -6;6;0", "centers = -6,1;6,1;0,1")
        code = main(["experiment", "--epsilon", "0.2", "--delta", "0.05",
                     "--scenario", self._scenario(tmp_path, text),
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert "Traceback" not in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_scenario_directory_is_config_error(self, tmp_path, capsys):
        code = main(["experiment", "--epsilon", "0.2", "--delta", "0.05",
                     "--scenario", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert f"cannot read {tmp_path}" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["m", "n", "o"])
    def test_zero_sample_size_is_config_error(self, tmp_path, capsys, key):
        text = SCENARIO.replace(f"{key} = 400", f"{key} = 0")
        code = main(["experiment", "--epsilon", "0.2", "--delta", "0.05",
                     "--scenario", self._scenario(tmp_path, text),
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert "m, n and o must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("old,new", [
        ("source_dist = 0.2,0.2,0.6", "source_dist = 0.2,nan,0.6"),
        ("target_dist = 0.05,0.05,0.9", "target_dist = nan,0.05,0.9"),
        ("noise_scale = 1,1,36", "noise_scale = 1,nan,36"),
        ("noise_scale = 1,1,36", "noise_scale = 1,inf,36"),
        ("temperature = 430", "temperature = nan"),
        ("temperature = 430", "temperature = inf"),
        ("centers = -6;6;0", "centers = -6;nan;0"),
    ], ids=["source_dist", "target_dist", "noise_scale", "noise_scale-inf", "temperature",
            "temperature-inf", "centers"])
    def test_non_finite_scenario_value_is_config_error(self, tmp_path, capsys, old, new):
        code = main(["experiment", "--epsilon", "0.2", "--delta", "0.05",
                     "--scenario", self._scenario(tmp_path, SCENARIO.replace(old, new)),
                     "--trials", "1", "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert "Traceback" not in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("trials", ["0", "-1"])
    def test_trials_below_one_is_config_error(self, tmp_path, capsys, trials):
        code = main(["experiment", "--epsilon", "0.2", "--delta", "0.05",
                     "--scenario", self._scenario(tmp_path), "--trials", trials,
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert "--trials must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_unknown_method_rejected(self, tmp_path, capsys):
        with_bad = ["experiment", "--epsilon", "0.2", "--delta", "0.05",
                    "--scenario", self._scenario(tmp_path), "--method", "PS-X"]
        assert main(with_bad) == EXIT_CONFIG
        capsys.readouterr()


def experiment_argv(tmp_path, scenario: bytes, *extra):
    path = tmp_path / "scenario.txt"
    path.write_bytes(scenario)
    return ["experiment", "--epsilon", "0.2", "--delta", "0.05", "--trials", "1",
            "--scenario", str(path), "--out", str(tmp_path / "out"), *extra]


def calibrate_argv(tmp_path, *extra):
    rng = np.random.default_rng(76)
    src = write_fixture(tmp_path / "s.csv", make_table(rng, 20, 2))
    tgt = write_fixture(tmp_path / "t.csv", make_table(rng, 20, 2, labeled=False))
    return ["calibrate", "--epsilon", "0.2", "--delta", "0.05",
            "--source", src, "--target", tgt, *extra]


@pytest.mark.parametrize("argv, message", [
    (lambda d: experiment_argv(d, b"\xff"),
     "{d}/scenario.txt: not UTF-8 text (invalid start byte)"),
    (lambda d: experiment_argv(d, SCENARIO.replace("n = 400", " \t\nn = 400").encode()),
     "{d}/scenario.txt:5: expected 'key = value'"),
    (lambda d: experiment_argv(d, SCENARIO.replace("n = 400", "  # note\nn = 400").encode()),
     "{d}/scenario.txt:5: expected 'key = value'"),
    (lambda d: experiment_argv(d, (SCENARIO + "temprature = 2\n").encode()),
     "{d}/scenario.txt:10: unknown key 'temprature'"),
    (lambda d: experiment_argv(d, (SCENARIO + "m = 10\n").encode()),
     "{d}/scenario.txt:10: repeated key 'm'"),
    (lambda d: experiment_argv(d, SCENARIO.encode(), "--seed", "-1"), "--seed must be >= 0"),
    # The seed is checked before the scenario file is read.
    (lambda d: experiment_argv(d, b"\xff", "--seed", "-1"), "--seed must be >= 0"),
    (lambda d: calibrate_argv(d, "--seed", "-1", "--out", str(d / "out")), "--seed must be >= 0"),
    (lambda d: calibrate_argv(d, "--out", str(d / "missing" / "r.json")),
     "[Errno 2] No such file or directory: '{d}/missing/r.json'"),
    (lambda d: calibrate_argv(d, "--out", str(d)), "[Errno 21] Is a directory: '{d}'"),
    (lambda d: experiment_argv(d, SCENARIO.encode(), "--out", str(d / "scenario.txt")),
     "[Errno 17] File exists: '{d}/scenario.txt'"),
    (lambda d: experiment_argv(d, SCENARIO.encode(), "--delta", "5e-324"),
     "delta 5e-324 is too small to split over 13 levels"),
    (lambda d: calibrate_argv(d, "--delta", "5e-324", "--out", str(d / "out")),
     "delta 5e-324 is too small to split over 7 levels"),
    # --out is checked before either score file is opened.
    (lambda d: ["calibrate", "--epsilon", "0.2", "--delta", "0.05", "--source", str(d / "no.csv"),
                "--target", str(d / "no.csv"), "--out", str(d / "missing" / "r.json")],
     "[Errno 2] No such file or directory: '{d}/missing/r.json'"),
    # delta is checked against K from the source header before any data row is parsed.
    (lambda d: ["calibrate", "--epsilon", "0.2", "--delta", "5e-324",
                "--source", write_text(d / "s.csv", "label,s0,s1\nx,y,z\n"),
                "--target", str(d / "no.csv"), "--out", str(d / "out")],
     "delta 5e-324 is too small to split over 7 levels"),
    # An empty --out names no file: calibrate fails before it reads a score file,
    # and experiment writes nothing to the working directory.
    (lambda d: ["calibrate", "--epsilon", "0.2", "--delta", "0.05", "--source", str(d / "no.csv"),
                "--target", str(d / "no.csv"), "--out", ""],
     "[Errno 2] No such file or directory: ''"),
    (lambda d: experiment_argv(d, SCENARIO.encode(), "--out", ""),
     "[Errno 2] No such file or directory: ''"),
], ids=["non-utf8-scenario", "blank-scenario-line", "indented-comment", "unknown-key",
        "repeated-key", "experiment-seed", "seed-before-non-utf8-scenario", "calibrate-seed",
        "calibrate-out-missing-dir", "calibrate-out-is-dir", "experiment-out-is-file",
        "experiment-tiny-delta", "calibrate-tiny-delta", "calibrate-out-before-source",
        "calibrate-delta-before-rows", "calibrate-out-empty", "experiment-out-empty"])
def test_config_error_without_traceback(tmp_path, capsys, argv, message):
    assert main(argv(tmp_path)) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {message.format(d=tmp_path)}\n"
    assert not (tmp_path / "out").exists()


# The seed-5 source table of this scenario has confusion counts 4 and 6, which
# have no betaincinv lower endpoint at the CP level that --delta 1e-170 gives.
TINY_DELTA_SCENARIO = """\
source_dist = 0.3,0.3,0.4
target_dist = 0.2,0.2,0.6
m = 300
n = 300
o = 300
centers = -3;3;0
noise_scale = 1
"""


class TestTinyDelta:
    @pytest.fixture
    def scenario(self, tmp_path):
        path = tmp_path / "scenario.txt"
        path.write_text(TINY_DELTA_SCENARIO)
        return str(path)

    def test_calibrate_writes_a_report(self, tmp_path, scenario):
        src, tgt, _ = sample_shifted(*read_scenario(scenario), 5)
        s = write_fixture(tmp_path / "s.csv", src)
        t = write_fixture(tmp_path / "t.csv", tgt)
        out = tmp_path / "r.json"
        code = main(["calibrate", "--epsilon", "0.2", "--delta", "1e-170",
                     "--source", s, "--target", t, "--out", str(out)])
        assert code in (EXIT_OK, EXIT_ABORT)
        assert json.loads(out.read_text())["delta"] == 1e-170

    @pytest.mark.parametrize("method", ["PS", "PS-W"])
    def test_experiment_runs(self, tmp_path, scenario, method):
        code = main(["experiment", "--epsilon", "0.2", "--delta", "1e-170",
                     "--scenario", scenario, "--method", method, "--trials", "2",
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_OK


BOM = "\ufeff".encode()


def with_arg(argv, flag, value):
    """A copy of `argv` with the value after `flag` replaced."""
    argv = list(argv)
    argv[argv.index(flag) + 1] = value
    return argv


class TestByteOrderMark:
    def test_score_files_read_as_without(self, tmp_path):
        argv = calibrate_argv(tmp_path, "--seed", "5", "--out", str(tmp_path / "plain.json"))
        code = main(argv)
        for flag, name in (("--source", "s.csv"), ("--target", "t.csv")):
            marked = tmp_path / f"bom-{name}"
            marked.write_bytes(BOM + (tmp_path / name).read_bytes())
            got, want = read_scores(str(marked)), read_scores(str(tmp_path / name))
            np.testing.assert_array_equal(got.scores, want.scores)
            np.testing.assert_array_equal(got.labels, want.labels)
            argv = with_arg(argv, flag, str(marked))
        assert main(with_arg(argv, "--out", str(tmp_path / "bom.json"))) == code
        assert (tmp_path / "bom.json").read_bytes() == (tmp_path / "plain.json").read_bytes()

    def test_scenario_file_reads_as_without(self, tmp_path):
        outputs = []
        for name, prefix in (("plain", b""), ("bom", BOM)):
            (tmp_path / name).mkdir()
            argv = experiment_argv(tmp_path / name, prefix + SCENARIO.encode(), "--method", "PS")
            assert main(argv) == EXIT_OK
            outputs.append((tmp_path / name / "out" / "reports.jsonl").read_text())
        assert outputs[0] == outputs[1]


def test_calibrate_opens_each_input_once(tmp_path, monkeypatch):
    opened = []
    kept_lines = cli._kept_lines

    def spy(path, *args):
        opened.append(path)
        return kept_lines(path, *args)

    monkeypatch.setattr(cli, "_kept_lines", spy)
    assert main(calibrate_argv(tmp_path, "--out", str(tmp_path / "r.json"))) == EXIT_ABORT
    assert opened == [str(tmp_path / "s.csv"), str(tmp_path / "t.csv")]


def run_python(args, **kwargs):
    """Run a fresh interpreter that imports this pacshift; a hang fails the test."""
    src = str(Path(pacshift.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=60, **kwargs)


def run_cli(argv, **kwargs):
    """Run the CLI in a child process; a hang fails the test instead of stalling the suite."""
    return run_python(["-m", "pacshift.cli", *argv], **kwargs)


# Run in a fresh interpreter: argv[1] is a directory to write files in. The last
# stdout line is the binom_k value and the cp_interval endpoints, as float.hex.
LAZY_SCIPY_SCRIPT = """\
import json, sys
from pathlib import Path

def loaded():
    return "scipy.special" in sys.modules

import pacshift
assert not loaded(), "import pacshift"
import pacshift.cli
assert not loaded(), "import pacshift.cli"
from pacshift import RiskParams, binom_k, cp_interval
from pacshift.cli import main

d = Path(sys.argv[1])
assert main(["--help"]) == 0 and not loaded(), "--help"
calibrate = ["calibrate", "--epsilon", "0.2", "--delta", "0.05", "--target", str(d / "no.csv")]
out_missing = ["--source", str(d / "no.csv"), "--out", str(d / "missing" / "r.json")]
assert main(calibrate + out_missing) == 2 and not loaded(), "--out in a missing directory"
(d / "bad.csv").write_text("label,x0,x1\\n0,0.5,0.5\\n")
bad_header = ["--source", str(d / "bad.csv"), "--out", str(d / "r.json")]
assert main(calibrate + bad_header) == 3 and not loaded(), "bad header"
k = int(binom_k(100, RiskParams(0.1, 0.05)))
assert loaded(), "binom_k"
iv = cp_interval(3, 50, 0.01)
print(json.dumps([k, float(iv.lo).hex(), float(iv.hi).hex()]))
"""


def test_scipy_loads_on_the_first_binomial_computation(tmp_path):
    child = run_python(["-c", LAZY_SCIPY_SCRIPT, str(tmp_path)], text=True)
    assert child.returncode == 0, child.stderr
    assert "bad header" in child.stderr
    iv = cp_interval(3, 50, 0.01)
    expected = [int(binom_k(100, RiskParams(0.1, 0.05))), float(iv.lo).hex(), float(iv.hi).hex()]
    assert json.loads(child.stdout.splitlines()[-1]) == expected


@contextlib.contextmanager
def fifo_feeding(path, data: bytes):
    """Make a FIFO at `path` and write `data` into it from a thread while the block runs."""
    os.mkfifo(path)

    def write():
        with contextlib.suppress(BrokenPipeError), open(path, "wb") as fh:
            fh.write(data)

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    try:
        yield str(path)
    finally:
        if writer.is_alive():
            # A writer still waiting for a reader is let through, and then gets EPIPE.
            os.close(os.open(path, os.O_RDONLY | os.O_NONBLOCK))
        writer.join(timeout=10)
        assert not writer.is_alive()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="POSIX pipes and FIFOs only")
class TestPipedInput:
    """Each input is opened once, so a pipe, /dev/stdin or a FIFO reads like a regular file."""

    def _source(self, tmp_path, rows=40):
        rng = np.random.default_rng(77)
        src = write_fixture(tmp_path / "s.csv", make_table(rng, rows, 3))
        tgt = write_fixture(tmp_path / "t.csv", make_table(rng, rows, 3, labeled=False))
        argv = ["calibrate", "--epsilon", "0.2", "--delta", "0.05", "--seed", "5",
                "--source", src, "--target", tgt, "--out", str(tmp_path / "file.json")]
        return argv, (tmp_path / "s.csv").read_bytes()

    def _piped(self, tmp_path, how, argv, flag, data):
        """Run `argv` in a child with the input after `flag` fed through stdin or a FIFO."""
        if how == "stdin":
            return run_cli(with_arg(argv, flag, "/dev/stdin"), input=data)
        with fifo_feeding(tmp_path / "in.fifo", data) as fifo:
            return run_cli(with_arg(argv, flag, fifo))

    # 3000 rows overflow a pipe's buffer, so the child reads while the data is written.
    @pytest.mark.parametrize("rows", [40, 3000])
    @pytest.mark.parametrize("how", ["stdin", "fifo"])
    def test_report_matches_the_regular_file(self, tmp_path, how, rows):
        argv, data = self._source(tmp_path, rows)
        code = main(argv)
        piped = with_arg(argv, "--out", str(tmp_path / "piped.json"))
        proc = self._piped(tmp_path, how, piped, "--source", data)
        assert proc.returncode == code, proc.stderr
        assert (tmp_path / "piped.json").read_bytes() == (tmp_path / "file.json").read_bytes()

    @pytest.mark.parametrize("how", ["stdin", "fifo"])
    def test_bad_row_names_its_line(self, tmp_path, how):
        argv, data = self._source(tmp_path)
        # Counted like a regular file's: the version line and the header come first.
        lineno = data.count(b"\n") + 1
        proc = self._piped(tmp_path, how, argv, "--source", data + b"1,x,0.5,0.5\r\n")
        where = "/dev/stdin" if how == "stdin" else str(tmp_path / "in.fifo")
        assert proc.returncode == EXIT_DATA
        assert proc.stderr.decode() == f"data error: {where}:{lineno}: non-numeric cell\n"
        assert not (tmp_path / "file.json").exists()

    def test_bad_row_past_the_first_block_names_one_line(self, tmp_path, capsys):
        argv, data = self._source(tmp_path, rows=cli._BLOCK_LINES + 100)
        lines = data.splitlines(keepends=True)
        # Comments and blank lines in the first block, the bad row in the second.
        skipped = [b"# note\r\n", b"\r\n", b"#,,\n", b"\n"]
        cut = cli._BLOCK_LINES + 50
        lines = lines[:10] + skipped + lines[10:cut] + [b"1,0.5,oops,0.5\r\n"] + lines[cut:]
        lineno = len(skipped) + cut + 1
        data = b"".join(lines)
        bad = tmp_path / "bad.csv"
        bad.write_bytes(data)
        assert main(with_arg(argv, "--source", str(bad))) == EXIT_DATA
        messages = {str(bad): capsys.readouterr().err}
        for how, where in [("stdin", "/dev/stdin"), ("fifo", str(tmp_path / "in.fifo"))]:
            proc = self._piped(tmp_path, how, argv, "--source", data)
            assert proc.returncode == EXIT_DATA
            messages[where] = proc.stderr.decode()
        for where, message in messages.items():
            assert message == f"data error: {where}:{lineno}: non-numeric cell\n"

    def test_scenario_from_a_fifo(self, tmp_path):
        argv = experiment_argv(tmp_path, SCENARIO.encode(), "--method", "PS")
        assert main(argv) == EXIT_OK
        piped = with_arg(argv, "--out", str(tmp_path / "piped"))
        proc = self._piped(tmp_path, "fifo", piped, "--scenario", SCENARIO.encode())
        assert proc.returncode == EXIT_OK, proc.stderr
        for name in ("reports.jsonl", "summary.csv"):
            want = (tmp_path / "out" / name).read_bytes()
            assert (tmp_path / "piped" / name).read_bytes() == want
