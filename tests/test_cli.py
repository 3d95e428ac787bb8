"""Tests for the command-line surface and file formats.

Covers the CSV round trip (including a fuzz pass), the exit-code contract
(0 ok, 2 config, 3 data, 4 abort), and determinism of both subcommands.
"""

import csv
import json
import tracemalloc

import numpy as np
import pytest

from pacshift import ScoreTable
from pacshift.cli import (
    EXIT_ABORT,
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_OK,
    FORMAT_TAG,
    DataError,
    main,
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
        assert "true-label scores must be finite" in capsys.readouterr().err

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

    def test_k_mismatch_scenario_is_config_error(self, tmp_path):
        text = SCENARIO.replace("centers = -6;6;0", "centers = -6;6")
        code = main(["experiment", "--epsilon", "0.2", "--delta", "0.05",
                     "--scenario", self._scenario(tmp_path, text)])
        assert code == EXIT_CONFIG

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
        ("centers = -6;6;0", "centers = -6;nan;0"),
    ], ids=["source_dist", "target_dist", "noise_scale", "noise_scale-inf", "temperature",
            "centers"])
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
