"""Fixed-seed bytes of every file the CLI writes.

Pins the SHA-256 of ``reports.jsonl`` and ``summary.csv`` from one small
``experiment`` run, and of three ``calibrate`` reports (calibrated, full
set with a ``null`` tau, and an elimination abort).  A change to how the
CLI serialises its output must keep these digests; a change that moves
them on purpose must say why and re-record them.
"""

import hashlib

import pytest

from pacshift import ShiftSpec, SyntheticModel, sample_shifted
from pacshift.cli import main, write_scores

SCENARIO = """\
source_dist = 0.2,0.2,0.6
target_dist = 0.05,0.05,0.9
m = 300
n = 300
o = 300
centers = -6;6;0
noise_scale = 1,1,36
temperature = 430
"""

# Two trials at delta = 5e-4: PS-W and PS-C abort, so their tau is null.
EXPERIMENT = {
    "reports.jsonl": "ba0ef7594b4480cfd862b479c1e1b5659365d0b6f04b01ffff6c7a0031f156da",
    "summary.csv": "fbb05bfafb61e50bf158315d204616c2d30190443a4e395b44060f8b8371a4ca",
}

# (epsilon, delta) -> digest of the calibrate report on the seed-5 tables:
# calibrated, full set (tau null), aborted at step 1.
CALIBRATE = {
    ("0.2", "0.1"): "917b27f7e231619a55303f91b4186eda39ebe52d95247780fee4b0180d049344",
    ("0.1", "0.1"): "e306952d50b796445a46cb4f898c0a5952c356558cc9ae4f80d366a933468a01",
    ("0.2", "1e-09"): "cc876b7fa96f9b6074833a563c7ff66496b8c51d64d85531d360c0aa1b0a8dfd",
}


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_experiment_outputs(tmp_path):
    scenario = tmp_path / "scenario.txt"
    scenario.write_text(SCENARIO)
    argv = ["experiment", "--epsilon", "0.1", "--delta", "5e-4", "--scenario", str(scenario),
            "--trials", "2", "--seed", "3", "--out", str(tmp_path)]
    assert main(argv) == 0
    assert {name: sha256(tmp_path / name) for name in EXPERIMENT} == EXPERIMENT


@pytest.fixture(scope="module")
def score_files(tmp_path_factory):
    spec = ShiftSpec([0.3, 0.3, 0.4], [0.2, 0.2, 0.6], 300, 300, 300)
    model = SyntheticModel([[-3.0], [3.0], [0.0]], [1.0, 1.0, 1.0], 1.0)
    src, tgt, _ = sample_shifted(spec, model, 5)
    out = tmp_path_factory.mktemp("scores")
    write_scores(str(out / "src.csv"), src)
    write_scores(str(out / "tgt.csv"), tgt)
    return out


@pytest.mark.parametrize("epsilon,delta", list(CALIBRATE))
def test_calibrate_report(score_files, tmp_path, epsilon, delta):
    report = tmp_path / "report.json"
    main(["calibrate", "--epsilon", epsilon, "--delta", delta,
          "--source", str(score_files / "src.csv"), "--target", str(score_files / "tgt.csv"),
          "--seed", "4", "--out", str(report)])
    assert sha256(report) == CALIBRATE[(epsilon, delta)], report.read_text()
