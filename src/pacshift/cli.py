"""Command-line surface and file I/O.

Two subcommands:

* ``calibrate``  - read labeled source scores and unlabeled target scores
  from CSV, run the full interval-weight pipeline, and write the threshold
  plus weight-box diagnostics as JSON.
* ``experiment`` - run a repeated-trial synthetic experiment from a
  scenario spec file and write JSON-lines reports plus a CSV summary.

Exit codes: 0 success, 2 config error, 3 data error, 4 solver abort.
Emitted CSV and JSON-lines files start with the version line
``# pacshift-v1``; the ``calibrate`` JSON report carries it as its
``"format"`` key.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import os
import sys

import numpy as np

from .binomial import RiskParams
from .harness import METHODS, QUANTILES, aggregate, run_trials
from .intervals import Aborted
from .predsets import CALIBRATED, AcceptanceRandomness, psw_threshold
from .shift_sim import ShiftSpec, SyntheticModel
from .tables import ScoreTable
from .weights import delta_split, interval_level, weight_box

FORMAT_TAG = "# pacshift-v1"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_ABORT = 4


class ConfigError(Exception):
    pass


class DataError(Exception):
    pass


def _parse_rows(lines) -> np.ndarray:
    """Parse comma-separated numeric lines into a 2-D float array."""
    return np.loadtxt(lines, delimiter=",", quotechar='"', comments=None, dtype=float, ndmin=2)


def _bad_labels(labels: np.ndarray, k: int) -> np.ndarray:
    """Mask of label cells that are not integers in [0, k)."""
    return ~((labels == np.floor(labels)) & (labels >= 0) & (labels < k))


def _kept_lines(path: str):
    """Yield (physical line number, line) for each line that is not skipped.

    The file is read one line at a time with universal newlines; empty
    lines and lines starting with '#' are skipped.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.rstrip("\n")
                if line and line[0] != "#":
                    yield lineno, line
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc


def _first_bad_line(path: str, width: int, k: int, labeled: bool) -> DataError:
    """Re-read the data lines one at a time and describe the first bad one.

    Only runs after the bulk parse has failed or found a bad label, so
    error messages can name the physical line.
    """
    for lineno, line in itertools.islice(_kept_lines(path), 1, None):
        where = f"{path}:{lineno}"
        got = len(next(csv.reader([line])))
        if got != width:
            return DataError(f"{where}: expected {width} cells, got {got}")
        try:
            row = _parse_rows([line])
        except ValueError:
            return DataError(f"{where}: non-numeric cell")
        if labeled and _bad_labels(row[:, 0], k).any():
            return DataError(f"{where}: label out of range")
        if line.count('"') % 2:
            # A bulk parse carries an open quote over into the next line.
            return DataError(f"{where}: unterminated quote")
    return DataError(f"{path}: malformed score rows")


def read_scores(path: str) -> ScoreTable:
    """Read a score table from CSV.

    Header is either ``label,s0,...,s{K-1}`` (labeled) or ``s0,...,s{K-1}``
    (unlabeled); labels are 0-based integers.  Empty lines and lines
    starting with '#' are skipped; row order is preserved.  Errors name the
    physical line number.  Data lines are parsed in one pass with NumPy's
    float grammar: a cell it accepts gets the value ``float()`` gives it,
    bit for bit, but ``_`` digit separators are rejected.  The file is
    streamed, so no copy of its text is held beside the parsed table.
    """
    kept = _kept_lines(path)
    first = next(kept, None)
    if first is None:
        raise DataError(f"{path}: empty score file")
    header = [h.strip() for h in next(csv.reader([first[1]]))]
    labeled = header[0] == "label"
    score_cols = header[1:] if labeled else header
    if score_cols != [f"s{i}" for i in range(len(score_cols))] or len(score_cols) < 2:
        raise DataError(f"{path}: bad header {header!r}")
    k = len(score_cols)
    # An empty input would make np.loadtxt warn instead of failing.
    first_row = next(kept, None)
    if first_row is None:
        raise DataError(f"{path}: no data rows")
    rows = 0

    def counted():
        nonlocal rows
        for _, line in itertools.chain([first_row], kept):
            rows += 1
            yield line

    try:
        cells = _parse_rows(counted())
    except ValueError:
        cells = None
    if (
        cells is None
        or cells.shape != (rows, len(header))
        or (labeled and _bad_labels(cells[:, 0], k).any())
    ):
        raise _first_bad_line(path, len(header), k, labeled)
    labels = None
    if labeled:
        labels = cells[:, 0].astype(int)
        cells = cells[:, 1:]
    try:
        return ScoreTable(scores=cells, labels=labels)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from exc


def write_scores(path: str, table: ScoreTable):
    """Write a score table as versioned CSV (inverse of read_scores).

    Rows end in ``\\r\\n`` and cells are ``repr`` of the float, so the file
    is byte-identical to one written by ``csv.writer``.
    """
    head = [f"s{i}" for i in range(table.k)]
    rows = (",".join(map(repr, row.tolist())) for row in table.scores)
    if table.is_labeled:
        head.insert(0, "label")
        rows = (f"{lab},{row}" for lab, row in zip(table.labels.tolist(), rows))
    _write_tagged(path, [",".join(head)], rows, "\r\n")


def _write_tagged(path: str, head: list, lines, end: str):
    """Write the version line, then the head and body lines, each ending in `end`.

    The version line always ends in a bare newline.  Lines are written
    without newline translation, so the bytes are the same on every platform.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(FORMAT_TAG + "\n")
        fh.writelines(f"{line}{end}" for line in itertools.chain(head, lines))


def _json_float(x: float):
    """JSON has no NaN or infinity: a non-finite value (a tau of -inf or NaN) becomes null."""
    return x if math.isfinite(x) else None


def read_scenario(path: str) -> tuple[ShiftSpec, SyntheticModel]:
    """Parse a flat key/value scenario spec.

    Keys: source_dist, target_dist (comma-separated), m, n, o, centers
    (semicolon-separated points of comma-separated coordinates),
    noise_scale (scalar or one value per class), temperature.
    """
    fields: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
                key, _, value = line.partition("=")
                fields[key.strip()] = value.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    required = {"source_dist", "target_dist", "m", "n", "o", "centers"}
    missing = required - fields.keys()
    if missing:
        raise ConfigError(f"{path}: missing keys {sorted(missing)}")
    try:
        spec = ShiftSpec(
            source_dist=[float(x) for x in fields["source_dist"].split(",")],
            target_dist=[float(x) for x in fields["target_dist"].split(",")],
            m=int(fields["m"]),
            n=int(fields["n"]),
            o=int(fields["o"]),
        )
        centers = [
            [float(x) for x in point.split(",")]
            for point in fields["centers"].split(";")
        ]
        model = SyntheticModel(
            class_centers=np.array(centers),
            noise_scale=[float(x) for x in fields.get("noise_scale", "1.0").split(",")],
            temperature=float(fields.get("temperature", "1.0")),
        )
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if model.k != spec.k:
        raise ConfigError(f"{path}: centers imply K={model.k}, distributions K={spec.k}")
    if 0 in (spec.m, spec.n, spec.o):
        raise ConfigError(f"{path}: m, n and o must be >= 1")
    return spec, model


def _risk_params(args) -> RiskParams:
    try:
        return RiskParams(epsilon=args.epsilon, delta=args.delta)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def cmd_calibrate(args) -> int:
    rp = _risk_params(args)
    src = read_scores(args.source)
    tgt = read_scores(args.target)
    if not src.is_labeled:
        raise DataError("source table must be labeled")
    if src.k != tgt.k:
        raise DataError(f"K mismatch: source {src.k}, target {tgt.k}")

    K = src.k
    box_budget, calib_delta = delta_split(K, rp.delta)
    box = weight_box(src, tgt, box_budget)
    report = {
        "format": FORMAT_TAG.lstrip("# "),
        "epsilon": rp.epsilon,
        "delta": rp.delta,
        "per_interval_delta": interval_level(K, box_budget),
        "calibration_delta": calib_delta,
        "seed": args.seed,
    }
    if isinstance(box, Aborted):
        report.update(status="aborted", abort_step=box.step, abort_reason=box.reason)
        code, stream, message = EXIT_ABORT, sys.stderr, f"aborted at step {box.step}: {box.reason}"
    else:
        v = AcceptanceRandomness.draw(src.n, args.seed)
        result = psw_threshold(src, v, box, RiskParams(rp.epsilon, calib_delta))
        report.update(
            status=result.status,
            tau=_json_float(result.tau),
            weight_box={
                "lo": box.lo.tolist(), "hi": box.hi.tolist(), "envelope_b": box.envelope_b
            },
        )
        code, stream = EXIT_OK, sys.stdout
        if result.status == CALIBRATED:
            message = f"tau = {result.tau:.6g}  (b = {box.envelope_b:.4g})"
        else:
            message = "full prediction set (no feasible threshold)"
    _write_json(args.out, report)
    print(message, file=stream)
    return code


def cmd_experiment(args) -> int:
    rp = _risk_params(args)
    if args.trials < 1:
        raise ConfigError("--trials must be >= 1")
    spec, model = read_scenario(args.scenario)
    methods = args.method or list(METHODS)
    reports = run_trials(spec, model, methods, rp, args.trials, args.seed)
    summary = aggregate(reports, rp.epsilon)

    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    jsonl = os.path.join(out, "reports.jsonl")
    _write_tagged(jsonl, [], (
        json.dumps({"method": r.method, "trial": r.trial, "error": r.error,
                    "avg_size": r.avg_size, "tau": _json_float(r.tau), "aborted": r.aborted})
        for r in reports
    ), "\n")
    head = ["method", "trials", "violations", "aborts", "mean_error", "mean_size"]
    head += [f"error_q{q}" for q in QUANTILES] + [f"size_q{q}" for q in QUANTILES]
    summary_path = os.path.join(out, "summary.csv")
    _write_tagged(summary_path, [",".join(head)], (
        ",".join([method, *map(repr, [
            s["trials"], s["violations"], s["aborts"], s["mean_error"], s["mean_size"],
            *(s["error_quantiles"][q] for q in QUANTILES),
            *(s["size_quantiles"][q] for q in QUANTILES),
        ])])
        for method, s in summary.items()
    ), "\r\n")
    for method, s in summary.items():
        print(
            f"{method:7s} trials={s['trials']} violations={s['violations']} "
            f"mean_error={s['mean_error']:.4f} mean_size={s['mean_size']:.3f}"
        )
    print(f"wrote {jsonl} and {summary_path}")
    return EXIT_OK


def _write_json(path: str | None, payload: dict):
    text = json.dumps(payload, indent=2) + "\n"
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pacshift",
        description="PAC prediction sets under label shift",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--epsilon", type=float, required=True, help="error budget in (0,1)")
    common.add_argument("--delta", type=float, required=True, help="failure budget in (0,1)")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--out", default=None, help="output path (file or directory)")

    cal = sub.add_parser("calibrate", parents=[common], help="calibrate from score files")
    cal.add_argument("--source", required=True, help="labeled source score CSV")
    cal.add_argument("--target", required=True, help="unlabeled target score CSV")
    cal.set_defaults(func=cmd_calibrate)

    exp = sub.add_parser("experiment", parents=[common], help="run a synthetic experiment")
    exp.add_argument("--scenario", required=True, help="scenario spec file")
    exp.add_argument("--method", action="append", choices=list(METHODS),
                     help="repeatable; default: all methods")
    exp.add_argument("--trials", type=int, default=100)
    exp.set_defaults(func=cmd_experiment)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on bad usage, which matches our config code
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
