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
import dataclasses
import itertools
import json
import math
import os
import sys

import numpy as np

from .binomial import RiskParams
from .harness import METHODS, aggregate, run_trials
from .intervals import Aborted
from .predsets import ABORTED, CALIBRATED, AcceptanceRandomness, psw_threshold
from .shift_sim import ShiftSpec, SyntheticModel
from .tables import ScoreTable
from .weights import delta_split, interval_level, weight_box

FORMAT_TAG = "# pacshift-v1"

# The closed set of scenario keys with their defaults; None marks a required key.
_SCENARIO_KEYS = {**dict.fromkeys(["source_dist", "target_dist", "m", "n", "o", "centers"]),
                  "noise_scale": "1.0", "temperature": "1.0"}

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_ABORT = 4

# Score-file data lines per np.loadtxt call; a parse holds one block's text beyond the table.
_BLOCK_LINES = 256


class ConfigError(Exception):
    pass


class DataError(Exception):
    pass


def _parse_rows(lines) -> np.ndarray:
    """Parse comma-separated numeric lines into a 2-D float array."""
    return np.loadtxt(lines, delimiter=",", quotechar='"', comments=None, dtype=float, ndmin=2)


def _table(cells: np.ndarray, labeled: bool) -> ScoreTable:
    """Build the table from parsed cells; ScoreTable says what a valid row is."""
    return ScoreTable(cells[:, 1:], cells[:, 0]) if labeled else ScoreTable(cells)


def _kept_lines(path: str, error: type[Exception] = DataError):
    """Yield (physical line number, line) for each line that is not skipped.

    The file is read once, one line at a time with universal newlines; a
    leading byte-order mark, empty lines and lines starting with '#' are
    skipped.  A file that cannot be read, or is not UTF-8, raises ``error``.
    """
    try:
        with open(path, encoding="utf-8-sig") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.rstrip("\n")
                if line and line[0] != "#":
                    yield lineno, line
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text ({exc.reason})") from exc
    except OSError as exc:
        raise error(f"cannot read {path}: {exc}") from exc


def _bad_line(path: str, block: list, width: int, labeled: bool) -> DataError:
    """Describe the first of a failed block's (line number, line) pairs that breaks a rule.

    Every ScoreTable rule is about one row, so the line that breaks it is found here.
    """
    for lineno, line in block:
        where = f"{path}:{lineno}"
        got = len(next(csv.reader([line])))
        if got != width:
            return DataError(f"{where}: expected {width} cells, got {got}")
        try:
            row = _parse_rows([line])
        except ValueError:
            return DataError(f"{where}: non-numeric cell")
        try:
            _table(row, labeled)
        except ValueError as exc:
            return DataError(f"{where}: {exc}")
        if line.count('"') % 2:
            # A block parse carries an open quote over into the next line.
            return DataError(f"{where}: unterminated quote")
    return DataError(f"{path}: malformed score rows")


def _score_header(path: str):
    """Open a score file and check its header: (its kept lines after it, labeled, K)."""
    kept = _kept_lines(path)
    first = next(kept, None)
    if first is None:
        raise DataError(f"{path}: empty score file")
    header = [h.strip() for h in next(csv.reader([first[1]]))]
    labeled = header[0] == "label"
    score_cols = header[1:] if labeled else header
    if score_cols != [f"s{i}" for i in range(len(score_cols))] or len(score_cols) < 2:
        raise DataError(f"{path}: bad header {header!r}")
    return kept, labeled, len(score_cols)


def _score_rows(path: str, kept, labeled: bool, k: int) -> ScoreTable:
    """Parse the data lines that follow a score file's header into its table, block by block."""
    width = k + labeled
    # Grown in place, so a parse holds the table and one block, not a list of blocks.
    cells = np.empty((0, width))
    while block := list(itertools.islice(kept, _BLOCK_LINES)):
        try:
            part = _parse_rows([line for _, line in block])
            # An open quote on a block's last line runs to the end of the block and parses.
            if part.shape != (len(block), width) or block[-1][1].count('"') % 2:
                raise ValueError
            _table(part, labeled)
        except ValueError:
            raise _bad_line(path, block, width, labeled) from None
        cells.resize((len(cells) + len(part), width), refcheck=False)
        cells[-len(part):] = part
        del block, part  # before the next block is read
    if not len(cells):
        raise DataError(f"{path}: no data rows")
    return _table(cells, labeled)


def read_scores(path: str) -> ScoreTable:
    """Read a score table from CSV.

    Header is either ``label,s0,...,s{K-1}`` (labeled) or ``s0,...,s{K-1}``
    (unlabeled); labels are 0-based integers.  Lines are skipped as in
    ``_kept_lines``; row order is preserved.  Data lines are parsed in blocks
    with NumPy's float grammar: a cell it accepts gets the value ``float()``
    gives it, bit for bit, but ``_`` digit separators are rejected.  The
    file is streamed and read once, so a pipe or FIFO works, no copy of its
    text is held, and a row error names its physical line.
    """
    return _score_rows(path, *_score_header(path))


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
    """Write the version line ending in "\n", then every head and body line ending in `end`."""
    body = (f"{line}{end}" for line in itertools.chain(head, lines))
    _write(path, itertools.chain([FORMAT_TAG + "\n"], body))


def _check_out(path: str | None):
    """Fail now, creating nothing, if writing `path` must: "", a directory or a missing parent."""
    parent = os.path.dirname(path or "") or "."
    if path == "" or path and (os.path.isdir(path) or not os.path.isdir(parent)):
        open(path, "w").close()


def _write(path: str | None, chunks):
    """Write text chunks to the file at `path`, or to standard output if `path` is None.

    The only code that opens an output file.  It writes UTF-8 without
    newline translation, so the bytes are the same on every platform.
    """
    if path is None:
        sys.stdout.writelines(chunks)
    else:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.writelines(chunks)


def _json_float(x: float):
    """JSON has no NaN or infinity: a non-finite value (a tau of -inf or NaN) becomes null."""
    return x if math.isfinite(x) else None


def read_scenario(path: str) -> tuple[ShiftSpec, SyntheticModel]:
    """Parse a flat key/value scenario spec.

    Keys: source_dist, target_dist (comma-separated), m, n, o, centers
    (one number per class, semicolon-separated), noise_scale (scalar or
    one value per class, comma-separated), temperature.  Lines are
    skipped as in a score file; every other line sets one key, once.
    """
    fields: dict[str, str] = {}
    for lineno, line in _kept_lines(path, ConfigError):
        key, eq, value = (part.strip() for part in line.partition("="))
        if not eq:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        if key in fields or key not in _SCENARIO_KEYS:
            what = "repeated" if key in fields else "unknown"
            raise ConfigError(f"{path}:{lineno}: {what} key {key!r}")
        fields[key] = value
    fields = {**_SCENARIO_KEYS, **fields}
    missing = sorted(key for key, value in fields.items() if value is None)
    if missing:
        raise ConfigError(f"{path}: missing keys {missing}")
    try:
        spec = ShiftSpec(
            source_dist=[float(x) for x in fields["source_dist"].split(",")],
            target_dist=[float(x) for x in fields["target_dist"].split(",")],
            m=int(fields["m"]),
            n=int(fields["n"]),
            o=int(fields["o"]),
        )
        model = SyntheticModel(
            class_centers=[[float(x)] for x in fields["centers"].split(";")],
            noise_scale=[float(x) for x in fields["noise_scale"].split(",")],
            temperature=float(fields["temperature"]),
        )
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if model.k != spec.k:
        raise ConfigError(f"{path}: centers imply K={model.k}, distributions K={spec.k}")
    if 0 in (spec.m, spec.n, spec.o):
        raise ConfigError(f"{path}: m, n and o must be >= 1")
    return spec, model


def _call(error: type[Exception], fn, *args):
    """Return fn(*args), re-raising its ValueError as `error`."""
    try:
        return fn(*args)
    except ValueError as exc:
        raise error(str(exc)) from exc


def cmd_calibrate(args) -> int:
    rp = _call(ConfigError, RiskParams, args.epsilon, args.delta)
    _check_out(args.out)
    # K from the source header alone, so a too-small delta is reported before the data is read.
    kept, labeled, k = _score_header(args.source)
    box_budget, calib_delta = _call(ConfigError, delta_split, k, rp.delta)
    src = _score_rows(args.source, kept, labeled, k)
    tgt = read_scores(args.target)
    box = _call(DataError, weight_box, src, tgt, box_budget)
    report = {
        "format": FORMAT_TAG.lstrip("# "),
        "epsilon": rp.epsilon,
        "delta": rp.delta,
        "per_interval_delta": interval_level(k, box_budget),
        "calibration_delta": calib_delta,
        "seed": args.seed,
    }
    if isinstance(box, Aborted):
        report.update(status=ABORTED, abort_step=box.step, abort_reason=box.reason)
        code, stream, message = EXIT_ABORT, sys.stderr, f"aborted at step {box.step}: {box.reason}"
    else:
        v = AcceptanceRandomness.draw(src.n, args.seed)
        result = psw_threshold(src, v, box, RiskParams(rp.epsilon, calib_delta))
        box_json = {"lo": box.lo.tolist(), "hi": box.hi.tolist(), "envelope_b": box.envelope_b}
        report.update(status=result.status, tau=_json_float(result.tau), weight_box=box_json)
        code, stream = EXIT_OK, sys.stdout
        if result.status == CALIBRATED:
            message = f"tau = {result.tau:.6g}  (b = {box.envelope_b:.4g})"
        else:
            message = "full prediction set (no feasible threshold)"
    _write(args.out, [json.dumps(report, indent=2) + "\n"])
    print(message, file=stream)
    return code


def cmd_experiment(args) -> int:
    rp = _call(ConfigError, RiskParams, args.epsilon, args.delta)
    if args.trials < 1:
        raise ConfigError("--trials must be >= 1")
    spec, model = read_scenario(args.scenario)
    _call(ConfigError, delta_split, spec.k, rp.delta)
    out = "." if args.out is None else args.out
    os.makedirs(out, exist_ok=True)
    methods = args.method or list(METHODS)
    reports = run_trials(spec, model, methods, rp, args.trials, args.seed)
    summary = aggregate(reports, rp.epsilon)

    jsonl = os.path.join(out, "reports.jsonl")
    _write_tagged(jsonl, [], (
        json.dumps({**dataclasses.asdict(r), "tau": _json_float(r.tau), "aborted": r.aborted})
        for r in reports
    ), "\n")
    summary_path = os.path.join(out, "summary.csv")
    columns = ["method", *next(iter(summary.values()))]
    _write_tagged(summary_path, [",".join(columns)], (
        ",".join([method, *map(repr, s.values())]) for method, s in summary.items()
    ), "\r\n")
    for method, s in summary.items():
        print(
            f"{method:7s} trials={s['trials']} violations={s['violations']} "
            f"mean_error={s['mean_error']:.4f} mean_size={s['mean_size']:.3f}"
        )
    print(f"wrote {jsonl} and {summary_path}")
    return EXIT_OK


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
        if args.seed < 0:
            raise ConfigError("--seed must be >= 0")
        return args.func(args)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
