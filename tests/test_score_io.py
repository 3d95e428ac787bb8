"""Score CSV reader and writer against row-at-a-time references.

``oracle_read_scores`` is the reader that parsed one ``float()`` per cell
from ``csv`` rows, with errors naming the physical line (``csv``'s
``line_num``). It checks each row against ScoreTable's rules in
ScoreTable's order and with its messages, so a non-finite label is
rejected instead of crashing ``int()``. ``reference_write_scores`` is the
``csv.writer`` writer. The bulk reader must give bitwise-equal tables and
the same error at the same line; the bulk writer must give the same bytes.
"""

import csv
import math

import numpy as np
import pytest

from pacshift import ScoreTable
from pacshift.cli import _BLOCK_LINES, FORMAT_TAG, DataError, read_scores, write_scores


def oracle_read_scores(path):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        rows = [(reader.line_num, r) for r in reader if r and not r[0].startswith("#")]
    if not rows:
        raise DataError(f"{path}: empty score file")
    header = [h.strip() for h in rows[0][1]]
    labeled = header[0] == "label"
    score_cols = header[1:] if labeled else header
    if score_cols != [f"s{i}" for i in range(len(score_cols))] or len(score_cols) < 2:
        raise DataError(f"{path}: bad header {header!r}")
    k = len(score_cols)
    labels = [] if labeled else None
    scores = []
    for lineno, row in rows[1:]:
        if len(row) != len(header):
            raise DataError(f"{path}:{lineno}: expected {len(header)} cells, got {len(row)}")
        try:
            vals = [float(c) for c in row]
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: non-numeric cell") from exc
        row_scores = vals[1:] if labeled else vals
        if not any(math.isfinite(x) for x in row_scores):
            raise DataError(f"{path}:{lineno}: every row needs at least one finite score")
        if labeled:
            lab = vals[0]
            if math.isnan(lab) or (math.isfinite(lab) and lab != int(lab)):
                raise DataError(f"{path}:{lineno}: labels must be integers")
            if not 0 <= lab < k:
                raise DataError(f"{path}:{lineno}: labels out of range")
            if not math.isfinite(row_scores[int(lab)]):
                raise DataError(f"{path}:{lineno}: true-label scores must be finite")
            labels.append(int(lab))
        scores.append(row_scores)
    if not scores:
        raise DataError(f"{path}: no data rows")
    return ScoreTable(scores=np.array(scores), labels=np.array(labels) if labeled else None)


def reference_write_scores(path, table):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(FORMAT_TAG + "\n")
        writer = csv.writer(fh)
        cols = [f"s{i}" for i in range(table.k)]
        if table.is_labeled:
            writer.writerow(["label"] + cols)
            for lab, row in zip(table.labels, table.scores):
                writer.writerow([int(lab)] + [repr(float(x)) for x in row])
        else:
            writer.writerow(cols)
            for row in table.scores:
                writer.writerow([repr(float(x)) for x in row])


def random_doubles(rng, size):
    """Finite doubles from every binade, subnormals and signed zeros included."""
    bits = rng.integers(0, 2**64, size=size, dtype=np.uint64)
    x = bits.view(np.float64)
    x[~np.isfinite(x)] = -0.0
    return x


def special_table(rng, n, k, labeled):
    """Scores mixing probabilities, random bit patterns and extreme values;
    non-finite values only off the true label."""
    scores = rng.dirichlet(np.ones(k), size=n)
    pick = rng.random((n, k))
    scores[pick < 0.3] = random_doubles(rng, int((pick < 0.3).sum()))
    extremes = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                         1e-310, 1e308, -1e308, 1.7976931348623157e308])
    mask = pick > 0.9
    scores[mask] = rng.choice(extremes, size=int(mask.sum()))
    mask = pick > 0.97
    scores[mask] = rng.choice([np.inf, -np.inf, np.nan], size=int(mask.sum()))
    labels = rng.integers(0, k, size=n) if labeled else None
    rows = np.arange(n)
    if labeled:
        true = scores[rows, labels]
        scores[rows, labels] = np.where(np.isfinite(true), true, 0.25)
    else:
        scores[:, 0] = np.where(np.isfinite(scores[:, 0]), scores[:, 0], 0.5)
    return ScoreTable(scores=scores, labels=labels)


def spell(rng, x):
    """One of several spellings of the float x that float() reads exactly."""
    choice = rng.integers(0, 6)
    if choice == 0 or not math.isfinite(x):
        text = repr(x)
        if not math.isfinite(x) and choice == 1:
            text = {"inf": "Infinity", "-inf": "-INF", "nan": "NaN"}[text]
    elif choice == 1:
        text = f"{x:.17e}"
    elif choice == 2:
        text = f"{x:.17E}".replace("E+", "E")
    elif choice == 3:
        text = f"{x:.40g}"
    elif choice == 4:
        text = f"+{x!r}" if math.copysign(1.0, x) > 0 else repr(x)
    else:
        return f'"{x!r}"'
    pad = rng.choice(["", " ", "\t", "  "], size=2)
    return f"{pad[0]}{text}{pad[1]}"


def comment(rng):
    return rng.choice(["#", "# pacshift-v1", "# a, b, c", "#note", "#,,"])


def write_messy(path, rng, table):
    """Write table as CSV text with comments, blank lines and mixed endings."""
    head = [f"s{i}" for i in range(table.k)]
    if table.is_labeled:
        head = ["label"] + head
    lines = [",".join(f'"{h}"' if rng.random() < 0.2 else h for h in head)]
    for i, row in enumerate(table.scores.tolist()):
        cells = [spell(rng, x) for x in row]
        if table.is_labeled:
            lab = int(table.labels[i])
            cells.insert(0, rng.choice([str(lab), f"{lab}.0", f'"{lab}"', f"{lab}e0"]))
        lines.append(",".join(cells))
    out = []
    for line in lines:
        while rng.random() < 0.15:
            out.append(comment(rng) if rng.random() < 0.6 else "")
        out.append(line)
    if rng.random() < 0.5:
        out.append(comment(rng))
    endings = rng.choice(["\n", "\r\n", "\r"], size=len(out), p=[0.6, 0.35, 0.05])
    text = "".join(line + end for line, end in zip(out, endings))
    if rng.random() < 0.3:
        text = text.rstrip("\r\n")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(text)
    return str(path)


def assert_tables_bitwise_equal(got, want):
    assert got.scores.shape == want.scores.shape
    np.testing.assert_array_equal(got.scores.view(np.uint64), want.scores.view(np.uint64))
    assert got.is_labeled == want.is_labeled
    if want.is_labeled:
        assert got.labels.dtype == want.labels.dtype
        np.testing.assert_array_equal(got.labels, want.labels)


class TestReaderMatchesOracle:
    @pytest.mark.parametrize("seed", range(12))
    def test_valid_files_parse_bitwise_equal(self, tmp_path, seed):
        rng = np.random.default_rng(900 + seed)
        k = [2, 3, 100][seed % 3]
        labeled = seed % 2 == 0
        n = int(rng.integers(1, 60 if k == 100 else 300))
        table = special_table(rng, n, k, labeled)
        path = write_messy(tmp_path / "v.csv", rng, table)
        want = oracle_read_scores(path)
        assert_tables_bitwise_equal(read_scores(path), want)
        assert_tables_bitwise_equal(want, table)

    def test_signed_nan_and_zero_spellings(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("s0,s1,s2,s3\n-nan,nan,-0,0\n-0.0e5,+0.0,-inf,1e-400\n1e400,-1e400,0.1,0.2\n")
        got = read_scores(str(p))
        assert_tables_bitwise_equal(got, oracle_read_scores(str(p)))
        assert math.copysign(1.0, got.scores[0, 0]) < 0

    @pytest.mark.parametrize("labeled", [True, False])
    def test_written_files_round_trip(self, tmp_path, labeled):
        rng = np.random.default_rng(950)
        table = special_table(rng, 400, 5, labeled)
        path = str(tmp_path / "w.csv")
        write_scores(path, table)
        assert_tables_bitwise_equal(read_scores(path), table)

    @pytest.mark.parametrize("labeled", [True, False])
    @pytest.mark.parametrize("n", [1, _BLOCK_LINES, _BLOCK_LINES + 1, 2 * _BLOCK_LINES + 1])
    def test_block_edges_round_trip(self, tmp_path, labeled, n):
        table = special_table(np.random.default_rng(960 + n), n, 3, labeled)
        path = str(tmp_path / "b.csv")
        write_scores(path, table)
        assert_tables_bitwise_equal(read_scores(path), table)


def corrupt(rng, line, k, labeled):
    """Return a malformed variant of a data line."""
    cells = line.split(",")
    kinds = ["drop", "extra", "word", "empty", "space", "scores_nan"]
    if labeled:
        kinds += ["label_half", "label_neg", "label_k", "label_nan", "label_inf",
                  "label_ninf", "label_big", "true_inf"]
    kind = rng.choice(kinds)
    j = int(rng.integers(0, len(cells)))
    if kind == "drop":
        del cells[j]
    elif kind == "extra":
        cells.insert(j, "0.5")
    elif kind == "word":
        cells[j] = rng.choice(["oops", "0.5.5", "1e", "--1", "0x10", "1#"])
    elif kind == "empty":
        cells[j] = ""
    elif kind == "space":
        return " " * int(rng.integers(1, 3))
    elif kind == "scores_nan":
        cells[int(labeled):] = ["nan"] * k
    elif kind == "true_inf":
        cells[1 + int(float(cells[0].strip('"')))] = rng.choice(["inf", "-inf", "nan"])
    else:
        cells[0] = {"label_half": "1.5", "label_neg": "-1", "label_k": str(k),
                    "label_nan": "nan", "label_inf": "inf", "label_ninf": "-inf",
                    "label_big": "1e300"}[kind]
    return ",".join(cells)


class TestReaderErrorsMatchOracle:
    @staticmethod
    def check_corrupted(tmp_path, rng, k, labeled, n, first=0):
        """Corrupt one or two data rows, from data row `first` on, of a messy n-row file;
        the reader must give the oracle's error."""
        table = special_table(rng, n, k, labeled)
        path = write_messy(tmp_path / "m.csv", rng, table)
        lines = open(path, newline="").read().splitlines(keepends=True)
        data = [i for i, line in enumerate(lines)
                if line.strip("\r\n") and not line.startswith("#")][1 + first:]
        for i in rng.choice(data, size=min(len(data), int(rng.integers(1, 3))), replace=False):
            body = lines[i].rstrip("\r\n")
            lines[i] = corrupt(rng, body, k, labeled) + lines[i][len(body):]
        with open(path, "w", newline="") as fh:
            fh.write("".join(lines))
        with pytest.raises(DataError) as want:
            oracle_read_scores(path)
        with pytest.raises(DataError) as got:
            read_scores(path)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("seed", range(40))
    def test_malformed_row_reported_at_same_line(self, tmp_path, seed):
        rng = np.random.default_rng(1000 + seed)
        k, labeled = [2, 3, 100][seed % 3], seed % 2 == 0
        self.check_corrupted(tmp_path, rng, k, labeled, int(rng.integers(2, 40)))

    @pytest.mark.parametrize("seed", range(4))
    def test_malformed_row_past_the_first_block(self, tmp_path, seed):
        rng = np.random.default_rng(1050 + seed)
        self.check_corrupted(tmp_path, rng, 3, seed % 2 == 0, 2 * _BLOCK_LINES + 7, _BLOCK_LINES)

    @pytest.mark.parametrize("text", [
        "s0,s1\n",
        "# pacshift-v1\nlabel,s0,s1\r\n\r\n# trailing comment\r\n",
    ])
    def test_header_only(self, tmp_path, text):
        p = tmp_path / "h.csv"
        p.write_text(text)
        with pytest.raises(DataError) as want:
            oracle_read_scores(str(p))
        with pytest.raises(DataError) as got:
            read_scores(str(p))
        assert str(got.value) == str(want.value)
        assert str(got.value).endswith("no data rows")

    def test_digit_separators_rejected(self, tmp_path):
        # float("1_0") is 10.0; NumPy's float grammar has no separators.
        p = tmp_path / "u.csv"
        p.write_text("s0,s1\n0.5,0.5\n1_0,0.5\n")
        with pytest.raises(DataError, match=r"u\.csv:3: non-numeric cell"):
            read_scores(str(p))

    def test_unterminated_quote_names_its_line(self, tmp_path):
        p = tmp_path / "q.csv"
        p.write_text('s0,s1\n0.5,0.5\n0.5,"0.5\n0.5,0.5\n0.5,0.5\n')
        with pytest.raises(DataError, match=r"q\.csv:3: unterminated quote"):
            read_scores(str(p))

    # Alone at the end of a parse's input, an open quote runs to the end and parses.
    @pytest.mark.parametrize("after", [3, 0], ids=["block-edge", "file-end"])
    def test_unterminated_quote_on_a_blocks_last_line(self, tmp_path, after):
        rows = ["0.5,0.5"] * (_BLOCK_LINES - 1) + ['0.5,"0.5'] + ["0.5,0.5"] * after
        p = tmp_path / "q.csv"
        p.write_text("s0,s1\n" + "\n".join(rows) + "\n")
        with pytest.raises(DataError, match=rf"q\.csv:{_BLOCK_LINES + 1}: unterminated quote$"):
            read_scores(str(p))


class TestWriterMatchesReference:
    @pytest.mark.parametrize("labeled", [True, False])
    @pytest.mark.parametrize("seed", range(3))
    def test_bytes_identical(self, tmp_path, labeled, seed):
        rng = np.random.default_rng(1100 + seed)
        table = special_table(rng, 300, [2, 7, 100][seed], labeled)
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        write_scores(str(got), table)
        reference_write_scores(str(want), table)
        assert got.read_bytes() == want.read_bytes()

    def test_extreme_values_bytes_identical(self, tmp_path):
        scores = np.array([
            [-0.0, 5e-324, np.inf],
            [1e308, -1e308, -np.inf],
            [2.2250738585072014e-308, 1e-310, 0.1],
        ])
        table = ScoreTable(scores=scores, labels=np.array([0, 1, 2]))
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        write_scores(str(got), table)
        reference_write_scores(str(want), table)
        assert got.read_bytes() == want.read_bytes()
        assert b"\r\n" in got.read_bytes()
