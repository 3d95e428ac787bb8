"""Tests for ScoreTable validation."""

import numpy as np
import pytest

from pacshift import ScoreTable, estimate_confusion
from pacshift.cli import read_scores, write_scores


def table(scores, labels=None):
    return ScoreTable(scores=np.array(scores, dtype=float), labels=labels)


@pytest.mark.parametrize("scores, labels, message", [
    ([0.5, 0.5], None, "scores must be a 2-D array"),
    ([[[0.5, 0.5]]], None, "scores must be a 2-D array"),
    ([[1.0], [1.0]], None, "need at least 2 label columns"),
    ([[0.5, 0.5], [0.2, 0.8]], [0], "labels must be a vector matching the row count"),
    ([[0.5, 0.5], [0.2, 0.8]], [[0, 1]], "labels must be a vector matching the row count"),
], ids=["1-d", "3-d", "one-column", "short-labels", "2-d-labels"])
def test_bad_shapes_rejected(scores, labels, message):
    with pytest.raises(ValueError, match=message):
        table(scores, labels=labels)


def test_true_scores_need_labels():
    with pytest.raises(ValueError, match="table has no labels"):
        table([[0.5, 0.5]]).true_scores()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_true_label_score_rejected(bad):
    with pytest.raises(ValueError, match="true-label scores must be finite"):
        table([[0.5, 0.5], [0.2, bad]], labels=[0, 1])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_score_off_the_true_label_allowed(bad):
    t = table([[0.5, bad], [bad, 0.8]], labels=[0, 1])
    assert np.array_equal(t.true_scores(), [0.5, 0.8])
    assert not table([[0.5, bad]]).is_labeled


def test_subset_with_non_finite_off_label_scores():
    t = table([[0.5, np.nan], [0.1, 0.9], [np.inf, 0.3]], labels=[0, 1, 1])
    assert np.array_equal(t.subset([2, 0]).true_scores(), [0.3, 0.5])
    assert t.subset(np.array([], dtype=int)).n == 0


@pytest.mark.parametrize("labels", [[0.5, 1.0], [0.0, 1.7], [0.0, np.nan]])
def test_non_integral_labels_rejected(labels):
    with pytest.raises(ValueError, match="labels must be integers"):
        table([[0.5, 0.5], [0.2, 0.8]], labels=labels)


def test_integral_float_labels_accepted():
    t = table([[0.5, 0.5], [0.2, 0.8]], labels=[1.0, 0.0])
    assert t.labels.tolist() == [1, 0] and t.labels.dtype.kind == "i"


@pytest.mark.parametrize("bad", [np.inf, -np.inf, 1e300, -1.0, 2.0])
def test_out_of_range_labels_rejected_before_the_cast(bad):
    # inf and 1e300 have no integer value; casting them first warns and wraps.
    with pytest.raises(ValueError, match="labels out of range"):
        table([[0.5, 0.5], [0.2, 0.8]], labels=[bad, 0])


@pytest.mark.parametrize("labels", [[np.inf, 0.5], [np.nan, -1.0]])
def test_range_is_checked_before_integrality(labels):
    with pytest.raises(ValueError, match="labels out of range"):
        table([[0.5, 0.5], [0.2, 0.8]], labels=labels)


def test_predicted_skips_nan_scores():
    # The argmax over each row's non-NaN scores, ties to the lowest index.
    t = table([[0.3, np.nan, 0.7], [np.nan, np.nan, 0.5], [0.2, 0.2, np.nan]])
    assert t.predicted().tolist() == [2, 2, 0]


def wide_table(k, n=400, seed=76):
    """A labeled table with K = k whose labels include 0 and K - 1."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, k, size=n)
    labels[:2] = [0, k - 1]
    return ScoreTable(rng.dirichlet(np.ones(k), size=n), labels)


@pytest.mark.parametrize("k, itemsize", [(2, 1), (128, 1), (129, 2), (300, 2)])
def test_labels_use_the_narrowest_signed_type(k, itemsize):
    t = wide_table(k)
    assert t.labels.dtype.kind == "i" and t.labels.dtype.itemsize == itemsize
    assert t.labels[1] == k - 1


@pytest.mark.parametrize("k", [129, 300])
def test_confusion_counts_with_narrow_labels(k):
    # pred * K + label would wrap if it were computed in the labels' type.
    t = wide_table(k)
    want = np.zeros((k, k), dtype=int)
    np.add.at(want, (np.argmax(t.scores, axis=1), t.labels.astype(int)), 1)
    np.testing.assert_array_equal(estimate_confusion(t), want)


def test_score_file_round_trip_at_k300(tmp_path):
    t = wide_table(300)
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    write_scores(str(first), t)
    back = read_scores(str(first))
    write_scores(str(second), back)
    np.testing.assert_array_equal(back.labels, t.labels)
    assert second.read_bytes() == first.read_bytes()
