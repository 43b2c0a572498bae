"""Boundary F1 scoring and report formatting."""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from windowseg.core import CONTINUE, SPLIT, SegmentationLabels
from windowseg.eval import (
    PairingError,
    SCHEMA_VERSION,
    boundaries,
    boundary_f1,
    evaluate_corpus,
    format_report,
)


def labels_of(n, positions):
    return SegmentationLabels.from_split_positions(n, positions)


class TestBoundaries:
    def test_position_zero_never_counts(self):
        assert boundaries(labels_of(5, [0, 2, 4])) == frozenset({2, 4})
        assert boundaries(labels_of(5, [])) == frozenset()

    def test_empty(self):
        assert boundaries(SegmentationLabels(())) == frozenset()


class TestSegmentStats:
    def test_lengths(self):
        labels = labels_of(7, [0, 3, 5])
        stats = boundary_f1(labels, labels)
        assert stats.segment_count == 3
        assert stats.mean_segment_len == pytest.approx(7 / 3)
        assert stats.max_segment_len == 3

    def test_single_segment(self):
        labels = labels_of(4, [])
        stats = boundary_f1(labels, labels)
        assert (stats.segment_count, stats.max_segment_len) == (1, 4)

    def test_empty(self):
        stats = boundary_f1(SegmentationLabels(()), SegmentationLabels(()))
        assert stats.segment_count == 0
        assert (stats.mean_segment_len, stats.max_segment_len) == (0.0, 0)


class TestBoundaryF1:
    def test_exact_match(self):
        rep = boundary_f1(labels_of(10, [3, 7]), labels_of(10, [3, 7]))
        assert (rep.precision, rep.recall, rep.f1) == (1.0, 1.0, 1.0)
        assert (rep.true_positives, rep.false_positives, rep.false_negatives) == (2, 0, 0)

    def test_counts(self):
        rep = boundary_f1(labels_of(10, [3, 5]), labels_of(10, [3, 7]))
        assert (rep.true_positives, rep.false_positives, rep.false_negatives) == (1, 1, 1)
        assert rep.precision == 0.5
        assert rep.recall == 0.5
        assert rep.f1 == 0.5

    def test_off_by_one_is_a_miss(self):
        rep = boundary_f1(labels_of(10, [4]), labels_of(10, [5]))
        assert rep.f1 == 0.0

    def test_no_boundaries_anywhere(self):
        rep = boundary_f1(labels_of(6, []), labels_of(6, []))
        assert (rep.precision, rep.recall, rep.f1) == (0.0, 0.0, 0.0)
        assert rep.segment_count == 1

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            boundary_f1(labels_of(5, []), labels_of(6, []))

    @given(st.integers(1, 40), st.data())
    def test_identity_is_perfect_unless_empty(self, n, data):
        positions = data.draw(
            st.lists(st.integers(1, n - 1), unique=True) if n > 1 else st.just([])
        )
        labels = labels_of(n, positions)
        rep = boundary_f1(labels, labels)
        if positions:
            assert rep.f1 == 1.0
        else:
            assert rep.true_positives == 0
        assert rep.false_positives == 0
        assert rep.false_negatives == 0


class TestEvaluateCorpus:
    def test_micro_average_pools_counts(self):
        predicted = {
            "a": labels_of(10, [3, 5]),  # tp=1 fp=1 fn=1 vs [3, 7]
            "b": labels_of(8, [2, 4, 6]),  # tp=3 vs itself
        }
        reference = {"a": labels_of(10, [3, 7]), "b": labels_of(8, [2, 4, 6])}
        rep = evaluate_corpus(predicted, reference)
        assert (rep.true_positives, rep.false_positives, rep.false_negatives) == (4, 1, 1)
        assert rep.precision == 4 / 5
        assert rep.recall == 4 / 5
        assert dict(rep.per_document)["b"].f1 == 1.0
        assert rep.segment_count == 3 + 4
        assert rep.mean_segment_len == pytest.approx(18 / 7)

    def test_unpaired_documents_named(self):
        with pytest.raises(PairingError, match="b, c"):
            evaluate_corpus(
                {"a": labels_of(3, []), "b": labels_of(3, [])},
                {"a": labels_of(3, []), "c": labels_of(3, [])},
            )

    def test_pairing_error_is_a_value_error(self):
        assert issubclass(PairingError, ValueError)

    def test_empty_corpus(self):
        with pytest.raises(ValueError, match="no documents"):
            evaluate_corpus({}, {})

    def test_micro_differs_from_macro(self):
        # One large imperfect doc dominates pooled counts; a mean of
        # per-document F1s would weight both docs equally.
        predicted = {"big": labels_of(40, list(range(1, 21))), "small": labels_of(4, [2])}
        reference = {"big": labels_of(40, [30]), "small": labels_of(4, [2])}
        rep = evaluate_corpus(predicted, reference)
        docs = dict(rep.per_document)
        macro = (docs["big"].f1 + docs["small"].f1) / 2
        assert rep.f1 != pytest.approx(macro)


class TestFormatReport:
    def test_text_contains_rows(self):
        rep = evaluate_corpus({"a": labels_of(6, [3])}, {"a": labels_of(6, [3])})
        text = format_report(rep)
        assert "f1" in text and "1.0000" in text
        assert "a" in text.splitlines()[-1]

    def test_json_schema(self):
        rep = evaluate_corpus({"a": labels_of(6, [3])}, {"a": labels_of(6, [2])})
        data = json.loads(format_report(rep, "json"))
        assert data["schema_version"] == SCHEMA_VERSION
        assert data["f1"] == 0.0
        assert set(data["documents"]) == {"a"}
        assert "documents" not in data["documents"]["a"]

    def test_unknown_format(self):
        rep = boundary_f1(labels_of(3, []), labels_of(3, []))
        with pytest.raises(ValueError, match="format"):
            format_report(rep, "yaml")
