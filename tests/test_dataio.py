"""Transcript and labels-file round trips and validation."""

import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from synth import make_corpus
from windowseg.core import DEFAULT_DELIMITER, SegmentationLabels, Transcript, normalize_text
from windowseg.dataio import (
    check_source_id,
    format_labels,
    format_transcript,
    read_bytes,
    read_labels_file,
    read_text,
    read_transcript,
    write_files,
)

token = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd")),
    min_size=1,
    max_size=6,
)


class TestTranscriptFiles:
    def test_round_trip(self, tmp_path):
        t = Transcript(("hello", "there", "friend"), "greet")
        path = tmp_path / "greet.txt"
        write_files({path: format_transcript(t)})
        assert path.read_text() == "hello there friend\n"
        assert read_transcript(path) == t

    def test_stem_is_default_source_id(self, tmp_path):
        path = tmp_path / "session42.txt"
        path.write_text("a b c\n")
        assert read_transcript(path).source_id == "session42"
        assert read_transcript(path, source_id="other").source_id == "other"

    def test_whitespace_normalized(self, tmp_path):
        path = tmp_path / "x.txt"
        path.write_text("  a\t b\n\nc  \n")
        assert read_transcript(path).tokens == ("a", "b", "c")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        assert read_transcript(path).tokens == ()

    def test_normalize(self, tmp_path):
        path = tmp_path / "x.txt"
        path.write_text("Hello, World! ...\n")
        assert read_transcript(path, normalize=True).tokens == tuple(
            normalize_text("Hello, World! ...")
        )

    def test_token_rule_error_names_the_path(self, tmp_path):
        path = tmp_path / "x.txt"
        path.write_text(f"a b{DEFAULT_DELIMITER}c\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: token contains"):
            read_transcript(path)

    @given(st.lists(token, min_size=1, max_size=20))
    def test_random_round_trip(self, tmp_path_factory, tokens):
        path = tmp_path_factory.mktemp("t") / "doc.txt"
        t = Transcript(tuple(tokens), "doc")
        write_files({path: format_transcript(t)})
        assert read_transcript(path) == t


class TestLabelsFiles:
    def test_round_trip_mapping(self, tmp_path):
        entries = {
            "a": SegmentationLabels.from_split_positions(5, [2, 4]),
            "b": SegmentationLabels.from_split_positions(3, []),
            "c": SegmentationLabels(()),
        }
        path = tmp_path / "labels.tsv"
        write_files({path: format_labels(entries)})
        assert read_labels_file(path) == entries

    def test_file_shape(self, tmp_path):
        path = tmp_path / "labels.tsv"
        write_files({path: format_labels([("d", SegmentationLabels.from_split_positions(4, [1, 3]))])})
        assert path.read_text() == "d\t4\t1,3\n"

    def test_empty_entries(self, tmp_path):
        path = tmp_path / "labels.tsv"
        write_files({path: format_labels({})})
        assert path.read_text() == ""
        assert read_labels_file(path) == {}

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "labels.tsv"
        path.write_text("a\t3\t1\n\n\nb\t2\t\n")
        got = read_labels_file(path)
        assert set(got) == {"a", "b"}

    @pytest.mark.parametrize(
        "line, message",
        [
            ("a\t3", "expected"),
            ("a\t3\t1\textra", "expected"),
            ("a\tthree\t1", "not an integer"),
            ("a\t4\t2,x", r"bad\.tsv:1: position 'x' is not an integer"),
            ("a\t4\t2,,3", r"bad\.tsv:1: position '' is not an integer"),
            ("a\t-1\t", ">= 0"),
            ("a\t4\t0,2", ">= 1"),
            ("a\t4\t3,2", "ascending"),
            ("a\t4\t2,2", "ascending"),
            ("a\t4\t4", "beyond"),
            ("a\t3\t1\na\t3\t2", "duplicate"),
        ],
    )
    def test_malformed_rows(self, tmp_path, line, message):
        path = tmp_path / "bad.tsv"
        path.write_text(line + "\n")
        with pytest.raises(ValueError, match=message):
            read_labels_file(path)

    def test_errors_carry_line_numbers(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("good\t3\t1\nbad\t3\t9\n")
        with pytest.raises(ValueError, match=":2:"):
            read_labels_file(path)

    # A tab splits the line, and each of the rest is a break str.splitlines splits on.
    @pytest.mark.parametrize(
        "breaker",
        ["\t", "\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
         "\u2028", "\u2029"],
    )
    def test_ids_it_cannot_read_back_refused(self, breaker):
        labels = SegmentationLabels.from_split_positions(3, [1])
        with pytest.raises(ValueError, match="holds a tab or line break"):
            format_labels([("ok", labels), (f"a{breaker}b", labels)])
        with pytest.raises(ValueError, match="holds a tab or line break"):
            check_source_id(breaker)

    @given(st.text(max_size=6))
    def test_every_id_it_writes_reads_back(self, tmp_path_factory, source_id):
        labels = SegmentationLabels.from_split_positions(3, [2])
        try:
            text = format_labels([(source_id, labels)])
        except ValueError:
            return
        path = tmp_path_factory.mktemp("l") / "labels.tsv"
        write_files({path: text})
        assert read_labels_file(path) == {source_id: labels}

    def test_corpus_round_trip(self, tmp_path):
        import random

        corpus = make_corpus(random.Random(0), 5, n_sentences=(2, 4))
        path = tmp_path / "labels.tsv"
        write_files({path: format_labels([(t.source_id, l) for t, l in corpus])})
        got = read_labels_file(path)
        assert got == {t.source_id: l for t, l in corpus}


class TestReaders:
    def test_text_has_universal_newlines(self, tmp_path):
        path = tmp_path / "x.txt"
        path.write_bytes(b"a\r\nb\rc\n")
        assert read_text(path) == "a\nb\nc\n"
        assert read_bytes(path) == b"a\r\nb\rc\n"

    @pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8"])
    def test_failure_is_a_value_error_naming_the_path(self, tmp_path, kind):
        path = tmp_path / "x.txt"
        if kind == "directory":
            path.mkdir()
        elif kind == "not-utf8":
            path.write_bytes(b"a \xff b\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "):
            read_text(path)
        if kind != "not-utf8":
            with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "):
                read_bytes(path)
