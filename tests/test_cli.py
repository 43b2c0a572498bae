"""End-to-end command-line flows in temporary directories."""

import errno
import json
import os
import random
import socket
import time
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from synth import make_sentence
from windowseg import cli, pipeline
from windowseg.cli import _segment_overrides, build_parser, main
from windowseg.config import PipelineConfig, load_config
from windowseg.core import DEFAULT_DELIMITER, SegmentationLabels
from windowseg.dataio import format_labels, read_labels_file, write_files
from windowseg.mock_endpoint import MockEndpoint, MockEndpointConfig
from windowseg.segmenters import AutoregressiveSegmenter, ExternalSegmenter, WindowInfo
from windowseg.segmenters.features import FeatureConfig, FeatureModel, save_model
from windowseg.windowing import WindowConfig


def punctuated_doc(rng, n_sentences=(3, 5)):
    sentences = []
    for _ in range(rng.randint(*n_sentences)):
        words = make_sentence(rng)
        words[0] = words[0].capitalize()
        sentences.append(" ".join(words) + rng.choice(".!?"))
    return " ".join(sentences) + "\n"


def unwritable(tmp_path):
    """A path under a regular file: any write there fails with NotADirectoryError."""
    blocker = tmp_path / "file"
    blocker.write_text("not a directory\n")
    return blocker / "out"


def fail_nth_write(monkeypatch, n):
    """Make the ``n``-th file write write half its data, then fail as a full disk."""
    calls = []

    def failing(original):
        def write(self, data, *args, **kwargs):
            calls.append(self)
            if len(calls) == n:
                original(self, data[: len(data) // 2], *args, **kwargs)
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return original(self, data, *args, **kwargs)
        return write

    monkeypatch.setattr(Path, "write_text", failing(Path.write_text))
    monkeypatch.setattr(Path, "write_bytes", failing(Path.write_bytes))


def snapshot(directory):
    """Every file under ``directory`` by name, with its bytes."""
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def assert_path_error(capsys, path):
    """One ``error: <path>: <reason>`` message and no traceback."""
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and "Traceback" not in err


@pytest.fixture(scope="module")
def project(tmp_path_factory):
    """raw punctuated docs -> derived transcripts+labels -> trained model."""
    root = tmp_path_factory.mktemp("project")
    raw = root / "raw"
    raw.mkdir()
    rng = random.Random(7)
    for i in range(4):
        (raw / f"doc{i}.txt").write_text(punctuated_doc(rng))
    derived = root / "derived"
    rc = main(
        ["derive-labels", *sorted(str(p) for p in raw.glob("*.txt")), "--out-dir", str(derived)]
    )
    assert rc == 0
    model = root / "model.bin"
    rc = main(
        [
            "train",
            *sorted(str(p) for p in derived.glob("doc*.txt")),
            "--labels", str(derived / "labels.tsv"),
            "--out", str(model),
            "--epochs", "2",
            "--hash-dims", "4096",
            "--orders", "2,3",
            "--radius", "2",
            "--history", "2",
        ]
    )
    assert rc == 0
    return root


class TestDeriveLabels:
    def test_outputs(self, project):
        derived = project / "derived"
        labels = read_labels_file(derived / "labels.tsv")
        assert set(labels) == {f"doc{i}" for i in range(4)}
        for i in range(4):
            tokens = (derived / f"doc{i}.txt").read_text().split()
            assert len(tokens) == len(labels[f"doc{i}"])
            assert all(tok == tok.lower() for tok in tokens)

    def test_refuses_to_overwrite_input(self, project, capsys):
        raw = project / "raw"
        rc = main(["derive-labels", str(raw / "doc0.txt"), "--out-dir", str(raw)])
        assert rc == 1
        assert "refusing" in capsys.readouterr().err

    @pytest.mark.parametrize("labels_name", ["labels.tsv", "abbreviations.txt"])
    def test_refuses_to_overwrite_abbreviations(self, tmp_path, capsys, labels_name):
        # As a transcript output (stem "abbreviations") or as the labels file.
        doc = tmp_path / "in" / "abbreviations.txt"
        doc.parent.mkdir()
        doc.write_text("Mr. Smith left. Then he came back.\n")
        abbreviations = tmp_path / "abbreviations.txt"
        abbreviations.write_text("mr.\n")
        rc = main(
            [
                "derive-labels", str(doc), "--out-dir", str(tmp_path),
                "--abbreviations", str(abbreviations), "--labels-name", labels_name,
            ]
        )
        assert rc == 1
        assert capsys.readouterr().err.startswith(
            f"error: refusing to overwrite input {abbreviations}; pick another "
        )
        assert abbreviations.read_text() == "mr.\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["abbreviations.txt", "in"]

    @pytest.mark.parametrize("name", ["b.txt", "./b.txt"])
    def test_labels_name_of_a_transcript_output_rejected(self, tmp_path, capsys, name):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        a.write_text("Alpha bravo. Charlie.\n")
        b.write_text("Delta echo.\n")
        out = tmp_path / "out"
        out.mkdir()
        (out / "b.txt").write_text("kept\n")
        rc = main(["derive-labels", str(a), str(b), "--out-dir", str(out), "--labels-name", name])
        assert rc == 1
        assert "--labels-name" in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == ["b.txt"]
        assert (out / "b.txt").read_text() == "kept\n"

    def test_missing_input(self, tmp_path, capsys):
        rc = main(["derive-labels", str(tmp_path / "ghost.txt"), "--out-dir", str(tmp_path)])
        assert rc == 2
        assert "not found" in capsys.readouterr().err

    def test_missing_abbreviations_exit_2(self, project, tmp_path, capsys):
        ghost = tmp_path / "ghost.txt"
        out = tmp_path / "out"
        rc = main(["derive-labels", str(project / "raw" / "doc0.txt"), "--out-dir", str(out),
                   "--abbreviations", str(ghost)])
        assert rc == 2
        assert f"error: input not found: {ghost}" in capsys.readouterr().err
        assert not out.exists()

    def test_non_utf8_abbreviations_exit_1(self, project, tmp_path, capsys):
        bad = tmp_path / "abbrev.txt"
        bad.write_bytes(b"mr.\n\xff.\n")
        out = tmp_path / "out"
        rc = main(["derive-labels", str(project / "raw" / "doc0.txt"), "--out-dir", str(out),
                   "--abbreviations", str(bad)])
        assert rc == 1
        assert_path_error(capsys, bad)
        assert not out.exists()

    def test_duplicate_stems_rejected_before_writing(self, tmp_path, capsys):
        inputs = []
        for sub, text in (("a", "Alpha bravo. Charlie.\n"), ("b", "Delta echo.\n")):
            (tmp_path / sub).mkdir()
            inputs.append(tmp_path / sub / "doc.txt")
            inputs[-1].write_text(text)
        out = tmp_path / "out"
        rc = main(["derive-labels", *map(str, inputs), "--out-dir", str(out)])
        assert rc == 1
        assert "duplicate document stems in inputs" in capsys.readouterr().err
        assert not out.exists()


    def test_stem_a_labels_file_cannot_hold_exit_1(self, tmp_path, capsys):
        good, bad = tmp_path / "a.txt", tmp_path / "a\tb.txt"
        good.write_text("Alpha bravo. Charlie delta.\n")
        bad.write_text("Echo foxtrot. Golf.\n")
        out = tmp_path / "out"
        rc = main(["derive-labels", str(good), str(bad), "--out-dir", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: document id 'a\\tb' holds a tab or line break, "
            "which a labels file cannot hold\n"
        )
        assert not out.exists()

    def test_underivable_input_writes_nothing(self, tmp_path, capsys):
        good, bad = tmp_path / "a.txt", tmp_path / "b.txt"
        good.write_text("Alpha bravo. Charlie delta.\n")
        bad.write_text("!!! ...\n")
        out = tmp_path / "out"
        rc = main(["derive-labels", str(good), str(bad), "--out-dir", str(out)])
        assert rc == 1
        assert f"error: {bad}: no tokens survive normalization" in capsys.readouterr().err
        assert not out.exists()

    def test_unwritable_out_dir_exit_1(self, project, tmp_path, capsys):
        out = unwritable(tmp_path)
        rc = main(["derive-labels", str(project / "raw" / "doc0.txt"), "--out-dir", str(out)])
        assert rc == 1
        assert_path_error(capsys, out)

    def test_failed_write_leaves_earlier_outputs_whole(
        self, project, tmp_path, monkeypatch, capsys
    ):
        inputs = [str(project / "raw" / f"doc{i}.txt") for i in range(3)]
        out = tmp_path / "out"
        assert main(["derive-labels", *inputs[:2], "--out-dir", str(out)]) == 0
        before = snapshot(out)
        capsys.readouterr()
        fail_nth_write(monkeypatch, 2)
        rc = main(["derive-labels", *inputs[1:], "--out-dir", str(out)])
        assert rc == 1
        assert snapshot(out) == before
        assert_path_error(capsys, out / "doc2.txt")


class TestTrain:
    def test_reports_epochs(self, project, capsys, tmp_path):
        derived = project / "derived"
        rc = main(
            [
                "train", str(derived / "doc0.txt"),
                "--labels", str(derived / "labels.tsv"),
                "--out", str(tmp_path / "m.bin"),
                "--epochs", "1", "--hash-dims", "1024", "--orders", "2", "--radius", "1",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "epoch 1: loss" in out
        assert "wrote model" in out

    @pytest.mark.parametrize("target", ["transcript", "labels"])
    def test_out_naming_an_input_exit_1(self, project, tmp_path, capsys, target):
        inputs = {"transcript": tmp_path / "doc0.txt", "labels": tmp_path / "labels.tsv"}
        for name, path in inputs.items():
            path.write_bytes((project / "derived" / path.name).read_bytes())
        before = snapshot(tmp_path)
        rc = main(
            [
                "train", str(inputs["transcript"]),
                "--labels", str(inputs["labels"]),
                "--out", str(tmp_path / "." / inputs[target].name),
                "--epochs", "1", "--hash-dims", "1024",
            ]
        )
        assert rc == 1
        assert capsys.readouterr().err.startswith(
            f"error: refusing to overwrite input {inputs[target]}; pick another --out"
        )
        assert snapshot(tmp_path) == before

    def test_out_may_be_the_warm_start_model(self, project, tmp_path, capsys):
        derived = project / "derived"
        model = tmp_path / "m.bin"
        model.write_bytes((project / "model.bin").read_bytes())
        rc = main(
            [
                "train", str(derived / "doc0.txt"),
                "--labels", str(derived / "labels.tsv"),
                "--warm-start", str(model), "--out", str(model), "--epochs", "1",
            ]
        )
        assert rc == 0
        assert model.read_bytes() != (project / "model.bin").read_bytes()

    def test_unpaired_transcript(self, project, tmp_path, capsys):
        derived = project / "derived"
        stray = tmp_path / "stray.txt"
        stray.write_text("alpha bravo\n")
        rc = main(
            [
                "train", str(stray),
                "--labels", str(derived / "labels.tsv"),
                "--out", str(tmp_path / "m.bin"),
            ]
        )
        assert rc == 5
        assert "stray" in capsys.readouterr().err

    def test_length_mismatch(self, project, tmp_path, capsys):
        derived = project / "derived"
        bad = tmp_path / "labels.tsv"
        bad.write_text("doc0\t2\t1\n")
        rc = main(
            [
                "train", str(derived / "doc0.txt"),
                "--labels", str(bad),
                "--out", str(tmp_path / "m.bin"),
            ]
        )
        assert rc == 1
        assert "cover" in capsys.readouterr().err

    def test_duplicate_stems_rejected_before_training(self, tmp_path, capsys):
        inputs = []
        for sub in ("a", "b"):
            (tmp_path / sub).mkdir()
            inputs.append(tmp_path / sub / "doc.txt")
            inputs[-1].write_text("alpha bravo charlie\n")
        labels = tmp_path / "labels.tsv"
        labels.write_text("doc\t3\t2\n")
        out = tmp_path / "m.bin"
        rc = main(
            [
                "train", *map(str, inputs),
                "--labels", str(labels),
                "--out", str(out),
                "--epochs", "1",
                "--hash-dims", "1024",
            ]
        )
        assert rc == 1
        assert capsys.readouterr().err == "error: duplicate document stems in inputs\n"
        assert not out.exists()

    def test_no_shuffle_is_an_unknown_flag_exit_2(self, project, tmp_path, capsys):
        derived = project / "derived"
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "train", str(derived / "doc0.txt"),
                    "--labels", str(derived / "labels.tsv"),
                    "--out", str(tmp_path / "m.bin"),
                    "--no-shuffle",
                ]
            )
        assert exc.value.code == 2
        assert "unrecognized arguments: --no-shuffle" in capsys.readouterr().err

    def test_bad_feature_flags(self, project, tmp_path, capsys):
        derived = project / "derived"
        rc = main(
            [
                "train", str(derived / "doc0.txt"),
                "--labels", str(derived / "labels.tsv"),
                "--out", str(tmp_path / "m.bin"),
                "--hash-dims", "0",
            ]
        )
        assert rc == 3

    @pytest.mark.parametrize("flag, value", [
        ("--epochs", "-1"), ("--learning-rate", "0"), ("--learning-rate", "-0.5"),
        ("--learning-rate", "nan"), ("--learning-rate", "inf"),
    ])
    def test_bad_hyperparameters_exit_3(self, project, tmp_path, capsys, flag, value):
        derived = project / "derived"
        rc = main(
            [
                "train", str(derived / "doc0.txt"),
                "--labels", str(derived / "labels.tsv"),
                "--out", str(tmp_path / "m.bin"),
                "--hash-dims", "1024", "--orders", "2", "--radius", "1",
                flag, value,
            ]
        )
        assert rc == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err
        assert "epoch" not in captured.out
        assert list(tmp_path.iterdir()) == []

    def test_unwritable_out_exit_1(self, project, tmp_path, capsys):
        derived = project / "derived"
        out = unwritable(tmp_path) / "m.bin"
        rc = main(
            [
                "train", str(derived / "doc0.txt"),
                "--labels", str(derived / "labels.tsv"),
                "--out", str(out),
                "--epochs", "1", "--hash-dims", "1024", "--orders", "2", "--radius", "1",
            ]
        )
        assert rc == 1
        assert_path_error(capsys, out)


    @pytest.mark.parametrize("flag, value", [
        ("--radius", "256"), ("--history", "300"), ("--orders", "2,300"),
        ("--hash-dims", str(2 ** 32)),
    ])
    def test_flags_the_model_file_cannot_store_exit_3(
        self, project, tmp_path, capsys, flag, value
    ):
        derived = project / "derived"
        out = tmp_path / "m.bin"
        rc = main(
            [
                "train", str(derived / "doc0.txt"),
                "--labels", str(derived / "labels.tsv"),
                "--out", str(out),
                flag, value,
            ]
        )
        assert rc == 3
        assert "epoch" not in capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag, value, message", [
        ("--radius", "256", "--radius must be in [0, 255], got 256"),
        ("--history", "300", "--history must be in [0, 255], got 300"),
        ("--orders", ",", "--orders must hold 1 to 255 orders, got ','"),
        ("--hash-dims", "0", "--hash-dims must be in [1, 2**32 - 1], got 0"),
        ("--salt", "-1", "--salt must fit in 32 bits, got -1"),
        ("--epochs", "-1", "--epochs must be >= 0, got -1"),
        ("--learning-rate", "0", "--learning-rate must be positive and finite, got 0.0"),
    ], ids=["radius", "history", "orders", "hash-dims", "salt", "epochs", "learning-rate"])
    def test_bad_flag_value_names_the_flag(
        self, project, tmp_path, capsys, flag, value, message
    ):
        derived = project / "derived"
        rc = main(
            [
                "train", str(derived / "doc0.txt"),
                "--labels", str(derived / "labels.tsv"),
                "--out", str(tmp_path / "m.bin"),
                flag, value,
            ]
        )
        assert rc == 3
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    def test_non_integer_order_names_the_flag(self, project, tmp_path, capsys):
        derived = project / "derived"
        rc = main(
            [
                "train", str(derived / "doc0.txt"),
                "--labels", str(derived / "labels.tsv"),
                "--out", str(tmp_path / "m.bin"),
                "--orders", "2, x",
            ]
        )
        assert rc == 3
        assert capsys.readouterr().err == "error: --orders: 'x' is not an integer\n"
        assert list(tmp_path.iterdir()) == []

    def test_truncated_warm_start_exit_1(self, project, tmp_path, capsys):
        derived = project / "derived"
        cut = tmp_path / "cut.bin"
        cut.write_bytes((project / "model.bin").read_bytes()[:11])
        rc = main(
            [
                "train", str(derived / "doc0.txt"),
                "--labels", str(derived / "labels.tsv"),
                "--out", str(tmp_path / "m.bin"),
                "--warm-start", str(cut),
            ]
        )
        assert rc == 1
        assert_path_error(capsys, cut)

    def test_non_utf8_labels_exit_1(self, project, tmp_path, capsys):
        bad = tmp_path / "labels.tsv"
        bad.write_bytes(b"doc0\t3\t\xff\n")
        rc = main(
            [
                "train", str(project / "derived" / "doc0.txt"),
                "--labels", str(bad),
                "--out", str(tmp_path / "m.bin"),
            ]
        )
        assert rc == 1
        assert_path_error(capsys, bad)
        assert not (tmp_path / "m.bin").exists()

    def test_non_utf8_transcript_exit_1(self, project, tmp_path, capsys):
        bad = tmp_path / "doc0.txt"
        bad.write_bytes(b"alpha \xff bravo\n")
        rc = main(
            [
                "train", str(bad),
                "--labels", str(project / "derived" / "labels.tsv"),
                "--out", str(tmp_path / "m.bin"),
            ]
        )
        assert rc == 1
        assert_path_error(capsys, bad)

    def test_delimiter_in_transcript_exit_1(self, project, tmp_path, capsys):
        bad = tmp_path / "doc0.txt"
        bad.write_text(f"alpha b{DEFAULT_DELIMITER}c\n", encoding="utf-8")
        rc = main(
            [
                "train", str(bad),
                "--labels", str(project / "derived" / "labels.tsv"),
                "--out", str(tmp_path / "m.bin"),
            ]
        )
        assert rc == 1
        assert_path_error(capsys, bad)


class TestSegment:
    def test_autoregressive_writes_outputs(self, project, capsys):
        derived = project / "derived"
        out = project / "seg_auto"
        rc = main(
            [
                "segment", str(derived / "doc0.txt"),
                "--out-dir", str(out),
                "--segmenter", "autoregressive",
                "--model", str(project / "model.bin"),
            ]
        )
        assert rc == 0
        assert "doc0:" in capsys.readouterr().out
        segments = (out / "doc0.segments.txt").read_text().splitlines()
        labels = read_labels_file(out / "doc0.labels.tsv")["doc0"]
        tokens = (derived / "doc0.txt").read_text().split()
        assert " ".join(segments).split() == tokens
        assert len(labels) == len(tokens)

    def test_runs_are_byte_identical(self, project):
        derived = project / "derived"
        outs = []
        for name in ("rep1", "rep2"):
            out = project / name
            rc = main(
                [
                    "segment", *sorted(str(p) for p in derived.glob("doc*.txt")),
                    "--out-dir", str(out),
                    "--segmenter", "autoregressive",
                    "--model", str(project / "model.bin"),
                    "--strategy", "beam:4",
                    "--workers", "3",
                ]
            )
            assert rc == 0
            outs.append(
                {p.name: p.read_bytes() for p in sorted(out.iterdir())}
            )
        assert outs[0] == outs[1]

    def test_workers_zero_means_auto(self, project, tmp_path):
        rc = main(
            [
                "segment", str(project / "derived" / "doc0.txt"),
                "--out-dir", str(tmp_path),
                "--model", str(project / "model.bin"),
                "--workers", "0",
            ]
        )
        assert rc == 0
        assert (tmp_path / "doc0.labels.tsv").is_file()

    def test_default_decodes_on_calling_thread(self, project, tmp_path, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("built a thread pool")

        monkeypatch.setattr(pipeline, "ThreadPoolExecutor", no_pool)
        derived = project / "derived"
        tokens = []
        for path in sorted(derived.glob("doc*.txt")):
            tokens += path.read_text().split()
        assert len(tokens) > WindowConfig().size  # several windows
        long_doc = tmp_path / "long.txt"
        long_doc.write_text(" ".join(tokens) + "\n")
        out = tmp_path / "out"
        rc = main(
            ["segment", str(long_doc), "--out-dir", str(out), "--model", str(project / "model.bin")]
        )
        assert rc == 0
        assert len(read_labels_file(out / "long.labels.tsv")["long"]) == len(tokens)

    def test_exact_strategy_on_a_multi_window_document(self, project, tmp_path):
        # Words the model never saw leave every boundary uncertain, so no
        # path can be pruned early: exact search must not enumerate.
        tokens = [f"zq{i % 13}x" for i in range(3 * WindowConfig().size)]
        long_doc = tmp_path / "long.txt"
        long_doc.write_text(" ".join(tokens) + "\n")
        out = tmp_path / "out"
        t0 = time.perf_counter()
        rc = main(
            [
                "segment", str(long_doc), "--out-dir", str(out),
                "--model", str(project / "model.bin"), "--strategy", "exact",
            ]
        )
        assert rc == 0
        assert time.perf_counter() - t0 < 10.0
        assert len(read_labels_file(out / "long.labels.tsv")["long"]) == len(tokens)

    def test_beam_builds_one_labeling_per_window(self, project, tmp_path, monkeypatch):
        # The search hands back hypotheses; the segmenter builds labels only
        # for the one it returns, not for every entry of the beam.
        built = []
        post_init = SegmentationLabels.__post_init__

        def counting(self):
            built.append(self)
            post_init(self)

        per_window = []
        segment = AutoregressiveSegmenter.segment

        def counted(self, window, info=WindowInfo()):
            before = len(built)
            labels = segment(self, window, info)
            per_window.append(len(built) - before)
            return labels

        monkeypatch.setattr(SegmentationLabels, "__post_init__", counting)
        monkeypatch.setattr(AutoregressiveSegmenter, "segment", counted)
        tokens = [f"zq{i % 13}x" for i in range(3 * WindowConfig().size)]
        long_doc = tmp_path / "long.txt"
        long_doc.write_text(" ".join(tokens) + "\n")
        rc = main(
            [
                "segment", str(long_doc), "--out-dir", str(tmp_path / "out"),
                "--model", str(project / "model.bin"), "--strategy", "beam:16",
            ]
        )
        assert rc == 0
        assert len(per_window) > 1 and per_window == [1] * len(per_window)

    def test_beam_over_the_search_budget_exit_3(self, project, tmp_path, capsys):
        # beam:100000 would rank about 2 * 40 * 100000 candidates per window.
        t0 = time.perf_counter()
        rc = main(
            [
                "segment", str(project / "derived" / "doc0.txt"),
                "--out-dir", str(tmp_path / "out"),
                "--model", str(project / "model.bin"), "--strategy", "beam:100000",
            ]
        )
        assert rc == 3
        assert time.perf_counter() - t0 < 1.0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: beam:100000 makes about ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("stem", ["b\tc", "b\nc", "b\u2028c"])
    def test_stem_a_labels_file_cannot_hold_exit_1(self, tmp_path, capsys, stem):
        # The first document would be written before the second failed.
        inputs = [tmp_path / "a.txt", tmp_path / f"{stem}.txt"]
        for path in inputs:
            path.write_text("alpha bravo charlie\n")
        out = tmp_path / "out"
        rc = main(["segment", *map(str, inputs), "--segmenter", "fixed", "--out-dir", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: document id {stem!r} holds a tab or line break, "
            "which a labels file cannot hold\n"
        )
        assert not out.exists()

    def test_exact_strategy_refuses_a_long_history_model_exit_3(self, project, tmp_path, capsys):
        # Exact search would make about 40 * 2^20 score calls per window.
        cfg = FeatureConfig(hash_dims=64, ngram_orders=(2,), context_radius=1, history=20)
        save_model(FeatureModel(cfg, np.zeros(cfg.hash_dims)), tmp_path / "h20.bin")
        t0 = time.perf_counter()
        rc = main(
            [
                "segment", str(project / "derived" / "doc0.txt"),
                "--out-dir", str(tmp_path / "out"),
                "--model", str(tmp_path / "h20.bin"), "--strategy", "exact",
            ]
        )
        assert rc == 3
        assert time.perf_counter() - t0 < 1.0
        assert "exact search with a history-20 model" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_non_decimal_beam_width_exit_3(self, project, tmp_path, capsys):
        # "²".isdigit() is true, but int("²") raises.
        rc = main(
            [
                "segment", str(project / "derived" / "doc0.txt"),
                "--out-dir", str(tmp_path / "out"),
                "--model", str(project / "model.bin"), "--strategy", "beam:\u00b2",
            ]
        )
        assert rc == 3
        assert capsys.readouterr().err == "error: beam width must be an integer, got '\u00b2'\n"
        assert not (tmp_path / "out").exists()

    def test_failed_write_leaves_earlier_documents_whole(
        self, project, tmp_path, monkeypatch, capsys
    ):
        inputs = sorted((project / "derived").glob("doc*.txt"))[:2]
        calls = []

        def flaky_write(files):
            calls.append(files)
            if len(calls) == 2:  # as write_files reports it: naming its target
                raise OSError(errno.ENOSPC, "disk full", str(next(iter(files))))
            write_files(files)

        monkeypatch.setattr(cli, "write_files", flaky_write)
        out = tmp_path / "out"
        rc = main(["segment", *map(str, inputs), "--out-dir", str(out), "--segmenter", "fixed"])
        assert rc == 1
        failed = out / f"{inputs[1].stem}.segments.txt"
        assert capsys.readouterr().err == f"error: {failed}: disk full\n"
        first = inputs[0].stem
        assert sorted(p.name for p in out.iterdir()) == [
            f"{first}.labels.tsv", f"{first}.segments.txt"
        ]
        tokens = inputs[0].read_text().split()
        assert (out / f"{first}.segments.txt").read_text().split() == tokens
        assert len(read_labels_file(out / f"{first}.labels.tsv")[first]) == len(tokens)

    def test_unwritable_out_dir_exit_1(self, project, tmp_path, capsys):
        out = unwritable(tmp_path)
        doc = project / "derived" / "doc0.txt"
        rc = main(["segment", str(doc), "--out-dir", str(out), "--segmenter", "fixed"])
        assert rc == 1
        assert_path_error(capsys, out)

    def test_replay_round_trip_scores_perfectly(self, project, capsys):
        derived = project / "derived"
        out = project / "seg_replay"
        rc = main(
            [
                "segment", *sorted(str(p) for p in derived.glob("doc*.txt")),
                "--out-dir", str(out),
                "--segmenter", "replay",
                "--replay-labels", str(derived / "labels.tsv"),
            ]
        )
        assert rc == 0
        capsys.readouterr()  # drop the segment command's progress lines
        rc = main(
            [
                "eval",
                "--predicted", *sorted(str(p) for p in out.glob("*.labels.tsv")),
                "--reference", str(derived / "labels.tsv"),
                "--format", "json",
            ]
        )
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["f1"] == 1.0

    @pytest.mark.parametrize("role", ["replay-labels", "model", "config", "transcript"])
    def test_out_dir_over_an_input_exit_1(self, project, tmp_path, capsys, role):
        # a.txt's outputs are d/a.segments.txt and d/a.labels.tsv; each
        # role names one of them as an input.
        d = tmp_path / "d"
        d.mkdir()
        text = (project / "derived" / "doc0.txt").read_text()
        (d / "a.txt").write_text(text)
        argv = ["segment", str(d / "a.txt"), "--out-dir", str(tmp_path / "." / "d")]
        if role == "replay-labels":
            target = d / "a.labels.tsv"
            n = len(text.split())
            target.write_text(format_labels([
                ("a", SegmentationLabels.from_split_positions(n, [0, 2])),
                ("b", SegmentationLabels.from_split_positions(3, [0, 1])),
            ]))
            argv += ["--segmenter", "replay", "--replay-labels", str(target)]
        elif role == "model":
            target = d / "a.labels.tsv"
            target.write_bytes((project / "model.bin").read_bytes())
            argv += ["--model", str(target)]
        elif role == "config":
            target = d / "a.segments.txt"
            target.write_text('{"segmenter": "fixed"}\n')
            argv += ["--config", str(target)]
        else:
            target = d / "a.segments.txt"
            target.write_text(text)
            argv[2:2] = [str(target)]
            argv += ["--segmenter", "fixed"]
        before = snapshot(d)
        rc = main(argv)
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: refusing to overwrite input {target}; pick another --out-dir\n"
        )
        assert snapshot(d) == before

    def test_replay_missing_document(self, project, tmp_path, capsys):
        derived = project / "derived"
        partial = tmp_path / "partial.tsv"
        partial.write_text("other\t3\t1\n")
        rc = main(
            [
                "segment", str(derived / "doc0.txt"),
                "--out-dir", str(tmp_path / "out"),
                "--segmenter", "replay",
                "--replay-labels", str(partial),
            ]
        )
        assert rc == 5

    def test_replay_length_mismatch(self, project, tmp_path):
        derived = project / "derived"
        bad = tmp_path / "bad.tsv"
        bad.write_text("doc0\t2\t1\n")
        rc = main(
            [
                "segment", str(derived / "doc0.txt"),
                "--out-dir", str(tmp_path / "out"),
                "--segmenter", "replay",
                "--replay-labels", str(bad),
            ]
        )
        assert rc == 1

    def test_non_utf8_replay_labels_exit_3(self, project, tmp_path, capsys):
        bad = tmp_path / "labels.tsv"
        bad.write_bytes(b"doc0\t3\t\xff\n")
        rc = main(
            [
                "segment", str(project / "derived" / "doc0.txt"),
                "--out-dir", str(tmp_path / "out"),
                "--segmenter", "replay",
                "--replay-labels", str(bad),
            ]
        )
        assert rc == 3
        assert_path_error(capsys, bad)
        assert not (tmp_path / "out").exists()

    def test_fixed_needs_no_model(self, project, tmp_path):
        derived = project / "derived"
        rc = main(
            [
                "segment", str(derived / "doc0.txt"),
                "--out-dir", str(tmp_path / "out"),
                "--segmenter", "fixed",
                "--segment-len", "5",
            ]
        )
        assert rc == 0
        labels = read_labels_file(tmp_path / "out" / "doc0.labels.tsv")["doc0"]
        assert labels.split_positions() == tuple(range(0, len(labels), 5))

    def test_bad_config(self, project, tmp_path, capsys):
        derived = project / "derived"
        rc = main(
            [
                "segment", str(derived / "doc0.txt"),
                "--out-dir", str(tmp_path / "out"),
                "--segmenter", "autoregressive",
            ]
        )
        assert rc == 3
        assert "model_path" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["non-utf8", "directory"])
    def test_unreadable_config_exit_3(self, project, tmp_path, capsys, kind):
        config = tmp_path / "config.json"
        if kind == "directory":
            config.mkdir()
        else:
            config.write_bytes(b'{"segmenter": "fixed\xff"}\n')
        rc = main(
            [
                "segment", str(project / "derived" / "doc0.txt"),
                "--out-dir", str(tmp_path / "out"),
                "--config", str(config),
            ]
        )
        assert rc == 3
        assert_path_error(capsys, config)
        assert not (tmp_path / "out").exists()

    def test_non_finite_model_weights_exit_3(self, project, tmp_path, capsys):
        cfg = FeatureConfig(hash_dims=64, ngram_orders=(2,), context_radius=1, history=1)
        save_model(FeatureModel(cfg, np.full(cfg.hash_dims, np.nan)), tmp_path / "nan.bin")
        rc = main(
            [
                "segment", str(project / "derived" / "doc0.txt"),
                "--out-dir", str(tmp_path / "out"),
                "--segmenter", "autoregressive",
                "--model", str(tmp_path / "nan.bin"),
            ]
        )
        assert rc == 3
        assert "feature id 0 has non-finite weight nan" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    # Overflowing logits must not also print numpy RuntimeWarnings.
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_decoding_error_names_the_input_exit_1(self, tmp_path, capsys):
        # Even ids weigh 1e308 and odd ids -1e308: each weight is finite, so the
        # model loads, but their sums overflow to inf - inf = NaN while decoding.
        cfg = FeatureConfig(hash_dims=64, ngram_orders=(2,), context_radius=1, history=1)
        weights = np.where(np.arange(cfg.hash_dims) % 2 == 0, 1e308, -1e308)
        save_model(FeatureModel(cfg, weights), tmp_path / "overflow.bin")
        doc = tmp_path / "doc.txt"
        doc.write_text("alpha bravo charlie delta\n")
        rc = main(
            [
                "segment", str(doc),
                "--out-dir", str(tmp_path / "out"),
                "--model", str(tmp_path / "overflow.bin"),
            ]
        )
        assert rc == 1
        assert capsys.readouterr().err == f"error: {doc}: scorer returned NaN for 'bravo' at state 1\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_decoding_error_on_pool_threads_exit_1(self, tmp_path, capsys):
        # The overflowing model above, decoded in three windows on two threads:
        # numpy's error state is per thread, so the pool's must be quiet too.
        cfg = FeatureConfig(hash_dims=64, ngram_orders=(2,), context_radius=1, history=1)
        weights = np.where(np.arange(cfg.hash_dims) % 2 == 0, 1e308, -1e308)
        save_model(FeatureModel(cfg, weights), tmp_path / "overflow.bin")
        doc = tmp_path / "doc.txt"
        doc.write_text("alpha bravo charlie delta echo foxtrot golf hotel india juliet\n")
        rc = main(
            [
                "segment", str(doc),
                "--out-dir", str(tmp_path / "out"),
                "--model", str(tmp_path / "overflow.bin"),
                "--workers", "2",
                "--window-size", "4", "--window-left", "1", "--window-right", "1",
            ]
        )
        assert rc == 1
        assert capsys.readouterr().err == f"error: {doc}: scorer returned NaN for 'bravo' at state 1\n"
        assert not (tmp_path / "out").exists()

    def test_truncated_model_exit_3(self, project, tmp_path, capsys):
        cut = tmp_path / "cut.bin"
        cut.write_bytes((project / "model.bin").read_bytes()[:11])
        rc = main(
            [
                "segment", str(project / "derived" / "doc0.txt"),
                "--out-dir", str(tmp_path / "out"),
                "--segmenter", "autoregressive",
                "--model", str(cut),
            ]
        )
        assert rc == 3
        assert_path_error(capsys, cut)
        assert not (tmp_path / "out").exists()

    def test_non_utf8_input_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "doc.txt"
        bad.write_bytes(b"alpha \xff bravo\n")
        rc = main(["segment", str(bad), "--out-dir", str(tmp_path / "out"), "--segmenter", "fixed"])
        assert rc == 1
        assert_path_error(capsys, bad)
        assert not (tmp_path / "out").exists()

    def test_delimiter_in_unnormalized_token_exit_1(self, project, tmp_path, capsys):
        bad = tmp_path / "doc.txt"
        bad.write_text(f"alpha b{DEFAULT_DELIMITER}c delta\n", encoding="utf-8")
        rc = main(
            [
                "segment", str(bad),
                "--out-dir", str(tmp_path / "out"),
                "--segmenter", "autoregressive",
                "--model", str(project / "model.bin"),
                "--no-normalize",
            ]
        )
        assert rc == 1
        assert_path_error(capsys, bad)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "segmenter, endpoint",
        [
            ("fixed", None),
            ("external", MockEndpointConfig(mode="echo")),
            ("external", MockEndpointConfig(fail_all=True)),
        ],
        ids=["fixed", "external-echo", "external-fail-all"],
    )
    def test_delimiter_token_rejected_before_segmenting(
        self, tmp_path, capsys, segmenter, endpoint
    ):
        bad = tmp_path / "doc.txt"
        bad.write_text(f"hello a{DEFAULT_DELIMITER}b world again\n", encoding="utf-8")
        out = tmp_path / "out"
        argv = [
            "segment", str(bad), "--out-dir", str(out), "--segmenter", segmenter,
            "--no-normalize", "--endpoint-retries", "0",
        ]
        if endpoint is None:
            rc = main(argv)
        else:
            # Exit 1, not the endpoint's 4 under --fail-all: no request is sent.
            with MockEndpoint(endpoint) as ep:
                rc = main(argv + ["--endpoint-url", ep.url])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {bad}: token contains the delimiter symbol: 'a{DEFAULT_DELIMITER}b'\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("key", ["endpoint_timeout", "endpoint_backoff"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_non_finite_endpoint_setting_exit_3(
        self, project, tmp_path, capsys, key, value, via
    ):
        args = [
            "segment", str(project / "derived" / "doc0.txt"),
            "--out-dir", str(tmp_path / "out"),
            "--segmenter", "external",
            "--endpoint-url", "http://127.0.0.1:1/",
            "--endpoint-fallback", "fixed",
        ]
        if via == "flag":
            args += ["--" + key.replace("_", "-"), value]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({key: float(value)}))  # NaN / Infinity literals
            args += ["--config", str(cfg)]
        assert main(args) == 3
        assert f"{key} must be" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_backoff_past_the_longest_sleep_exit_3(self, project, tmp_path, capsys, via):
        # time.sleep(1e300) overflows the platform's time_t; the schedule is
        # refused before any window is decoded.
        args = [
            "segment", str(project / "derived" / "doc0.txt"),
            "--out-dir", str(tmp_path / "out"),
            "--segmenter", "external",
            "--endpoint-url", "http://127.0.0.1:1/",
            "--endpoint-retries", "1",
        ]
        if via == "flag":
            args += ["--endpoint-backoff", "1e300"]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"endpoint_backoff": 1e300}))
            args += ["--config", str(cfg)]
        assert main(args) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: endpoint_backoff must keep the longest retry sleep")
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_missing_input(self, project, tmp_path, capsys):
        rc = main(
            [
                "segment", str(tmp_path / "ghost.txt"),
                "--out-dir", str(tmp_path / "out"),
                "--segmenter", "fixed",
            ]
        )
        assert rc == 2

    def test_config_file_plus_override(self, project, tmp_path):
        derived = project / "derived"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"segmenter": "fixed", "segment_len": 3}))
        rc = main(
            [
                "segment", str(derived / "doc0.txt"),
                "--out-dir", str(tmp_path / "out"),
                "--config", str(cfg),
                "--segment-len", "7",
            ]
        )
        assert rc == 0
        labels = read_labels_file(tmp_path / "out" / "doc0.labels.tsv")["doc0"]
        assert labels.split_positions() == tuple(range(0, len(labels), 7))

    def test_null_config_values_mean_the_default(self, project, tmp_path):
        doc = tmp_path / "doc.txt"
        doc.write_text("Alpha, Bravo! " * 20 + "\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "segmenter": "fixed", "segment_len": None, "workers": None, "normalize": None,
            "strategy": None, "endpoint_timeout": None, "window": {"size": None},
        }))
        rc = main(["segment", str(doc), "--out-dir", str(tmp_path / "out"), "--config", str(cfg)])
        assert rc == 0
        labels = read_labels_file(tmp_path / "out" / "doc.labels.tsv")["doc"]
        assert labels.split_positions() == (0, 17, 34)
        assert (tmp_path / "out" / "doc.segments.txt").read_text().startswith("alpha bravo ")

    def test_null_window_block_means_the_default_window(self, project, tmp_path):
        doc = project / "derived" / "doc0.txt"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"segmenter": "fixed", "window": None}))
        for name, extra in (("null", ["--config", str(cfg)]), ("flags", ["--segmenter", "fixed"])):
            assert main(["segment", str(doc), "--out-dir", str(tmp_path / name), *extra]) == 0
        assert snapshot(tmp_path / "null") == snapshot(tmp_path / "flags")

    def test_non_object_window_block_exit_3(self, project, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"segmenter": "fixed", "window": 5}))
        rc = main(
            [
                "segment", str(project / "derived" / "doc0.txt"),
                "--out-dir", str(tmp_path / "out"),
                "--config", str(cfg),
            ]
        )
        assert rc == 3
        assert capsys.readouterr().err == "error: window: expected an object, got 5\n"
        assert not (tmp_path / "out").exists()

    def test_unreachable_endpoint(self, project, tmp_path, capsys):
        derived = project / "derived"
        rc = main(
            [
                "segment", str(derived / "doc0.txt"),
                "--out-dir", str(tmp_path / "out"),
                "--segmenter", "external",
                "--endpoint-url", "http://127.0.0.1:1/",
                "--constraint", "LEVENSHTEIN",
                "--endpoint-retries", "0",
                "--endpoint-timeout", "0.5",
            ]
        )
        assert rc == 4
        assert "error" in capsys.readouterr().err

    def test_malformed_endpoint_url_exit_3(self, project, tmp_path, capsys):
        rc = main(
            [
                "segment", str(project / "derived" / "doc0.txt"),
                "--out-dir", str(tmp_path / "out"),
                "--segmenter", "external",
                "--endpoint-url", "localhost:8080/",
                "--endpoint-fallback", "fixed",
            ]
        )
        assert rc == 3
        assert "http:// or https://" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_external_against_live_mock(self, project, tmp_path):
        derived = project / "derived"
        with MockEndpoint(MockEndpointConfig(mode="rule", period=6)) as ep:
            rc = main(
                [
                    "segment", str(derived / "doc0.txt"),
                    "--out-dir", str(tmp_path / "out"),
                    "--segmenter", "external",
                    "--endpoint-url", ep.url,
                    "--constraint", "LEVENSHTEIN",
                ]
            )
        assert rc == 0
        labels = read_labels_file(tmp_path / "out" / "doc0.labels.tsv")["doc0"]
        # period-6 delimiters restated per window, so every boundary the
        # endpoint emitted inside adopted regions lands on a multiple of 6
        # relative to its window start; just check shape and validity here.
        assert labels.split_positions()[0] == 0

    @pytest.mark.parametrize(
        "endpoint, text, code",
        [
            (MockEndpointConfig(mode="rule", period=3), "a b c d e f g", 0),
            (MockEndpointConfig(fail_all=True), "a b c d e f g", 4),
            (MockEndpointConfig(mode="rule"), f"a b{DEFAULT_DELIMITER}c d", 1),
        ],
        ids=["written", "endpoint-failure", "bad-token"],
    )
    def test_external_segmenter_closed_on_every_exit(
        self, tmp_path, monkeypatch, endpoint, text, code
    ):
        closed = []
        real_close = ExternalSegmenter.close

        def close(seg):
            closed.append(seg)
            real_close(seg)

        monkeypatch.setattr(ExternalSegmenter, "close", close)
        doc = tmp_path / "doc.txt"
        doc.write_text(text + "\n", encoding="utf-8")
        with MockEndpoint(endpoint) as ep:
            rc = main(
                [
                    "segment", str(doc), "--out-dir", str(tmp_path / "out"),
                    "--segmenter", "external", "--endpoint-url", ep.url,
                    "--endpoint-retries", "0", "--no-normalize",
                ]
            )
        assert rc == code
        assert len(closed) == 1 and closed[0]._idle == []

    def test_external_needs_no_constraint(self, project, tmp_path):
        with MockEndpoint(MockEndpointConfig(mode="rule", period=6)) as ep:
            rc = main(
                [
                    "segment", str(project / "derived" / "doc0.txt"),
                    "--out-dir", str(tmp_path / "out"),
                    "--segmenter", "external",
                    "--endpoint-url", ep.url,
                ]
            )
        assert rc == 0
        assert (tmp_path / "out" / "doc0.labels.tsv").is_file()

    @pytest.mark.parametrize(
        "flags, implied",
        [
            (["--segmenter", "fixed", "--constraint", "LEVENSHTEIN"], "FST"),
            (
                [
                    "--segmenter", "external", "--constraint", "FST",
                    "--endpoint-url", "http://127.0.0.1:1/",
                ],
                "LEVENSHTEIN",
            ),
        ],
    )
    def test_constraint_disagreeing_with_segmenter_exit_3(
        self, project, tmp_path, capsys, flags, implied
    ):
        rc = main(
            ["segment", str(project / "derived" / "doc0.txt"),
             "--out-dir", str(tmp_path / "out"), *flags]
        )
        assert rc == 3
        assert f"implies constraint {implied}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", ["seed", "abbreviations_path", "endpoint_concurrency"])
    def test_removed_config_key_exit_3(self, project, tmp_path, capsys, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"segmenter": "fixed", key: 1}))
        rc = main(
            [
                "segment", str(project / "derived" / "doc0.txt"),
                "--out-dir", str(tmp_path / "out"),
                "--config", str(cfg),
            ]
        )
        assert rc == 3
        assert f"unknown config key '{key}'" in capsys.readouterr().err

    def test_duplicate_stems_rejected_before_writing(self, tmp_path, capsys):
        inputs = []
        for sub, text in (("a", "alpha bravo charlie\n"), ("b", "delta echo\n")):
            (tmp_path / sub).mkdir()
            inputs.append(tmp_path / sub / "doc.txt")
            inputs[-1].write_text(text)
        out = tmp_path / "out"
        rc = main(
            ["segment", *map(str, inputs), "--segmenter", "fixed", "--out-dir", str(out)]
        )
        assert rc == 1
        assert "duplicate document stems in inputs" in capsys.readouterr().err
        assert not out.exists()

    def test_every_config_key_has_a_flag_that_reaches_the_config(self):
        flags = {
            "segmenter": (["--segmenter", "external"], "external"),
            "segment_len": (["--segment-len", "9"], 9),
            "model_path": (["--model", "m.bin"], "m.bin"),
            "replay_labels": (["--replay-labels", "l.tsv"], "l.tsv"),
            "strategy": (["--strategy", "beam:3"], "beam:3"),
            "constraint": (["--constraint", "LEVENSHTEIN"], "LEVENSHTEIN"),
            "endpoint_url": (["--endpoint-url", "http://x/"], "http://x/"),
            "endpoint_timeout": (["--endpoint-timeout", "2.5"], 2.5),
            "endpoint_retries": (["--endpoint-retries", "7"], 7),
            "endpoint_backoff": (["--endpoint-backoff", "0.5"], 0.5),
            "endpoint_fallback": (["--endpoint-fallback", "fixed"], "fixed"),
            "normalize": (["--no-normalize"], False),
            "workers": (["--workers", "3"], 3),
            "window.size": (["--window-size", "30"], 30),
            "window.left": (["--window-left", "4"], 4),
            "window.right": (["--window-right", "6"], 6),
        }
        window_keys = {f"window.{f.name}" for f in fields(WindowConfig)}
        config_keys = {f.name for f in fields(PipelineConfig)} - {"window"} | window_keys
        assert set(flags) == config_keys
        argv = ["segment", "x.txt"] + [arg for flag, _ in flags.values() for arg in flag]
        cfg = load_config(None, _segment_overrides(build_parser().parse_args(argv)))
        for key, (_, value) in flags.items():
            owner = cfg.window if key in window_keys else cfg
            assert getattr(owner, key.removeprefix("window.")) == value, key


class TestOracle:
    def test_identity_projection(self, project, tmp_path, capsys):
        raw = project / "raw"
        derived = project / "derived"
        out = tmp_path / "oracle.tsv"
        rc = main(
            [
                "oracle",
                "--references", *sorted(str(p) for p in raw.glob("*.txt")),
                "--asr", *sorted(str(p) for p in derived.glob("doc*.txt")),
                "--out", str(out),
            ]
        )
        assert rc == 0
        assert read_labels_file(out) == read_labels_file(derived / "labels.tsv")

    @pytest.mark.parametrize("target", ["references", "asr", "abbreviations"])
    def test_out_naming_an_input_exit_1(self, project, tmp_path, capsys, target):
        inputs = {
            "references": tmp_path / "ref" / "doc0.txt",
            "asr": tmp_path / "asr" / "doc0.txt",
            "abbreviations": tmp_path / "abbreviations.txt",
        }
        for path in inputs.values():
            path.parent.mkdir(exist_ok=True)
        inputs["references"].write_bytes((project / "raw" / "doc0.txt").read_bytes())
        inputs["asr"].write_bytes((project / "derived" / "doc0.txt").read_bytes())
        inputs["abbreviations"].write_text("mr.\n")
        before = {path: path.read_bytes() for path in inputs.values()}
        rc = main(
            [
                "oracle",
                "--references", str(inputs["references"]),
                "--asr", str(inputs["asr"]),
                "--abbreviations", str(inputs["abbreviations"]),
                "--out", str(inputs[target]),
            ]
        )
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: refusing to overwrite input {inputs[target]}; pick another --out\n"
        )
        assert {path: path.read_bytes() for path in inputs.values()} == before

    def test_unpaired(self, project, tmp_path, capsys):
        raw = project / "raw"
        other = tmp_path / "zzz.txt"
        other.write_text("alpha bravo okay\n")
        rc = main(
            [
                "oracle",
                "--references", str(raw / "doc0.txt"),
                "--asr", str(other),
                "--out", str(tmp_path / "o.tsv"),
            ]
        )
        assert rc == 5
        err = capsys.readouterr().err
        assert "doc0" in err and "zzz" in err

    def test_stem_a_labels_file_cannot_hold_exit_1(self, tmp_path, capsys):
        (tmp_path / "ref").mkdir()
        (tmp_path / "asr").mkdir()
        ref, asr = tmp_path / "ref" / "a\tb.txt", tmp_path / "asr" / "a\tb.txt"
        ref.write_text("Alpha bravo. Charlie delta.\n")
        asr.write_text("alpha bravo charlie delta\n")
        out = tmp_path / "o.tsv"
        rc = main(["oracle", "--references", str(ref), "--asr", str(asr), "--out", str(out)])
        assert rc == 1
        assert "document id 'a\\tb' holds a tab or line break" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("side", ["references", "asr"])
    def test_non_utf8_input_exit_1(self, project, tmp_path, capsys, side):
        bad = tmp_path / "doc0.txt"
        bad.write_bytes(b"Alpha \xff bravo.\n")
        inputs = {"references": project / "raw" / "doc0.txt",
                  "asr": project / "derived" / "doc0.txt"}
        inputs[side] = bad
        out = tmp_path / "o.tsv"
        rc = main(
            [
                "oracle",
                "--references", str(inputs["references"]),
                "--asr", str(inputs["asr"]),
                "--out", str(out),
            ]
        )
        assert rc == 1
        assert_path_error(capsys, bad)
        assert not out.exists()

    def test_delimiter_token_in_unnormalized_asr_exit_1(self, tmp_path, capsys):
        ref = tmp_path / "refs" / "d.txt"
        asr = tmp_path / "asr" / "d.txt"
        ref.parent.mkdir()
        asr.parent.mkdir()
        ref.write_text("Hello world. This is it.\n", encoding="utf-8")
        asr.write_text(f"hello {DEFAULT_DELIMITER} world this is it\n", encoding="utf-8")
        out = tmp_path / "o.tsv"
        rc = main(
            [
                "oracle",
                "--references", str(ref),
                "--asr", str(asr),
                "--out", str(out),
                "--no-normalize",
            ]
        )
        assert rc == 1
        assert_path_error(capsys, asr)
        assert not out.exists()

    def test_missing_abbreviations_exit_2(self, project, tmp_path, capsys):
        ghost = tmp_path / "ghost.txt"
        out = tmp_path / "o.tsv"
        rc = main(
            [
                "oracle",
                "--references", str(project / "raw" / "doc0.txt"),
                "--asr", str(project / "derived" / "doc0.txt"),
                "--out", str(out),
                "--abbreviations", str(ghost),
            ]
        )
        assert rc == 2
        assert f"error: input not found: {ghost}" in capsys.readouterr().err
        assert not out.exists()

    def test_non_utf8_abbreviations_exit_1(self, project, tmp_path, capsys):
        bad = tmp_path / "abbrev.txt"
        bad.write_bytes(b"mr.\n\xff.\n")
        out = tmp_path / "o.tsv"
        rc = main(
            [
                "oracle",
                "--references", str(project / "raw" / "doc0.txt"),
                "--asr", str(project / "derived" / "doc0.txt"),
                "--out", str(out),
                "--abbreviations", str(bad),
            ]
        )
        assert rc == 1
        assert_path_error(capsys, bad)
        assert not out.exists()

    def test_failed_write_leaves_existing_out_whole(
        self, project, tmp_path, monkeypatch, capsys
    ):
        out = tmp_path / "oracle.tsv"
        out.write_text("old\t3\t1\n")
        fail_nth_write(monkeypatch, 1)
        rc = main(
            [
                "oracle",
                "--references", str(project / "raw" / "doc0.txt"),
                "--asr", str(project / "derived" / "doc0.txt"),
                "--out", str(out),
            ]
        )
        assert rc == 1
        assert snapshot(tmp_path) == {"oracle.tsv": b"old\t3\t1\n"}
        assert_path_error(capsys, out)

    def test_reference_of_only_punctuation_exit_1(self, tmp_path, capsys):
        for side, text in (("refs", "... !!! ?\n"), ("asr", "hello world\n")):
            (tmp_path / side).mkdir()
            (tmp_path / side / "d.txt").write_text(text)
        out = tmp_path / "o.tsv"
        rc = main(
            [
                "oracle",
                "--references", str(tmp_path / "refs" / "d.txt"),
                "--asr", str(tmp_path / "asr" / "d.txt"),
                "--out", str(out),
            ]
        )
        assert rc == 1
        assert capsys.readouterr().err == "error: d: no tokens survive normalization\n"
        assert not out.exists()

    def test_unwritable_out_exit_1(self, project, tmp_path, capsys):
        out = unwritable(tmp_path) / "oracle.tsv"
        rc = main(
            [
                "oracle",
                "--references", str(project / "raw" / "doc0.txt"),
                "--asr", str(project / "derived" / "doc0.txt"),
                "--out", str(out),
            ]
        )
        assert rc == 1
        assert_path_error(capsys, out)


class TestEval:
    def test_text_format(self, project, capsys):
        derived = project / "derived"
        rc = main(
            [
                "eval",
                "--predicted", str(derived / "labels.tsv"),
                "--reference", str(derived / "labels.tsv"),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "precision" in out and "1.0000" in out

    def test_duplicate_across_files(self, project, tmp_path, capsys):
        derived = project / "derived"
        rc = main(
            [
                "eval",
                "--predicted", str(derived / "labels.tsv"), str(derived / "labels.tsv"),
                "--reference", str(derived / "labels.tsv"),
            ]
        )
        assert rc == 1
        assert "duplicate" in capsys.readouterr().err

    def test_unpaired_exit_code(self, project, tmp_path, capsys):
        derived = project / "derived"
        partial = tmp_path / "one.tsv"
        partial.write_text("doc0\t3\t1\n")
        rc = main(
            [
                "eval",
                "--predicted", str(partial),
                "--reference", str(derived / "labels.tsv"),
            ]
        )
        assert rc == 5


    def test_non_utf8_labels_exit_1(self, project, tmp_path, capsys):
        bad = tmp_path / "labels.tsv"
        bad.write_bytes(b"doc0\t3\t\xff\n")
        rc = main(
            [
                "eval",
                "--predicted", str(bad),
                "--reference", str(project / "derived" / "labels.tsv"),
            ]
        )
        assert rc == 1
        assert_path_error(capsys, bad)

    def test_length_mismatch_names_the_document_exit_1(self, tmp_path, capsys):
        predicted, reference = tmp_path / "p.tsv", tmp_path / "r.tsv"
        predicted.write_text("a\t3\t1\n")
        reference.write_text("a\t4\t1\n")
        rc = main(["eval", "--predicted", str(predicted), "--reference", str(reference)])
        assert rc == 1
        assert capsys.readouterr().err == "error: a: predicted length 3 != reference length 4\n"

    def test_each_missing_input_named_exit_2(self, tmp_path, capsys):
        predicted, reference = tmp_path / "p.tsv", tmp_path / "r.tsv"
        rc = main(["eval", "--predicted", str(predicted), "--reference", str(reference)])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: input not found: {predicted}\nerror: input not found: {reference}\n"
        )

    def test_no_documents_exit_1(self, tmp_path, capsys):
        empty = tmp_path / "empty.tsv"
        empty.write_text("")
        rc = main(["eval", "--predicted", str(empty), "--reference", str(empty)])
        assert rc == 1
        assert capsys.readouterr().err == "error: no documents to evaluate\n"


class TestMockEndpointCommand:
    def test_bad_flags_exit_before_serving(self, capsys):
        rc = main(["mock-endpoint", "--period", "0"])
        assert rc == 3
        assert "period" in capsys.readouterr().err

    @pytest.mark.parametrize("port", ["65536", "99999", "-1"])
    def test_port_out_of_range_exit_3(self, capsys, port):
        rc = main(["mock-endpoint", "--port", port])
        assert rc == 3
        assert capsys.readouterr().err == f"error: --port must be in [0, 65535], got {port}\n"

    def test_port_in_use_exit_1(self, capsys):
        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen()
            port = taken.getsockname()[1]
            rc = main(["mock-endpoint", "--port", str(port)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot serve on 127.0.0.1:{port}: ")
        assert err.count("\n") == 1 and "Traceback" not in err


class TestUsage:
    def test_no_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag", ["--seed", "--abbreviations", "--endpoint-concurrency"])
    def test_removed_segment_flags(self, flag):
        with pytest.raises(SystemExit) as exc:
            main(["segment", "x.txt", "--segmenter", "fixed", flag, "1"])
        assert exc.value.code == 2

    def test_unknown_choice(self):
        with pytest.raises(SystemExit) as exc:
            main(["segment", "x.txt", "--segmenter", "quantum"])
        assert exc.value.code == 2
