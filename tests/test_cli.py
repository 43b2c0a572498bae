"""End-to-end command-line flows in temporary directories."""

import json
import random
from dataclasses import fields

import numpy as np
import pytest

from synth import make_sentence
from windowseg.cli import _segment_overrides, build_parser, main
from windowseg.config import PipelineConfig, load_config
from windowseg.dataio import read_labels_file
from windowseg.mock_endpoint import MockEndpoint, MockEndpointConfig
from windowseg.segmenters.features import FeatureConfig, FeatureModel, save_model
from windowseg.windowing import WindowConfig


def punctuated_doc(rng, n_sentences=(3, 5)):
    sentences = []
    for _ in range(rng.randint(*n_sentences)):
        words = make_sentence(rng)
        words[0] = words[0].capitalize()
        sentences.append(" ".join(words) + rng.choice(".!?"))
    return " ".join(sentences) + "\n"


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

    def test_missing_input(self, tmp_path, capsys):
        rc = main(["derive-labels", str(tmp_path / "ghost.txt"), "--out-dir", str(tmp_path)])
        assert rc == 2
        assert "not found" in capsys.readouterr().err

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

    @pytest.mark.parametrize("key", ["seed", "abbreviations_path"])
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
            "endpoint_concurrency": (["--endpoint-concurrency", "2"], 2),
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


class TestMockEndpointCommand:
    def test_bad_flags_exit_before_serving(self, capsys):
        rc = main(["mock-endpoint", "--period", "0"])
        assert rc == 3
        assert "period" in capsys.readouterr().err


class TestUsage:
    def test_no_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag", ["--seed", "--abbreviations"])
    def test_removed_segment_flags(self, flag):
        with pytest.raises(SystemExit) as exc:
            main(["segment", "x.txt", "--segmenter", "fixed", flag, "1"])
        assert exc.value.code == 2

    def test_unknown_choice(self):
        with pytest.raises(SystemExit) as exc:
            main(["segment", "x.txt", "--segmenter", "quantum"])
        assert exc.value.code == 2
