"""Document-level pipeline: windowing, threading, stitching, rendering."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from synth import make_document
from windowseg import pipeline
from windowseg.config import PipelineConfig
from windowseg.core import CONTINUE, SPLIT, SegmentationLabels
from windowseg.pipeline import (
    build_segmenter,
    render_segments,
    segment_tokens,
)
from windowseg.segmenters import FixedLengthSegmenter, ReplaySegmenter, WindowInfo
from windowseg.windowing import WindowConfig


class TestSegmentTokens:
    def test_empty_document(self):
        got = segment_tokens((), FixedLengthSegmenter(3))
        assert got == SegmentationLabels(())

    @given(st.integers(1, 300), st.integers(1, 20))
    def test_windowed_matches_single_pass(self, n, period):
        seg = FixedLengthSegmenter(period)
        tokens = ["x"] * n
        windowed = segment_tokens(tokens, seg, WindowConfig(40, 5, 5))
        assert windowed == seg.segment(tokens, WindowInfo())

    def test_worker_count_does_not_change_output(self):
        rng = random.Random(0)
        doc, labels = make_document(rng, "d", n_sentences=(20, 25))
        seg = ReplaySegmenter(labels)
        cfg = WindowConfig(40, 5, 5)
        outs = {segment_tokens(doc.tokens, seg, cfg, workers=w) for w in (1, 2, 4)}
        assert outs == {labels}

    @pytest.mark.parametrize("workers", [0, -1])
    def test_worker_count_below_one_rejected(self, workers):
        with pytest.raises(ValueError, match="workers"):
            segment_tokens(["x"] * 100, FixedLengthSegmenter(3), WindowConfig(40, 5, 5), workers)

    def test_default_runs_on_calling_thread(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("built a thread pool")

        monkeypatch.setattr(pipeline, "ThreadPoolExecutor", no_pool)
        tokens = ["x"] * 200
        seg = FixedLengthSegmenter(7)
        assert segment_tokens(tokens, seg, WindowConfig(40, 5, 5)) == seg.segment(tokens)

    def test_replay_round_trips_through_windows(self):
        rng = random.Random(1)
        doc, labels = make_document(rng, "d")
        got = segment_tokens(doc.tokens, ReplaySegmenter(labels), WindowConfig(40, 5, 5))
        assert got == labels

    def test_single_window_document(self):
        labels = SegmentationLabels.from_split_positions(6, [3])
        got = segment_tokens(["x"] * 6, ReplaySegmenter(labels), WindowConfig(40, 5, 5))
        assert got == labels


class TestBuildSegmenter:
    def test_fixed(self):
        seg = build_segmenter(PipelineConfig(segmenter="fixed", segment_len=4))
        assert isinstance(seg, FixedLengthSegmenter)
        assert seg.segment_len == 4

    def test_external_with_fallback(self):
        cfg = PipelineConfig(
            segmenter="external",
            endpoint_url="http://127.0.0.1:9/",
            constraint="LEVENSHTEIN",
            endpoint_fallback="fixed",
        )
        seg = build_segmenter(cfg)
        assert isinstance(seg.fallback, FixedLengthSegmenter)
        assert seg.config.url == cfg.endpoint_url

    def test_replay_is_explicitly_unsupported(self):
        with pytest.raises(ValueError, match="per document"):
            build_segmenter(PipelineConfig(segmenter="replay", replay_labels="x"))

    def test_unknown_kind_without_validate_raises(self):
        with pytest.raises(ValueError, match="unknown segmenter 'nope'"):
            build_segmenter(PipelineConfig(segmenter="nope"))

    def test_autoregressive_loads_model(self, tmp_path):
        from windowseg.segmenters import FeatureConfig, FeatureModel, save_model

        path = tmp_path / "m.bin"
        save_model(FeatureModel.zeros(FeatureConfig(hash_dims=64)), path)
        cfg = PipelineConfig(segmenter="autoregressive", model_path=str(path))
        seg = build_segmenter(cfg)
        assert seg.model.config.hash_dims == 64


    @pytest.mark.parametrize(
        "history, size, refused", [(10, 40, False), (11, 40, True), (20, 8, False), (20, 14, True)]
    )
    def test_exact_search_cost_guard(self, tmp_path, history, size, refused):
        # w * 2^min(h, w - 1) score calls against a limit of 2^16.
        from windowseg.segmenters import FeatureConfig, FeatureModel, save_model

        path = tmp_path / "m.bin"
        save_model(FeatureModel.zeros(FeatureConfig(hash_dims=64, history=history)), path)
        cfg = PipelineConfig(
            segmenter="autoregressive", model_path=str(path), strategy="exact",
            window=WindowConfig(size, 1, 1),
        )
        if refused:
            with pytest.raises(ValueError, match="exact search"):
                build_segmenter(cfg)
        else:
            assert build_segmenter(cfg).model.config.history == history
        cfg = PipelineConfig(
            segmenter="autoregressive", model_path=str(path), strategy="beam:4",
            window=WindowConfig(size, 1, 1),
        )
        build_segmenter(cfg)

class TestRenderSegments:
    def test_basic(self):
        labels = SegmentationLabels((SPLIT, CONTINUE, SPLIT, CONTINUE))
        assert render_segments(["a", "b", "c", "d"], labels) == ["a b", "c d"]

    def test_single_segment(self):
        labels = SegmentationLabels.from_split_positions(3, [])
        assert render_segments(["a", "b", "c"], labels) == ["a b c"]

    def test_empty(self):
        assert render_segments([], SegmentationLabels(())) == []

    def test_length_checked(self):
        with pytest.raises(ValueError):
            render_segments(["a"], SegmentationLabels(()))

    def test_round_trip_with_rule_corpus(self):
        rng = random.Random(3)
        doc, labels = make_document(rng, "d", n_sentences=(4, 6))
        lines = render_segments(doc.tokens, labels)
        assert " ".join(lines).split() == list(doc.tokens)
        assert len(lines) == len([p for p in labels.split_positions()])
