"""End-to-end document segmentation: plan windows, run a segmenter, stitch.

Windows are independent.  By default they run one after another on the
calling thread; with ``workers > 1`` they run on a thread pool of that
size, which pays off only for segmenters that wait on I/O (``external``).
Results are stitched in plan order regardless of completion order, so
output is the same bytes for any worker count.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from concurrent.futures import ThreadPoolExecutor

from .automaton import parse_strategy
from .config import PipelineConfig
from .core import SPLIT, Decision, SegmentationLabels
from .segmenters import (
    AutoregressiveSegmenter,
    EndpointConfig,
    ExternalSegmenter,
    FixedLengthSegmenter,
    WindowInfo,
    WindowSegmenter,
    load_model,
)
from .windowing import WindowConfig, plan_windows, stitch

# Most steps a search may take per window.  For a w-token window, exact
# search with a model of history h makes about w * 2^min(h, w - 1) score
# calls through the acceptor, and beam:K ranks about 2 * w * min(K,
# 2^(w - 1)) candidates, one per arc the acceptor's beam would score.
# 2^16 allows h <= 10 or K <= 819 at the default w = 40, a few tenths of
# a second per window; h = 20 or K = 32768 would take a minute or more.
SEARCH_SCORE_CALLS_LIMIT = 2**16


def build_segmenter(cfg: PipelineConfig) -> WindowSegmenter:
    """Construct the configured window segmenter; validate() the config first.

    Refuses (ValueError) exact search with a model whose history makes it
    cost more than ``SEARCH_SCORE_CALLS_LIMIT`` score calls per window, and
    a beam whose width makes it rank more candidates than that.
    """
    if cfg.segmenter == "fixed":
        return FixedLengthSegmenter(cfg.segment_len)
    if cfg.segmenter == "autoregressive":
        model = load_model(cfg.model_path)
        strategy = parse_strategy(cfg.strategy)
        w, h, k = cfg.window.size, model.config.history, strategy.beam_width
        if strategy.kind == "exact" and w * 2 ** min(h, w - 1) > SEARCH_SCORE_CALLS_LIMIT:
            raise ValueError(
                f"exact search with a history-{h} model makes about {w}*2^{min(h, w - 1)} "
                f"score calls per {w}-token window, over the limit of "
                f"{SEARCH_SCORE_CALLS_LIMIT}; use beam:K or a model with a shorter history"
            )
        # min(K, 2^(w - 1)), without building 2^(w - 1) for a huge window.
        paths = min(k, 2 ** min(w - 1, k.bit_length()))
        if strategy.kind == "beam" and 2 * w * paths > SEARCH_SCORE_CALLS_LIMIT:
            raise ValueError(
                f"beam:{k} makes about 2*{w}*{paths} candidates per {w}-token window, "
                f"over the limit of {SEARCH_SCORE_CALLS_LIMIT}; use a narrower beam"
            )
        return AutoregressiveSegmenter(model, strategy)
    if cfg.segmenter == "external":
        fallback: Optional[WindowSegmenter] = None
        if cfg.endpoint_fallback == "fixed":
            fallback = FixedLengthSegmenter(cfg.segment_len)
        endpoint = EndpointConfig(
            url=cfg.endpoint_url or "",
            timeout=cfg.endpoint_timeout,
            max_retries=cfg.endpoint_retries,
            backoff=cfg.endpoint_backoff,
        )
        return ExternalSegmenter(endpoint, fallback)
    if cfg.segmenter == "replay":
        raise ValueError(
            "replay segmenters are per document; construct ReplaySegmenter directly"
        )
    raise ValueError(f"unknown segmenter {cfg.segmenter!r}")


def segment_tokens(
    tokens: Sequence[str],
    segmenter: WindowSegmenter,
    window: WindowConfig = WindowConfig(),
    workers: int = 1,
) -> SegmentationLabels:
    """Window, segment, and stitch one document's tokens.

    ``workers`` threads segment the windows; 1 runs them on the calling
    thread.  ``PipelineConfig.workers`` holds the resolved count for a
    configured segmenter.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    tokens = tuple(tokens)
    windows = plan_windows(len(tokens), window)

    def run(win) -> SegmentationLabels:
        info = WindowInfo(
            global_start=win.start,
            left_context=win.adopt_start - win.start,
            right_context=win.end - win.adopt_end,
        )
        return segmenter.segment(win.slice(tokens), info)

    count = min(len(windows), workers)
    if count <= 1:
        results = [run(w) for w in windows]
    else:
        with ThreadPoolExecutor(max_workers=count) as pool:
            results = list(pool.map(run, windows))
    return stitch(windows, results)


def render_segments(
    tokens: Sequence[str], labels: Union[SegmentationLabels, Sequence[Decision]]
) -> list[str]:
    """One line of space-joined tokens per segment; ints and bools raise ``TypeError``."""
    if not isinstance(labels, SegmentationLabels):
        labels = SegmentationLabels(labels)
    decisions = labels.decisions
    if len(decisions) != len(tokens):
        raise ValueError(f"labels length {len(decisions)} != token count {len(tokens)}")
    starts = [i for i, d in enumerate(decisions) if d is SPLIT or not i]
    return [" ".join(tokens[a:b]) for a, b in zip(starts, starts[1:] + [len(tokens)])]
