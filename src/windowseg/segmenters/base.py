"""Segmenter interface, fixed-length baseline, n-best lists, and reranking.

``rerank`` picks from an n-best list by a ``SequenceScorer``; an
``AutoregressiveSegmenter`` is one, scoring a labeling by its model's
log-likelihood.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol, Sequence

from ..core import CONTINUE, SPLIT, SegmentationLabels


@dataclass(frozen=True)
class WindowInfo:
    """Where a window sits in its document and how much of it is context.

    ``left_context``/``right_context`` count tokens at the window edges
    whose decisions will not be adopted; segmenters may use them as hints
    and external models receive them with the request.
    """

    global_start: int = 0
    left_context: int = 0
    right_context: int = 0

    def __post_init__(self) -> None:
        if self.global_start < 0 or self.left_context < 0 or self.right_context < 0:
            raise ValueError("window info fields must be >= 0")


class WindowSegmenter(Protocol):
    """Labels one window of tokens; must be deterministic given fixed state."""

    def segment(
        self, window: Sequence[str], info: WindowInfo = WindowInfo()
    ) -> SegmentationLabels:
        ...


@dataclass(frozen=True)
class NBestList:
    """Ranked (labels, score) candidates from one generator run."""

    entries: tuple[tuple[SegmentationLabels, float], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple((l, float(s)) for l, s in self.entries))
        scores = [s for _, s in self.entries]
        if any(a < b for a, b in zip(scores, scores[1:])):
            raise ValueError("n-best scores must be non-increasing")
        if len({labels for labels, _ in self.entries}) != len(self.entries):
            raise ValueError("n-best labelings must be distinct")

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def best(self) -> SegmentationLabels:
        if not self.entries:
            raise ValueError("empty n-best list")
        return self.entries[0][0]

    def prefix(self, k: int) -> "NBestList":
        """The top-k sublist; nested prefixes share ranking with the parent."""
        if k < 1:
            raise ValueError("k must be >= 1")
        return NBestList(self.entries[:k])


@dataclass(frozen=True)
class FixedLengthSegmenter:
    """Disjoint segments of a constant token count, periodic in global positions.

    Operating on global positions makes stitched windows reproduce the
    exact periodicity of a single pass.
    """

    segment_len: int

    def __post_init__(self) -> None:
        if self.segment_len < 1:
            raise ValueError("segment_len must be >= 1")

    def segment(
        self, window: Sequence[str], info: WindowInfo = WindowInfo()
    ) -> SegmentationLabels:
        return SegmentationLabels(
            tuple(
                SPLIT if (info.global_start + i) % self.segment_len == 0 else CONTINUE
                for i in range(len(window))
            )
        )


@dataclass(frozen=True)
class ReplaySegmenter:
    """Replays a fixed document-level labeling window by window.

    Stitching the replayed windows reconstructs the original labeling,
    which makes this the identity segmenter for a known answer.
    """

    labels: SegmentationLabels

    def segment(
        self, window: Sequence[str], info: WindowInfo = WindowInfo()
    ) -> SegmentationLabels:
        start = info.global_start
        end = start + len(window)
        if end > len(self.labels):
            raise ValueError(
                f"window [{start}, {end}) exceeds the {len(self.labels)}-token labeling"
            )
        return SegmentationLabels(self.labels.decisions[start:end])


class SequenceScorer(Protocol):
    """Assigns a total score to one complete (window, labels) pair."""

    def score_sequence(self, window: Sequence[str], labels: SegmentationLabels) -> float:
        ...


def rerank(
    window: Sequence[str], nbest: NBestList, scorer: SequenceScorer
) -> tuple[SegmentationLabels, float]:
    """The n-best entry maximizing the reranker score, with that score.

    Ties keep the earliest (best original rank) entry, ``-inf`` included,
    so a reranker that reproduces the generator's own scores returns the
    rank-1 entry.  A NaN score raises ``ValueError``, as in search.
    """
    if not nbest.entries:
        raise ValueError("cannot rerank an empty n-best list")
    best = None
    for rank, (labels, _) in enumerate(nbest.entries):
        score = scorer.score_sequence(window, labels)
        if math.isnan(score):
            raise ValueError(f"scorer returned NaN for n-best entry {rank}")
        if best is None or score > best[1]:
            best = (labels, score)
    return best
