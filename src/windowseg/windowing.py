"""Overlapping fixed-size windows over a transcript, and decision stitching.

A window of size ``w`` carries ``left`` tokens of left context and ``right``
tokens of right context.  Context tokens are visible to the window segmenter
but their local decisions are discarded; only the adopted span in the middle
contributes to the global labeling.  Consecutive windows advance by the
stride ``w - (left + right)`` so the adopted spans tile the transcript.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core import SPLIT, Decision, SegmentationLabels


@dataclass(frozen=True)
class WindowConfig:
    """Window size and context sizes, in tokens."""

    size: int = 40
    left: int = 5
    right: int = 5

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError("window size must be >= 1")
        if self.left < 0 or self.right < 0:
            raise ValueError("context sizes must be >= 0")
        if self.left + self.right >= self.size:
            raise ValueError(
                f"left + right context ({self.left} + {self.right}) must be "
                f"smaller than the window size ({self.size})"
            )

    @property
    def stride(self) -> int:
        return self.size - self.left - self.right


@dataclass(frozen=True)
class Window:
    """One planned window: global token span plus its adopted sub-span."""

    start: int
    end: int
    adopt_start: int
    adopt_end: int

    def __post_init__(self) -> None:
        if not (self.start <= self.adopt_start < self.adopt_end <= self.end):
            raise ValueError(f"adopted span must nest inside the window: {self}")

    def __len__(self) -> int:
        return self.end - self.start

    def slice(self, tokens: Sequence[str]) -> tuple[str, ...]:
        return tuple(tokens[self.start : self.end])


def plan_windows(n: int, cfg: WindowConfig) -> list[Window]:
    """Plan windows covering ``n`` tokens.

    Window k starts at ``k * stride``.  The first window adopts from
    position 0; the last window is truncated at ``n`` and adopts through
    ``n``.  Adopted spans are contiguous, disjoint, and cover [0, n).
    """
    if n < 0:
        raise ValueError("token count must be >= 0")
    if n == 0:
        return []
    windows: list[Window] = []
    k = 0
    while True:
        start = k * cfg.stride
        adopt_start = 0 if k == 0 else start + cfg.left
        if start + cfg.size >= n:
            windows.append(Window(start, n, adopt_start, n))
            return windows
        windows.append(Window(start, start + cfg.size, adopt_start, start + cfg.size - cfg.right))
        k += 1


def stitch(windows: Sequence[Window], window_labels: Sequence[SegmentationLabels]) -> SegmentationLabels:
    """Merge per-window decisions into one global labeling.

    Each global position takes its decision from the unique window whose
    adopted span contains it; position 0 is forced to SPLIT.
    """
    if len(windows) != len(window_labels):
        raise ValueError("one label sequence required per window")
    if not windows:
        return SegmentationLabels(())
    decisions: list[Decision] = []
    for win, labels in zip(windows, window_labels):
        if len(labels) != len(win):
            raise ValueError(
                f"window {win} expects {len(win)} decisions, got {len(labels)}"
            )
        if win.adopt_start != len(decisions):
            raise ValueError("adopted spans do not tile the transcript")
        decisions.extend(labels.decisions[win.adopt_start - win.start : win.adopt_end - win.start])
    decisions[0] = SPLIT
    return SegmentationLabels(tuple(decisions))
