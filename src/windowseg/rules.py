"""Punctuation rules: sentence-terminal marks versus sentence-internal ones.

Given punctuated, cased text this layer decides which tokens close a
sentence and emits the normalized transcript together with its boundary
labels.  The same rules derive training supervision from reference
transcripts and segment any punctuated text a generative model returns.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Optional, Union

from .core import CONTINUE, SPLIT, Decision, SegmentationLabels, Transcript, _normalize_tokens
from .dataio import read_text

TERMINAL_MARKS = frozenset(".?!")

# Closing quotes/brackets that may trail a terminal mark ('end."' or 'end.)').
_CLOSERS = "\"')]}’”»"

_SINGLE_INITIAL = re.compile(r"^[a-z]\.$")


def load_abbreviations(path: Optional[Union[str, Path]] = None) -> frozenset[str]:
    """Read the abbreviation list: one lowercase entry per line, '#' comments."""
    if path is None:
        text = resources.files("windowseg").joinpath("data/abbreviations.txt").read_text("utf-8")
    else:
        text = read_text(path)
    entries = set()
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            entries.add(line.lower())
    return frozenset(entries)


@dataclass(frozen=True)
class RulePunctuation:
    """Boundary derivation from punctuation, with an abbreviation escape list."""

    abbreviations: frozenset[str] = field(default_factory=load_abbreviations)

    def is_terminal(self, raw_token: str) -> bool:
        """True if ``raw_token`` ends a sentence.

        A token is terminal when, after dropping closing quotes and
        brackets, it ends in '.', '?' or '!'.  A trailing period does not
        count when the token is a known abbreviation or a single letter
        (an initial like "J.").
        """
        word = raw_token.strip(_CLOSERS)
        if not word or word[-1] not in TERMINAL_MARKS:
            return False
        if word[-1] in "?!":
            return True
        core = word.lstrip("\"'([{‘“«").lower()
        if core in self.abbreviations:
            return False
        if _SINGLE_INITIAL.match(core):
            return False
        return True

    def derive_labels(self, punctuated_text: str) -> tuple[Transcript, SegmentationLabels]:
        """Normalize ``punctuated_text`` and label sentence starts.

        A boundary opens at the token following a terminal one.  Tokens
        that normalize to nothing (bare punctuation) are dropped; a
        terminal mark they carry still opens a boundary at the next
        surviving token.  Raises ValueError when no token survives.
        """
        tokens: list[str] = []
        decisions: list[Decision] = []
        pending = True  # position 0 always opens a segment
        raws = punctuated_text.split()
        for raw, norm in zip(raws, _normalize_tokens(raws)):
            if norm:
                decisions.append(SPLIT if pending else CONTINUE)
                tokens.append(norm)
                pending = False
            if self.is_terminal(raw):
                pending = True
        if not tokens:
            raise ValueError("no tokens survive normalization")
        return Transcript(tuple(tokens)), SegmentationLabels(tuple(decisions))

