"""Synthetic corpora, scorers, and brute-force oracles shared by tests."""

from __future__ import annotations

import itertools
import math
import random
from typing import Optional, Sequence

from windowseg.core import (
    CONTINUE,
    DEFAULT_DELIMITER,
    SPLIT,
    Decision,
    SegmentationLabels,
    Transcript,
)

STARTERS = ("well", "so", "now", "then")
TERMINALS = ("okay", "right", "yeah", "done")
MIDDLE = (
    "alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf",
    "hotel", "india", "juliet", "kilo", "lima", "mike", "november",
)


def make_sentence(rng: random.Random, middle_range: tuple[int, int] = (2, 7)) -> list[str]:
    """starter + middles + terminal: boundaries follow a deterministic
    lexical rule (a segment starts right after a terminal word)."""
    n_mid = rng.randint(*middle_range)
    return (
        [rng.choice(STARTERS)]
        + [rng.choice(MIDDLE) for _ in range(n_mid)]
        + [rng.choice(TERMINALS)]
    )


def make_document(
    rng: random.Random,
    source_id: str,
    n_sentences: tuple[int, int] = (8, 16),
) -> tuple[Transcript, SegmentationLabels]:
    tokens: list[str] = []
    starts: list[int] = []
    for _ in range(rng.randint(*n_sentences)):
        starts.append(len(tokens))
        tokens.extend(make_sentence(rng))
    return (
        Transcript(tuple(tokens), source_id),
        SegmentationLabels.from_split_positions(len(tokens), starts),
    )


def make_corpus(
    rng: random.Random,
    n_docs: int,
    n_sentences: tuple[int, int] = (8, 16),
    prefix: str = "doc",
) -> list[tuple[Transcript, SegmentationLabels]]:
    return [
        make_document(rng, f"{prefix}{i:03d}", n_sentences) for i in range(n_docs)
    ]


class TableScorer:
    """Locally normalized scorer from a random table p(SPLIT | t, prev).

    Depends only on the position and the previous decision, so the exact
    path score is cheap to reproduce by brute force, and exact search
    merges hypotheses on that one decision.
    """

    history = 1

    def __init__(
        self,
        rng: random.Random,
        n: int,
        low: float = 0.05,
        high: float = 0.95,
    ):
        self.n = n
        self.p = {
            (t, prev): rng.uniform(low, high)
            for t in range(1, n)
            for prev in (0, 1)
        }

    @staticmethod
    def _prev(hyp) -> int:
        # Position 0 is always a segment start.
        return hyp.decisions[-1] if hyp.decisions else 1

    def score_symbol(self, hyp, symbol: str) -> float:
        t = hyp.position
        if symbol == DEFAULT_DELIMITER:
            return math.log(self.p[(t, self._prev(hyp))])
        if hyp.pending or t == 0:
            return 0.0
        return math.log1p(-self.p[(t, self._prev(hyp))])

    def sequence_logprob(self, labels: Sequence[Decision]) -> float:
        total = 0.0
        for t in range(1, len(labels)):
            prev = 1 if labels[t - 1] is SPLIT else 0
            p = self.p[(t, prev)]
            total += math.log(p) if labels[t] is SPLIT else math.log1p(-p)
        return total


def all_labelings(n: int) -> list[SegmentationLabels]:
    """Every document labeling of length n (SPLIT fixed at position 0)."""
    if n == 0:
        return [SegmentationLabels(())]
    out = []
    for bits in itertools.product((CONTINUE, SPLIT), repeat=n - 1):
        out.append(SegmentationLabels((SPLIT,) + bits))
    return out


def brute_force_best(
    n: int, scorer: TableScorer
) -> tuple[SegmentationLabels, float]:
    """Argmax of the exact path score by enumeration, ties broken like the
    search: prefer CONTINUE at the earliest differing position."""
    def key(labels: SegmentationLabels):
        score = scorer.sequence_logprob(labels)
        bits = tuple(1 if d is SPLIT else 0 for d in labels)
        return (-score, bits)

    best = min(all_labelings(n), key=key)
    return best, scorer.sequence_logprob(best)


def corrupt_tokens(
    rng: random.Random,
    tokens: Sequence[str],
    rate: float,
    vocab: Optional[Sequence[str]] = None,
) -> list[str]:
    """Word-error-style corruption: per-token substitute/delete/insert."""
    vocab = tuple(vocab or MIDDLE)
    out: list[str] = []
    for tok in tokens:
        r = rng.random()
        if r < rate:
            op = rng.choice(("sub", "del", "ins"))
            if op == "sub":
                out.append(rng.choice(vocab))
            elif op == "ins":
                out.append(tok)
                out.append(rng.choice(vocab))
            # "del" drops the token
        else:
            out.append(tok)
    return out
