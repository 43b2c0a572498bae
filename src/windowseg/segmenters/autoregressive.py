"""Constrained decoding and reranking on top of the feature model.

The feature model supplies locally normalized per-token conditionals; the
automaton supplies the legal next symbols.  Mapping decisions onto arcs
(SPLIT to the delimiter arc, CONTINUE to the plain token arc, completion
and position-0 arcs free) makes every path score equal the model's
log-likelihood of the decoded labeling, so greedy, beam, and exact search
all optimize the same objective.

The static part of each conditional is linear in hashed n-gram features,
so a token table caches it per (token, context offset), one row of a
growing matrix per token type: a segmenter hashes each distinct token once
(each of its n-grams once for all offsets), and every later window costs
one dict probe per token and one row gather instead of re-hashing the
n-grams of every position.  Rows are filled under a lock and read without
one.  The history part is one weight per pattern of recent decisions,
cached in the same table and shared by every window, so each search step
costs one dict probe, one ``exp`` and one ``log1p``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from math import exp, log1p
from typing import Optional, Sequence

import numpy as np

from ..automaton import (
    GREEDY,
    Hypothesis,
    SearchStrategy,
    beam,
    build_automaton,
    constrained_search,
)
from ..core import DEFAULT_DELIMITER, Decision, SegmentationLabels
from .base import NBestList, WindowInfo
from .features import (
    PAD_LEFT,
    PAD_RIGHT,
    FeatureModel,
    bias_feature,
    history_bits,
    history_feature,
    offset_ngram_id_matrix,
    # Not called here: TokenTable reproduces it.  bench/spans.py wraps
    # this module's binding.
    static_features,  # noqa: F401
)

# Rows a new token table has room for; the matrix doubles when full.
_FIRST_ROWS = 64


class TokenTable:
    """Partial static logits of one model, cached per token type.

    Row ``i`` of one growing float64 matrix belongs to the token that
    ``_index`` maps to ``i``; its entry ``j`` is the summed weight of the
    n-gram ids the token has at context offset ``j - context_radius``
    (``offset_ngram_id_matrix``).  The static logit is linear in those
    features, so the static logit of a position is the bias weight plus,
    for each offset, one entry of the row of the token found there.  The
    pads are rows like any other token, so a real token spelled ``<s>`` or
    ``</s>`` shares the pad's row, as it shares its features in
    ``static_features``.

    ``static_logits`` gathers a window's rows with one fancy index and adds
    the entries in ascending offset order, so each position's value depends
    on its ``2 * context_radius + 1`` context tokens alone, not on which rows
    were filled before or by whom.

    The weight of each history feature is cached in ``history_weights``,
    keyed by the tuple of the decisions it encodes (see
    ``CachedConditionals.logprobs``) and shared by every window.

    Rows and history weights are filled on first use and never change or
    get evicted: 180-230 bytes per token type at the default radius
    (measured with tracemalloc over 3,000 to 8,200 types), of which 88 are
    the row and up to as much again is room left after the matrix doubled.
    Threads may share a table.  A row is filled under a lock: the token is
    looked up again, the row written (into a doubled matrix when the matrix
    is full) and only then its index published, so a reader that finds an
    index finds its row in the current matrix without taking the lock.  A
    history weight needs no lock: threads racing on one store the same
    value.  The weights are read when a row is filled, so a table must not
    outlive an in-place change to ``model.weights``.
    """

    def __init__(self, model: FeatureModel):
        self.model = model
        self.history_weights: dict[tuple, float] = {}
        self._bias = float(model.weights[bias_feature(model.config)])
        self._matrix = np.empty((_FIRST_ROWS, 2 * model.config.context_radius + 1))
        self._index: dict[str, int] = {}
        self._lock = threading.Lock()

    def _fill(self, token: str) -> int:
        """The row index of ``token``, filling its row first if it has none."""
        row = self.model.weights[offset_ngram_id_matrix(self.model.config, token)].sum(axis=1)
        with self._lock:
            got = self._index.get(token)
            if got is None:
                got = len(self._index)
                if got == len(self._matrix):
                    grown = np.empty((2 * got, self._matrix.shape[1]))
                    grown[:got] = self._matrix
                    self._matrix = grown
                self._matrix[got] = row
                self._index[token] = got
        return got

    def static_logits(self, tokens: Sequence[str]) -> list[float]:
        """The static logit of every position of the window ``tokens``."""
        n = len(tokens)
        r = self.model.config.context_radius
        context = [PAD_LEFT] * r + list(tokens) + [PAD_RIGHT] * r
        get = self._index.get
        index = [get(tok) for tok in context]
        # Finite weights may sum to inf or NaN, in a row or across offsets.
        # The search reports a NaN logit as its one error, so numpy must not
        # warn; its error state belongs to the thread, set here because
        # windows decode on pool threads.
        with np.errstate(over="ignore", invalid="ignore"):
            if None in index:
                index = [self._fill(tok) if i is None else i for tok, i in zip(context, index)]
            # Read after every index is published, so every row is in it.
            rows = self._matrix[index]
            total = np.full(n, self._bias)
            for j in range(2 * r + 1):
                total += rows[j:j + n, j]
        return total.tolist()

    def history_weight(self, recent: tuple) -> float:
        """The weight of the history feature of the decisions ``recent``.

        ``recent`` holds the last ``history`` decisions, or all of them at a
        position with fewer before it.
        """
        got = self.history_weights.get(recent)
        if got is None:
            cfg = self.model.config
            bits = history_bits(recent, len(recent), cfg.history)
            got = float(self.model.weights[history_feature(cfg, bits)])
            self.history_weights[recent] = got
        return got


class CachedConditionals:
    """A window's conditionals, and the symbol scorer search follows.

    Static logits come from the token table, one row gather for the tokens
    of the window and its pads; the decision history contributes one weight
    from the table's ``history_weights``, which every window shares.  A
    step costs one slice, one dict probe, one ``exp`` and one ``log1p``, so
    there is no per-window cache to fill.
    Without a ``table`` (which must belong to ``model``) the window gets a
    fresh one of its own.

    As a symbol scorer, delimiter arcs score log p(SPLIT) at the upcoming
    position; plain token arcs score log p(CONTINUE) unless they complete a
    delimiter detour or sit at position 0, both of which are structural
    (probability one, score zero).  ``history`` is the model's, so exact
    search merges hypotheses that share their last ``history`` decisions.
    Search scores a hypothesis's token arc and then its delimiter arc, so
    the scorer keeps the last hypothesis's conditionals and answers the
    second arc without a lookup.  It is built per window and so never
    shared between threads.
    """

    def __init__(
        self, model: FeatureModel, tokens: Sequence[str], table: Optional[TokenTable] = None
    ):
        self.model = model
        self.tokens = tuple(tokens)
        self.history = model.config.history
        self._table = table if table is not None else TokenTable(model)
        self._static = self._table.static_logits(self.tokens)
        self._weights = self._table.history_weights
        self._last: Optional[Hypothesis] = None
        self._last_probs = (0.0, 0.0)

    def logprobs(self, t: int, prefix: Sequence[Decision]) -> tuple[float, float]:
        """(log p(CONTINUE), log p(SPLIT)) at position ``t`` given ``prefix``.

        ``prefix`` must hold at least ``t`` decisions; only
        ``prefix[t - history:t]`` is read.  Before position ``history`` the
        key is shorter, and its length stands for the pads.  The values are
        bit for bit ``(-_softplus(z), -_softplus(-z))``, sharing the one
        ``exp`` and ``log1p`` the two calls would make.
        """
        start = t - self.history
        recent = tuple(prefix[start if start > 0 else 0:t])
        w = self._weights.get(recent)
        if w is None:
            w = self._table.history_weight(recent)
        z = self._static[t] + w
        if z > 0:
            e = log1p(exp(-z))
            return (-(z + e), -e)
        e = log1p(exp(z))
        return (-e, -(-z + e))

    def score_symbol(self, hypothesis: Hypothesis, symbol: str) -> float:
        split = symbol == DEFAULT_DELIMITER
        if not split and (hypothesis.pending or not hypothesis.decisions):
            return 0.0
        # Holding the hypothesis keeps its id from being reused.  The lookup
        # goes through the method, so a wrapper on the class sees each one.
        if hypothesis is not self._last:
            self._last = hypothesis
            self._last_probs = self.logprobs(len(hypothesis.decisions), hypothesis.decisions)
        return self._last_probs[split]

    def sequence_logprob(self, labels: Sequence[Decision]) -> float:
        decisions = list(labels)
        if len(decisions) != len(self.tokens):
            raise ValueError(
                f"labels length {len(decisions)} != window length {len(self.tokens)}"
            )
        total = 0.0
        for t in range(1, len(decisions)):
            total += self.logprobs(t, decisions)[decisions[t]]
        return total


@dataclass(frozen=True)
class AutoregressiveSegmenter:
    """Feature-model segmenter decoding through the acceptor.

    Keeps one token table for its model, shared by every window and
    worker thread.
    """

    model: FeatureModel
    strategy: SearchStrategy = GREEDY
    _table: TokenTable = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_table", TokenTable(self.model))

    def scorer(self, window: Sequence[str]) -> CachedConditionals:
        return CachedConditionals(self.model, window, self._table)

    def segment(
        self, window: Sequence[str], info: WindowInfo = WindowInfo()
    ) -> SegmentationLabels:
        a = build_automaton(window)
        return constrained_search(a, self.scorer(window), self.strategy)[0][0]

    def nbest(
        self, window: Sequence[str], k: int, strategy: Optional[SearchStrategy] = None
    ) -> NBestList:
        """Top-k labelings; defaults to a beam of width k.

        With one strategy fixed, lists for growing k are nested prefixes
        of the same ranking whenever the strategy's width covers them.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        strat = strategy or beam(k)
        a = build_automaton(window)
        results = constrained_search(a, self.scorer(window), strat)
        return NBestList(tuple(results[:k]), "autoregressive")


@dataclass(frozen=True)
class FeatureModelReranker:
    """Scores complete labelings by their log-likelihood under a feature model.

    Used as the second-stage scorer over another generator's n-best list;
    keeps a token table for its model, so rebuilding a window's
    conditionals for each candidate costs one table probe per token.
    """

    model: FeatureModel
    _table: TokenTable = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_table", TokenTable(self.model))

    def score_sequence(self, window: Sequence[str], labels: SegmentationLabels) -> float:
        return CachedConditionals(self.model, window, self._table).sequence_logprob(
            labels.decisions
        )
