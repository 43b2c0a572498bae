"""Constrained decoding and reranking on top of the feature model.

The feature model supplies locally normalized per-token conditionals; the
automaton supplies the legal next symbols.  Mapping decisions onto arcs
(SPLIT to the delimiter arc, CONTINUE to the plain token arc, completion
and position-0 arcs free) makes every path score equal the model's
log-likelihood of the decoded labeling, so greedy, beam, and exact search
all optimize the same objective.

The static part of each conditional is linear in hashed n-gram features,
so a token table caches it per (token, context offset): a segmenter
hashes each distinct token once, and every later window costs one table
probe per token instead of re-hashing the n-grams of every position.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
from ..core import DEFAULT_DELIMITER, SPLIT, SegmentationLabels
from .base import NBestList, WindowInfo
from .features import (
    PAD_LEFT,
    PAD_RIGHT,
    FeatureModel,
    _softplus,
    bias_feature,
    history_bits,
    history_feature,
    offset_ngram_ids,
    # Not called here: TokenTable reproduces it.  bench/spans.py wraps
    # this module's binding.
    static_features,  # noqa: F401
)


class TokenTable:
    """Partial static logits of one model, cached per token type.

    ``row(token)[j]`` is the summed weight of the n-gram ids
    ``offset_ngram_ids`` gives ``token`` at context offset
    ``j - context_radius``.  The static logit is linear in those features,
    so the static logit of a position is the bias weight plus, for each
    offset, one entry of the row of the token found there.  The pads are
    rows like any other token, so a real token spelled ``<s>`` or ``</s>``
    shares the pad's row, as it shares its features in ``static_features``.

    ``static_logits`` adds the entries in ascending offset order, so each
    position's value depends on its ``2 * context_radius + 1`` context
    tokens alone, not on which rows were filled before or by whom.

    Rows and history weights are filled on first use and never change or
    get evicted: about 230 bytes per token type at the default radius.
    Threads may share a table; under the interpreter lock two threads
    racing on one token only compute the same row twice.  The weights are
    read when a row is filled, so a table must not outlive an in-place
    change to ``model.weights``.
    """

    def __init__(self, model: FeatureModel):
        self.model = model
        self._bias = float(model.weights[bias_feature(model.config)])
        self._rows: dict[str, np.ndarray] = {}
        self._history: dict[str, float] = {}

    def row(self, token: str) -> np.ndarray:
        got = self._rows.get(token)
        if got is None:
            cfg = self.model.config
            w = self.model.weights
            r = cfg.context_radius
            got = np.array(
                [w[offset_ngram_ids(cfg, token, d)].sum() for d in range(-r, r + 1)]
            )
            self._rows[token] = got
        return got

    def static_logits(self, tokens: Sequence[str]) -> list[float]:
        """The static logit of every position of the window ``tokens``."""
        n = len(tokens)
        if n == 0:
            return []
        r = self.model.config.context_radius
        context = [PAD_LEFT] * r + list(tokens) + [PAD_RIGHT] * r
        rows = np.stack([self.row(tok) for tok in context])
        total = np.full(n, self._bias)
        for j in range(2 * r + 1):
            total += rows[j:j + n, j]
        return total.tolist()

    def history_weight(self, bits: str) -> float:
        got = self._history.get(bits)
        if got is None:
            got = float(self.model.weights[history_feature(self.model.config, bits)])
            self._history[bits] = got
        return got


def _table_for(model: FeatureModel, table: Optional[TokenTable]) -> TokenTable:
    """``table`` if it was built for ``model``, else a new empty one."""
    if table is not None and table.model is model:
        return table
    return TokenTable(model)


class CachedConditionals:
    """Per-window cache of the model's conditionals.

    Static logits come from the token table, one row probe per token of
    the window and its pads; the decision history contributes one weight
    looked up by its bit pattern.  Each position's log-probabilities are
    cached under the last ``history`` decisions of its prefix, so a repeat
    costs one slice and one dict probe, which keeps search over many
    hypotheses cheap.
    Without a ``table`` (which must belong to ``model``) the window gets a
    fresh one of its own.
    """

    def __init__(
        self, model: FeatureModel, tokens: Sequence[str], table: Optional[TokenTable] = None
    ):
        self.model = model
        self.tokens = tuple(tokens)
        self._table = table if table is not None else TokenTable(model)
        self._static = self._table.static_logits(self.tokens)
        self._history = model.config.history
        self._probs: dict[tuple[int, tuple], tuple[float, float]] = {}

    def logprobs(self, t: int, prefix: Sequence[object]) -> tuple[float, float]:
        """(log p(CONTINUE), log p(SPLIT)) at position ``t`` given ``prefix``.

        Only ``prefix[t - history:t]`` is read; ``t`` in the cache key
        stands for the padding of positions before the window start.
        """
        start = t - self._history
        key = (t, tuple(prefix[start if start > 0 else 0:t]))
        got = self._probs.get(key)
        if got is None:
            bits = history_bits(prefix, t, self._history)
            z = self._static[t] + self._table.history_weight(bits)
            got = (-_softplus(z), -_softplus(-z))
            self._probs[key] = got
        return got

    def sequence_logprob(self, labels: Sequence[object]) -> float:
        decisions = list(labels)
        if len(decisions) != len(self.tokens):
            raise ValueError(
                f"labels length {len(decisions)} != window length {len(self.tokens)}"
            )
        total = 0.0
        for t in range(1, len(decisions)):
            lc, ls = self.logprobs(t, decisions)
            total += ls if _is_split(decisions[t]) else lc
        return total


def _is_split(d: object) -> bool:
    return d is SPLIT or d == 1


class FeatureStepScorer:
    """Adapts a feature model to the automaton's symbol-scoring interface.

    Delimiter arcs score log p(SPLIT) at the upcoming position; plain
    token arcs score log p(CONTINUE) unless they complete a delimiter
    detour or sit at position 0, both of which are structural (probability
    one, score zero).

    Search scores a hypothesis's token arc and then its delimiter arc, so
    the scorer keeps the last hypothesis's conditionals and answers the
    second arc without a lookup.  It is built per window and so never
    shared between threads.
    """

    def __init__(
        self,
        model: FeatureModel,
        tokens: Sequence[str],
        table: Optional[TokenTable] = None,
    ):
        self.history = model.config.history
        self.conditionals = CachedConditionals(model, tokens, table)
        self._last: Optional[Hypothesis] = None
        self._last_probs = (0.0, 0.0)

    def score_symbol(self, hypothesis: Hypothesis, symbol: str) -> float:
        split = symbol == DEFAULT_DELIMITER
        if not split and (hypothesis.pending or not hypothesis.decisions):
            return 0.0
        # Holding the hypothesis keeps its id from being reused.
        if hypothesis is not self._last:
            self._last = hypothesis
            self._last_probs = self.conditionals.logprobs(
                len(hypothesis.decisions), hypothesis.decisions
            )
        return self._last_probs[split]


@dataclass
class AutoregressiveSegmenter:
    """Feature-model segmenter decoding through the acceptor.

    Keeps one token table for its model, shared by every window and
    worker thread, and starts a new one when ``model`` is replaced.
    """

    model: Optional[FeatureModel]
    strategy: SearchStrategy = GREEDY
    name: str = "autoregressive"
    _table: Optional[TokenTable] = field(default=None, init=False, repr=False, compare=False)

    def _model(self) -> FeatureModel:
        if self.model is None:
            raise ValueError("no model loaded")
        return self.model

    def scorer(self, window: Sequence[str]) -> FeatureStepScorer:
        model = self._model()
        self._table = table = _table_for(model, self._table)
        return FeatureStepScorer(model, window, table)

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
        return NBestList(tuple(results[:k]), self.name)


@dataclass
class FeatureModelReranker:
    """Scores complete labelings by their log-likelihood under a feature model.

    Used as the second-stage scorer over another generator's n-best list;
    keeps a token table for its model, so rebuilding a window's
    conditionals for each candidate costs one table probe per token.
    """

    model: FeatureModel
    _table: Optional[TokenTable] = field(default=None, init=False, repr=False, compare=False)

    def score_sequence(self, window: Sequence[str], labels: SegmentationLabels) -> float:
        self._table = table = _table_for(self.model, self._table)
        return CachedConditionals(self.model, window, table).sequence_logprob(labels.decisions)
