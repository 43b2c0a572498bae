"""Decoding, n-best lists and rescoring with the feature model.

The feature model supplies locally normalized per-token conditionals; the
automaton supplies the legal next symbols.  Mapping decisions onto arcs
(SPLIT to the delimiter arc, CONTINUE to the plain token arc, completion
and position-0 arcs free) makes every path score equal the model's
log-likelihood of the decoded labeling, so greedy, beam, and exact search
all optimize the same objective, and ``AutoregressiveSegmenter`` rescores a
complete labeling with the score its search path would get.  That makes one
segmenter the decoder, the n-best generator and ``rerank``'s scorer.

The model scores decisions, not symbols, so every labeling it can pick is
well-formed.  Greedy decoding therefore skips the acceptor: it reads one
logit per position and takes SPLIT where log p(SPLIT) would beat
log p(CONTINUE), the labeling greedy search through the acceptor returns
(``greedy_labels``).  Beam and exact search, n-best lists and rescoring
keep the acceptor.

The static part of each conditional is linear in hashed n-gram features,
so a token table caches it per (token, context offset), one row of a
growing matrix per token type: a segmenter hashes each distinct token once
(each of its n-grams once for all offsets), and every later window costs
one dict probe per token and one row gather instead of re-hashing the
n-grams of every position.  Rows are filled under a lock and read without
one.  The history part is one weight per pattern of recent decisions,
cached in the same table under the decisions packed into an int and shared
by every window, so a conditional costs one dict probe and one call of
``features.log_probs``, and a greedy decision one dict probe and one
comparison of the logit.  A window's scorer also remembers its
conditionals by position and packed last decisions (``Hypothesis.word``),
so beam hypotheses that share them compute them once.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from operator import lt
from typing import Optional, Sequence

import numpy as np

from ..automaton import (
    GREEDY,
    Hypothesis,
    SearchStrategy,
    _nan_error,
    beam,
    build_automaton,
    constrained_search,
    reject_delimiter,
)
from ..core import CONTINUE, DEFAULT_DELIMITER, SPLIT, Decision, SegmentationLabels
from .base import NBestList, WindowInfo
from .features import (
    PAD_LEFT,
    PAD_RIGHT,
    FeatureModel,
    bias_feature,
    history_bits,
    history_feature,
    log_probs,
    offset_ngram_id_matrix,
    # Not called here: TokenTable reproduces it.  bench/spans.py wraps
    # this module's binding.
    static_features,  # noqa: F401
)

# Rows a new token table has room for; the matrix doubles when full.
_FIRST_ROWS = 64

# A logit at least this large always decodes to SPLIT: for z > 0,
# ``log_probs`` computes e = log1p(exp(-z)), which lies in [0, log 2], where
# one ulp is at most 2**-53, so fl(z + e) > e and log p(SPLIT) = -e beats
# log p(CONTINUE) = -(z + e).  Below it, z + e may round to e, a tie that
# continues.
_SURE_SPLIT = 2.0 ** -52


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

    The weight of each history feature is cached in ``history_weights``
    and shared by every window.  Its key packs the decisions the feature
    encodes into an int, the last in the lowest bit, under a sentinel bit
    that gives their number: ``1 << h | word & (2**h - 1)`` from position
    ``h = history`` on, and ``1 << t | word`` at a position ``t`` before
    it, where fewer decisions precede (the pads).

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
        self.history_weights: dict[int, float] = {}
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

    def history_weight(self, key: int) -> float:
        """The weight of the history feature of the packed decisions ``key``."""
        got = self.history_weights.get(key)
        if got is None:
            cfg = self.model.config
            # Below the sentinel, the leading '1', the decisions oldest first.
            recent = [int(c) for c in format(key, "b")[1:]]
            bits = history_bits(recent, len(recent), cfg.history)
            got = float(self.model.weights[history_feature(cfg, bits)])
            self.history_weights[key] = got
        return got


class CachedConditionals:
    """A window's conditionals, and the symbol scorer search follows.

    Static logits come from the token table, one row gather for the tokens
    of the window and its pads; the decision history contributes one weight
    from the table's ``history_weights``, which every window shares.  A
    conditional costs packing the last decisions, one dict probe and one
    ``log_probs`` of the logit.  Without a ``table`` (which must belong to
    ``model``) the window gets a fresh one of its own.

    As a symbol scorer, delimiter arcs score log p(SPLIT) at the upcoming
    position; plain token arcs score log p(CONTINUE) unless they complete a
    delimiter detour or sit at position 0, both of which are structural
    (probability one, score zero).  ``history`` is the model's, so exact
    search merges hypotheses that share their last ``history`` decisions.
    Search scores a hypothesis's token arc and then its delimiter arc, so
    the scorer keeps the last hypothesis's conditionals and answers the
    second arc without a lookup.  It also keeps every conditional of the
    window, keyed by the position and the hypothesis's
    ``word & (2**history - 1)``: beam hypotheses at one position often
    share their last ``history`` decisions, and their conditional is then
    computed once.  Exact search never asks for one twice, and greedy
    decoding (``greedy_labels``) does not score symbols.  The scorer is
    built per window and so never shared between threads.
    """

    def __init__(
        self,
        model: FeatureModel,
        tokens: Sequence[str],
        table: Optional[TokenTable] = None,
    ):
        self.model = model
        self.tokens = tuple(tokens)
        self.history = model.config.history
        self._table = table if table is not None else TokenTable(model)
        self._static = self._table.static_logits(self.tokens)
        self._weights = self._table.history_weights
        self._mask = (1 << self.history) - 1
        self._memo: dict[int, tuple[float, float]] = {}
        self._last: Optional[Hypothesis] = None
        self._last_probs = (0.0, 0.0)

    def logprobs(self, t: int, prefix: Sequence[Decision]) -> tuple[float, float]:
        """(log p(CONTINUE), log p(SPLIT)) at position ``t`` given ``prefix``.

        ``prefix`` must hold at least ``t`` decisions; only
        ``prefix[t - history:t]`` is read, packed into the table's history
        key.  The values are ``features.log_probs`` of the logit.

        It takes the prefix, not a packed word: ``sequence_logprob`` passes
        a whole labeling, and bench/spans.py wraps this method by name and
        reads the prefix with ``history_bits``.
        """
        start = t - self.history
        key = 1
        for d in prefix[start if start > 0 else 0:t]:
            key = key << 1 | d
        w = self._weights.get(key)
        if w is None:
            w = self._table.history_weight(key)
        return log_probs(self._static[t] + w)

    def greedy_labels(self) -> list[Decision]:
        """The window's greedy labeling, decided on each position's logit.

        Position 0 is SPLIT; each later position is SPLIT exactly when
        ``logprobs`` would give log p(SPLIT) > log p(CONTINUE).  A logit of
        at least 2**-52 splits, and one of at most zero, ``-inf`` included,
        continues; only a logit in (0, 2**-52), where rounding can tie the
        two (``_SURE_SPLIT``), compares the two values of ``log_probs``.  A
        tie is CONTINUE, as greedy search through the acceptor takes the
        token arc first, and a NaN raises the error that search raises, so
        the two return the same labeling.  The history key is kept packed,
        one shift per decision.
        """
        tokens = self.tokens
        if not tokens:
            return []
        static = self._static
        get = self._weights.get
        history_weight = self._table.history_weight
        mask = self._mask
        top = mask + 1
        wrap = top << 1
        key = 0b11  # the sentinel, then position 0's SPLIT
        decisions = [SPLIT]
        for t in range(1, len(tokens)):
            if key >= wrap:  # more than ``history`` decisions: keep the last
                key = key & mask | top
            w = get(key)
            if w is None:
                w = history_weight(key)
            z = static[t] + w
            # In the band, SPLIT where log p(CONTINUE) < log p(SPLIT).
            if z >= _SURE_SPLIT or z > 0.0 and lt(*log_probs(z)):
                decisions.append(SPLIT)
                key = key << 1 | 1
            elif z == z:  # z <= 0, or a tie in the band; not NaN
                decisions.append(CONTINUE)
                key <<= 1
            else:
                raise _nan_error(tokens[t], t)
        return decisions

    def score_symbol(self, hypothesis: Hypothesis, symbol: str) -> float:
        split = symbol == DEFAULT_DELIMITER
        if not split and (hypothesis.pending or not hypothesis.decisions):
            return 0.0
        # Holding the hypothesis keeps its id from being reused.  The lookup
        # goes through the method, so a wrapper on the class sees each one.
        if hypothesis is not self._last:
            self._last = hypothesis
            decisions = hypothesis.decisions
            t = len(decisions)
            key = t << self.history | hypothesis.word & self._mask
            probs = self._memo.get(key)
            if probs is None:
                probs = self._memo[key] = self.logprobs(t, decisions)
            self._last_probs = probs
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
    """Feature-model segmenter.

    Decodes a window (``segment``), lists its n-best labelings (``nbest``)
    and scores a complete labeling (``score_sequence``, a
    ``SequenceScorer`` for ``rerank``).  Greedy decoding reads one
    conditional per position; beam and exact decoding and ``nbest`` search
    the acceptor.  Keeps one token table for its model, shared by every
    window and worker thread.
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
        if self.strategy.kind == "greedy":
            reject_delimiter(window)
            return SegmentationLabels(self.scorer(window).greedy_labels())
        a = build_automaton(window)
        best = constrained_search(a, self.scorer(window), self.strategy)[0]
        return SegmentationLabels(best.decisions)

    def nbest(self, window: Sequence[str], k: int) -> NBestList:
        """Top-k labelings from a beam of width k, best first."""
        if k < 1:
            raise ValueError("k must be >= 1")
        a = build_automaton(window)
        ranked = constrained_search(a, self.scorer(window), beam(k))
        return NBestList(tuple((SegmentationLabels(h.decisions), h.score) for h in ranked))

    def score_sequence(self, window: Sequence[str], labels: SegmentationLabels) -> float:
        """The model's log-likelihood of ``labels`` on ``window``.

        This is the score the search gives the same labeling's path, so the
        segmenter reranks its own or another generator's n-best list.
        """
        return self.scorer(window).sequence_logprob(labels.decisions)
