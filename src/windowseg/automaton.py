"""The all-segmentations acceptor and constrained search over it.

For a window of tokens ``x_0 .. x_{w-1}`` the acceptor recognizes exactly
the delimiter-insertions of the window: at every token position the path
either consumes the token directly or takes a detour that consumes the
delimiter and then the token.  The shape is a sawtooth: one main state per
position plus one detour state per delimiter slot.  Any search procedure
restricted to its arcs therefore emits well-formed output by construction.
The delimiter is core's one reserved symbol ``■`` (``DEFAULT_DELIMITER``);
the acceptor takes no other, and rejects a window token holding it.

Searches are generic over an autoregressive symbol scorer, so the same
machinery serves greedy decoding, beam search with ranked n-best output,
and exact search: one Viterbi pass over the token positions.  They return
complete hypotheses, best first, and build no labels: a caller builds
them from the ``decisions`` of the hypotheses it keeps.  A scorer setting
``history = h`` promises that its scores at a hypothesis depend only on
its state and last ``h`` decisions, so exact search merges hypotheses
sharing both, in O(w * 2^h) score calls.  A scorer without ``history``
may read the full prefix and is enumerated.

The feature model scores decisions, so ``AutoregressiveSegmenter``
searches here only for exact decoding.  Its greedy and beam decoding walk
the decisions and return what greedy and beam search here return for its
scorer, errors included.

A hypothesis carries its decisions (its labeling's ``Decision`` values)
and pending flag, which determine the symbols it emitted, and ``word``,
the decisions packed into an int with the last in the lowest bit.  A
scorer reads its last ``h`` decisions as ``word & (2**h - 1)``, and exact
search merges on that.  Beam search ranks hypotheses by ``(-score,
decisions + (SPLIT,) if pending else decisions)``: higher score first,
ties toward fewer and later delimiters.  Each step it extends every
hypothesis along every arc and keeps the ``width`` best children; at the
end it pools the greedy path, so a beam is never worse than greedy.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Optional, Protocol, Sequence

from .core import CONTINUE, DEFAULT_DELIMITER, SPLIT, Decision

# One leaving arc: (symbol, next state, whether symbol is the delimiter).
Arc = tuple[str, int, bool]


@dataclass(frozen=True)
class SegAutomaton:
    """Deterministic acceptor of all segmentations of one token window.

    ``rows[state]`` lists the arcs leaving ``state`` in search order: the
    token arc before the delimiter arc, a stable expansion order matching
    the tie-break preference for no delimiter.
    """

    tokens: tuple[str, ...]
    start: int
    final: int
    rows: tuple[tuple[Arc, ...], ...]


def reject_delimiter(tokens: Sequence[str]) -> None:
    """Raise ValueError for the first token holding the delimiter."""
    for tok in tokens:
        if DEFAULT_DELIMITER in tok:
            raise ValueError(f"token collides with the delimiter: {tok!r}")


def build_automaton(window_tokens: Sequence[str]) -> SegAutomaton:
    """Build the sawtooth acceptor for one window.

    Main states ``0..w`` consume the tokens in order; state ``w + i`` is the
    detour for the delimiter slot before token ``i`` (``0 < i < w``).  The
    slot before token 0 is absent (the global convention: a segment always
    opens there), giving 2^(w-1) accepted strings.  An empty window yields
    the single-state acceptor of the empty string.  A token holding the
    delimiter is rejected (a cheap subset of core's token rule).
    """
    tokens = tuple(window_tokens)
    reject_delimiter(tokens)
    w = len(tokens)
    token_arcs = [(tok, i + 1, False) for i, tok in enumerate(tokens)]
    rows = [
        (arc, (DEFAULT_DELIMITER, w + i, True)) if i else (arc,)
        for i, arc in enumerate(token_arcs)
    ]
    rows.append(())
    rows += [(arc,) for arc in token_arcs[1:]]
    return SegAutomaton(tokens=tokens, start=0, final=w, rows=tuple(rows))


@dataclass(frozen=True)
class SearchStrategy:
    """Decoding strategy: greedy, beam with a width, or exact."""

    kind: str
    beam_width: int = 1

    def __post_init__(self) -> None:
        if self.kind not in ("greedy", "beam", "exact"):
            raise ValueError(f"unknown search strategy {self.kind!r}")
        if self.beam_width < 1:
            raise ValueError("beam width must be >= 1")


GREEDY = SearchStrategy("greedy")
EXACT = SearchStrategy("exact")


def beam(width: int = 4) -> SearchStrategy:
    return SearchStrategy("beam", width)


def parse_strategy(name: str) -> SearchStrategy:
    """Parse ``greedy``, ``exact``, ``beam`` or ``beam:K``."""
    name = name.strip().lower()
    if name == "greedy":
        return GREEDY
    if name == "exact":
        return EXACT
    if name == "beam":
        return beam()
    if name.startswith("beam:"):
        width = name.split(":", 1)[1]
        if not width.isdecimal():  # isdigit() also passes "²", which int() rejects
            raise ValueError(f"beam width must be an integer, got {width!r}")
        return beam(int(width))
    raise ValueError(f"unknown search strategy {name!r}")


class Hypothesis:
    """A scored path prefix through the automaton.

    ``decisions`` records the ``Decision`` per consumed token (position 0
    is always SPLIT: its delimiter is implied); ``pending`` is set between
    a delimiter and the token that completes it.  ``word`` holds the same
    decisions packed into an int, the last in the lowest bit, so the last
    ``h`` of them are ``word & (2**h - 1)`` with no slice.  Searches build
    it with one shift-or per child; a caller that omits it gets it packed
    from ``decisions``.

    ``key`` is the beam ranking:
    ``(-score, decisions + (SPLIT,) if pending else decisions)``.  Higher
    score comes first; ties prefer fewer/later delimiters (lex order with
    CONTINUE < SPLIT), which favors longer segments.  Hypotheses are
    treated as immutable: searches and scorers never assign to them.
    """

    __slots__ = ("state", "score", "decisions", "pending", "word")

    def __init__(
        self,
        state: int,
        score: float,
        decisions: tuple[Decision, ...] = (),
        pending: bool = False,
        word: Optional[int] = None,
    ):
        self.state = state
        self.score = score
        self.decisions = decisions
        self.pending = pending
        if word is None:
            word = 0
            for d in decisions:
                word = word << 1 | d
        self.word = word

    @property
    def key(self) -> tuple[float, tuple[Decision, ...]]:
        return (-self.score, self.decisions + (SPLIT,) if self.pending else self.decisions)

    @property
    def position(self) -> int:
        """Number of tokens consumed so far."""
        return len(self.decisions)

    def __repr__(self) -> str:
        return (
            f"Hypothesis(state={self.state}, score={self.score!r}, "
            f"decisions={self.decisions}, pending={self.pending})"
        )


class SymbolScorer(Protocol):
    """Autoregressive log-scorer over output symbols.

    Setting ``history = h`` promises that scores at a hypothesis depend
    only on its state and its last ``h`` decisions; an absent ``history``
    means the full prefix.
    """

    def score_symbol(self, hypothesis: Hypothesis, symbol: str) -> float:
        ...


def _extend(hyp: Hypothesis, arc: Arc, step_score: float) -> Hypothesis:
    _, nxt, is_delimiter = arc
    score = hyp.score + step_score
    if is_delimiter:
        return Hypothesis(nxt, score, hyp.decisions, True, hyp.word)
    # Position 0 always opens a segment though no delimiter arc leads to
    # it; recording it as SPLIT keeps scorer decision histories
    # consistent with document-level labelings.
    if hyp.pending:
        return Hypothesis(nxt, score, hyp.decisions + (SPLIT,), False, hyp.word << 1 | 1)
    if hyp.decisions:
        return Hypothesis(nxt, score, hyp.decisions + (CONTINUE,), False, hyp.word << 1)
    return Hypothesis(nxt, score, (SPLIT,), False, 1)


def _nan_error(symbol: str, state: int) -> ValueError:
    return ValueError(f"scorer returned NaN for {symbol!r} at state {state}")


_KEY = attrgetter("key")


def _greedy_hypothesis(a: SegAutomaton, scorer: SymbolScorer) -> Hypothesis:
    """The greedy path through ``a``."""
    score_symbol = scorer.score_symbol
    hyp = Hypothesis(a.start, 0.0, (), False, 0)
    while hyp.state != a.final:
        best_arc = None
        best_score = 0.0  # read only once an arc is taken
        for arc in a.rows[hyp.state]:
            s = score_symbol(hyp, arc[0])
            if s != s:
                raise _nan_error(arc[0], hyp.state)
            # The first arc wins ties, even at -inf.
            if best_arc is None or s > best_score:
                best_arc, best_score = arc, s
        if best_arc is None:
            raise ValueError(f"state {hyp.state} has no arcs and is not final")
        hyp = _extend(hyp, best_arc, best_score)
    return hyp


def _search_beam(a: SegAutomaton, scorer: SymbolScorer, width: int) -> list[Hypothesis]:
    """Beam search of ``width``: up to ``width`` distinct labelings, best first."""
    score_symbol = scorer.score_symbol
    active = [Hypothesis(a.start, 0.0, (), False, 0)]
    finished: list[Hypothesis] = []
    while active:
        candidates: list[Hypothesis] = []
        for hyp in active:
            for arc in a.rows[hyp.state]:
                s = score_symbol(hyp, arc[0])
                if s != s:
                    raise _nan_error(arc[0], hyp.state)
                child = _extend(hyp, arc, s)
                (finished if arc[1] == a.final else candidates).append(child)
        candidates.sort(key=_KEY)
        del candidates[width:]
        active = candidates
    # Finished hypotheses (at most ``width`` a step) leave no pool, so one
    # ranking here keeps the top ``width`` that trimming at every step
    # would.  Pool the greedy path so a wider beam is never worse than
    # greedy even under adversarial scorers, then keep the best path of
    # each labeling: equal decisions are equal labels.
    pooled = sorted(finished + [_greedy_hypothesis(a, scorer)], key=_KEY)
    best: dict[tuple[Decision, ...], Hypothesis] = {}
    for h in pooled:
        best.setdefault(h.decisions, h)
    return list(best.values())[:width]


def _exact_hypothesis(a: SegAutomaton, scorer: SymbolScorer) -> Hypothesis:
    # One layer per token position; a pending child joins the layer being
    # read.  Of two children sharing state and last ``history`` decisions
    # only the one with the smaller key can lead to the optimum.
    history = getattr(scorer, "history", None)
    mask = None if history is None else (1 << history) - 1
    score_symbol = scorer.score_symbol
    rows = a.rows
    finished: list[Hypothesis] = []
    layer = [Hypothesis(a.start, 0.0, (), False, 0)]
    while layer:
        merged: dict[tuple, Hypothesis] = {}
        for hyp in layer:
            if hyp.state == a.final:
                finished.append(hyp)
                continue
            for arc in rows[hyp.state]:
                s = score_symbol(hyp, arc[0])
                if s != s:
                    raise _nan_error(arc[0], hyp.state)
                child = _extend(hyp, arc, s)
                if child.pending:
                    layer.append(child)
                    continue
                # Every child of a layer is at one position, so the word's
                # low bits name its last ``history`` decisions.
                sig = (child.state, child.decisions if mask is None else child.word & mask)
                kept = merged.get(sig)
                if kept is None or child.key < kept.key:
                    merged[sig] = child
        layer = list(merged.values())
    return min(finished, key=_KEY)


def constrained_search(
    a: SegAutomaton, scorer: SymbolScorer, strategy: SearchStrategy
) -> list[Hypothesis]:
    """Search the automaton language, returning complete hypotheses best first.

    Greedy and exact return one hypothesis; beam returns up to its width,
    with distinct ``decisions``.  Each hypothesis's ``decisions`` label the
    window and its ``score`` is its path score.  Every result is
    well-formed by construction since only automaton arcs are followed.
    """
    if strategy.kind == "beam":
        return _search_beam(a, scorer, strategy.beam_width)
    search = _greedy_hypothesis if strategy.kind == "greedy" else _exact_hypothesis
    return [search(a, scorer)]
