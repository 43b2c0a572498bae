"""A small generic FST library used as an independent structural reference.

The production automaton is built directly in closed form.  Here we take
the long way around: a straight-line acceptor for the window composed
with a one-state-per-phase delimiter-insertion transducer, then output
projection and trimming.  Tests compare the two constructions by graph
isomorphism and by language equality, reading the production acceptor
through the views at the end of this module.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

from windowseg.automaton import SegAutomaton

EPS = ""


@dataclass(frozen=True)
class Fst:
    """Arc-list transducer; EPS ("") on input or output marks an epsilon."""

    start: int
    finals: frozenset[int]
    arcs: tuple[tuple[int, str, str, int], ...]  # (src, inp, out, dst)

    def states(self) -> set[int]:
        out = {self.start} | set(self.finals)
        for src, _, _, dst in self.arcs:
            out.add(src)
            out.add(dst)
        return out


def line_acceptor(tokens: Sequence[str]) -> Fst:
    """Identity transducer accepting exactly the given token sequence."""
    arcs = tuple((i, tok, tok, i + 1) for i, tok in enumerate(tokens))
    return Fst(0, frozenset({len(tokens)}), arcs)


def delimiter_inserter(vocab: Sequence[str], delimiter: str) -> Fst:
    """Copies tokens, optionally inserting one delimiter before each.

    State 0 awaits the first token (no delimiter before it), state 1 is
    the steady copying phase, state 2 has just emitted a delimiter and
    must copy a token next.  Finals are 0 and 1:
    a pending delimiter may not end the string.
    """
    arcs: list[tuple[int, str, str, int]] = []
    for tok in sorted(set(vocab)):
        for src in (0, 1, 2):
            arcs.append((src, tok, tok, 1))
    arcs.append((1, EPS, delimiter, 2))
    return Fst(0, frozenset({0, 1}), arcs)


def compose(a: Fst, b: Fst) -> Fst:
    """Relational composition: a's output tape matched against b's input tape.

    Plain product construction.  ``a`` here never carries output epsilons,
    so no epsilon-filter is needed for path uniqueness.
    """
    for _, _, out, _ in a.arcs:
        if out == EPS:
            raise ValueError("left operand with output epsilons needs a filter")
    by_in: dict[str, list[tuple[int, str, str, int]]] = {}
    eps_b: list[tuple[int, str, str, int]] = []
    for arc in b.arcs:
        if arc[1] == EPS:
            eps_b.append(arc)
        else:
            by_in.setdefault(arc[1], []).append(arc)

    start = (a.start, b.start)
    index: dict[tuple[int, int], int] = {start: 0}
    queue: deque[tuple[int, int]] = deque([start])
    arcs: list[tuple[int, str, str, int]] = []

    def state_id(pair: tuple[int, int]) -> int:
        if pair not in index:
            index[pair] = len(index)
            queue.append(pair)
        return index[pair]

    while queue:
        qa, qb = pair = queue.popleft()
        src = index[pair]
        for arc in a.arcs:
            if arc[0] != qa:
                continue
            for barc in by_in.get(arc[2], ()):
                if barc[0] == qb:
                    arcs.append((src, arc[1], barc[2], state_id((arc[3], barc[3]))))
        for barc in eps_b:
            if barc[0] == qb:
                arcs.append((src, EPS, barc[2], state_id((qa, barc[3]))))

    finals = frozenset(
        idx
        for (qa, qb), idx in index.items()
        if qa in a.finals and qb in b.finals
    )
    return Fst(0, finals, tuple(arcs))


def project_output(fst: Fst) -> Fst:
    """Keep the output tape as an acceptor (labels become input==output)."""
    return Fst(
        fst.start,
        fst.finals,
        tuple((src, out, out, dst) for src, _, out, dst in fst.arcs),
    )


def trim(fst: Fst) -> Fst:
    """Restrict to states both reachable from start and co-reachable to a final."""
    fwd: dict[int, list[tuple[str, int]]] = {}
    bwd: dict[int, list[int]] = {}
    for src, _, out, dst in fst.arcs:
        fwd.setdefault(src, []).append((out, dst))
        bwd.setdefault(dst, []).append(src)

    reach = {fst.start}
    queue = deque([fst.start])
    while queue:
        for _, dst in fwd.get(queue.popleft(), ()):
            if dst not in reach:
                reach.add(dst)
                queue.append(dst)

    co = set(fst.finals)
    queue = deque(fst.finals)
    while queue:
        for src in bwd.get(queue.popleft(), ()):
            if src not in co:
                co.add(src)
                queue.append(src)

    keep = reach & co
    if fst.start not in keep:
        return Fst(fst.start, frozenset(), ())
    return Fst(
        fst.start,
        frozenset(fst.finals & keep),
        tuple(a for a in fst.arcs if a[0] in keep and a[3] in keep),
    )


def composed_segmentation_fsa(tokens: Sequence[str], delimiter: str) -> Fst:
    """The segmentation acceptor built via compose + project + trim."""
    a = line_acceptor(tokens)
    t = delimiter_inserter(tokens, delimiter)
    return trim(project_output(compose(a, t)))


def accepted_strings(fst: Fst, max_len: int = 64) -> Iterator[tuple[str, ...]]:
    """All output strings of an acyclic epsilon-free acceptor, DFS order."""
    fwd: dict[int, list[tuple[str, int]]] = {}
    for src, _, out, dst in fst.arcs:
        if out == EPS:
            raise ValueError("epsilon output in projected acceptor")
        fwd.setdefault(src, []).append((out, dst))
    stack: list[tuple[int, tuple[str, ...]]] = [(fst.start, ())]
    while stack:
        state, emitted = stack.pop()
        if len(emitted) > max_len:
            raise ValueError("string length cap exceeded; cyclic machine?")
        if state in fst.finals:
            yield emitted
        for out, dst in fwd.get(state, ()):
            stack.append((dst, emitted + (out,)))


def deterministic_arcs(fst: Fst) -> dict[int, dict[str, int]]:
    """Per-state label->dst map; raises if any state has duplicate labels."""
    out: dict[int, dict[str, int]] = {s: {} for s in fst.states()}
    for src, _, lab, dst in fst.arcs:
        if lab in out[src]:
            raise ValueError(f"nondeterministic on {lab!r} at state {src}")
        out[src][lab] = dst
    return out


def isomorphic(
    a_start: int,
    a_arcs: Mapping[int, Mapping[str, int]],
    a_finals: frozenset[int],
    b_start: int,
    b_arcs: Mapping[int, Mapping[str, int]],
    b_finals: frozenset[int],
) -> bool:
    """Graph isomorphism of two trim deterministic acceptors (BFS pairing)."""
    pair = {a_start: b_start}
    queue = deque([a_start])
    while queue:
        qa = queue.popleft()
        qb = pair[qa]
        arcs_a = a_arcs.get(qa, {})
        arcs_b = b_arcs.get(qb, {})
        if set(arcs_a) != set(arcs_b):
            return False
        if (qa in a_finals) != (qb in b_finals):
            return False
        for lab, na in arcs_a.items():
            nb = arcs_b[lab]
            if na in pair:
                if pair[na] != nb:
                    return False
            else:
                pair[na] = nb
                queue.append(na)
    if len(set(pair.values())) != len(pair):
        return False
    # Both machines trim: every state reachable, so the pairing must cover
    # all states on both sides for a true isomorphism.
    return len(pair) == len(a_arcs) and len(set(pair.values())) == len(b_arcs)


# Views of the production acceptor, derived from its arc table ``rows``.


def num_states(a: SegAutomaton) -> int:
    return len(a.rows)


def arcs(a: SegAutomaton) -> tuple[dict[str, int], ...]:
    """``arcs(a)[state][symbol] -> next state``."""
    return tuple({sym: nxt for sym, nxt, _ in row} for row in a.rows)


def enumerate_strings(a: SegAutomaton) -> Iterator[tuple[str, ...]]:
    """All accepted symbol strings, in depth-first token-before-delimiter order."""
    stack: list[tuple[int, tuple[str, ...]]] = [(a.start, ())]
    while stack:
        state, emitted = stack.pop()
        if state == a.final:
            yield emitted
            continue
        for sym, nxt, _ in reversed(a.rows[state]):
            stack.append((nxt, emitted + (sym,)))
