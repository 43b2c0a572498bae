"""Sawtooth acceptor construction and constrained search."""

import math
import random
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fstref
from reference import ConstantScorer, FunctionScorer
from synth import TableScorer, all_labelings, brute_force_best
from windowseg.automaton import (
    EXACT,
    GREEDY,
    SegAutomaton,
    SearchStrategy,
    beam,
    build_automaton,
    constrained_search,
    parse_strategy,
)
from windowseg.core import (
    CONTINUE,
    DEFAULT_DELIMITER,
    SPLIT,
    SegmentationLabels,
    decode_delimited,
)


def toks(w: int) -> tuple[str, ...]:
    return tuple(f"t{i}" for i in range(w))


def dict_built_rows(tokens, d=DEFAULT_DELIMITER):
    """Reference rows: the acceptor grown state by state as per-state dicts,
    each then stably sorted to put the delimiter arc last."""
    w = len(tokens)
    arcs = [{} for _ in range(w + 1)]
    for i in range(w):
        arcs[i][tokens[i]] = i + 1
        if i > 0:
            arcs.append({tokens[i]: i + 1})
            arcs[i][d] = len(arcs) - 1
    return tuple(
        tuple((sym, row[sym], sym == d) for sym in sorted(row, key=lambda s: s == d))
        for row in arcs
    )


class TestBuild:
    def test_empty_window(self):
        a = build_automaton(())
        assert a.start == a.final == 0
        assert list(fstref.enumerate_strings(a)) == [()]

    def test_state_count(self):
        # w+1 main states plus one detour per permitted delimiter slot.
        for w in range(1, 8):
            a = build_automaton(toks(w))
            assert fstref.num_states(a) == 2 * w

    def test_delimiter_collision_rejected(self):
        with pytest.raises(ValueError):
            build_automaton(("a", DEFAULT_DELIMITER))
        with pytest.raises(ValueError):
            build_automaton((f"x{DEFAULT_DELIMITER}y",))

    def test_repeated_tokens_fine(self):
        a = build_automaton(("a", "a", "a"))
        assert len(list(fstref.enumerate_strings(a))) == 4

    @pytest.mark.parametrize("window", [(), ("a",), ("a", "a", "b"), toks(9)])
    def test_arc_order_is_token_then_delimiter(self, window):
        a = build_automaton(window)
        assert a.rows == dict_built_rows(window)

    def test_arcs_view_matches_rows(self):
        d = DEFAULT_DELIMITER
        a = build_automaton(("a", "b", "c"))
        assert fstref.arcs(a) == ({"a": 1}, {"b": 2, d: 4}, {"c": 3, d: 5}, {}, {"b": 2}, {"c": 3})


class TestLanguage:
    def test_cardinality(self):
        for w in range(1, 8):
            a = build_automaton(toks(w))
            assert len(set(fstref.enumerate_strings(a))) == 2 ** (w - 1)

    def test_every_string_wellformed(self):
        for w in range(0, 7):
            a = build_automaton(toks(w))
            for s in fstref.enumerate_strings(a):
                labels = decode_delimited(s, toks(w))
                assert isinstance(labels, SegmentationLabels)

    def test_language_is_all_labelings(self):
        w = 5
        a = build_automaton(toks(w))
        got = {decode_delimited(s, toks(w)) for s in fstref.enumerate_strings(a)}
        assert got == set(all_labelings(w))


class TestComposeProject:
    @pytest.mark.parametrize("w", range(0, 5))
    def test_isomorphic_to_generic_construction(self, w):
        direct = build_automaton(toks(w))
        composed = fstref.composed_segmentation_fsa(toks(w), DEFAULT_DELIMITER)
        assert fstref.isomorphic(
            direct.start,
            dict(enumerate(fstref.arcs(direct))),
            frozenset({direct.final}),
            composed.start,
            fstref.deterministic_arcs(composed),
            composed.finals,
        )

    def test_language_equality(self):
        w = 5
        direct = set(fstref.enumerate_strings(build_automaton(toks(w))))
        composed = fstref.composed_segmentation_fsa(toks(w), DEFAULT_DELIMITER)
        assert set(fstref.accepted_strings(composed)) == direct

    def test_not_isomorphic_to_another_window(self):
        direct = build_automaton(toks(3))
        composed = fstref.composed_segmentation_fsa(("t0", "t2", "t1"), DEFAULT_DELIMITER)
        assert not fstref.isomorphic(
            direct.start,
            dict(enumerate(fstref.arcs(direct))),
            frozenset({direct.final}),
            composed.start,
            fstref.deterministic_arcs(composed),
            composed.finals,
        )


class TestStrategies:
    def test_parse(self):
        assert parse_strategy("greedy") == GREEDY
        assert parse_strategy("exact") == EXACT
        assert parse_strategy("beam") == beam()
        assert parse_strategy("beam:7") == SearchStrategy("beam", 7)
        with pytest.raises(ValueError):
            parse_strategy("viterbi")
        with pytest.raises(ValueError):
            parse_strategy("beam:0")

    @pytest.mark.parametrize("width", ["\u00b2", "-2", "2.0", ""])
    def test_beam_width_must_be_a_decimal_integer(self, width):
        with pytest.raises(ValueError, match=r"^beam width must be an integer, got "):
            parse_strategy(f"beam:{width}")

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            SearchStrategy("anneal")


class TestSearch:
    def test_empty_window_all_strategies(self):
        a = build_automaton(())
        sc = TableScorer(random.Random(0), 0)
        for strat in (GREEDY, EXACT, beam(4)):
            assert constrained_search(a, sc, strat) == [(SegmentationLabels(()), 0.0)]

    def test_tie_break_prefers_continue(self):
        a = build_automaton(toks(4))
        flat = TableScorer(random.Random(0), 4)
        for key in flat.p:
            flat.p[key] = 0.5
        want = SegmentationLabels((SPLIT, CONTINUE, CONTINUE, CONTINUE))
        for strat in (GREEDY, EXACT, beam(8)):
            assert constrained_search(a, flat, strat)[0][0] == want

    @pytest.mark.parametrize("strat", [GREEDY, beam(1), beam(4), EXACT])
    def test_nan_score_names_symbol_and_state(self, strat):
        a = build_automaton(toks(4))
        nan_split = FunctionScorer(
            toks(4), lambda prefix, sym: math.nan if sym == DEFAULT_DELIMITER else -0.5
        )
        with pytest.raises(ValueError, match=f"NaN for '{DEFAULT_DELIMITER}' at state 1"):
            constrained_search(a, nan_split, strat)

    @pytest.mark.parametrize("strat", [GREEDY, beam(1), beam(4), EXACT])
    def test_all_arcs_minus_inf_take_token_arcs(self, strat):
        a = build_automaton(toks(4))
        hopeless = FunctionScorer(toks(4), lambda prefix, sym: -math.inf)
        labels, score = constrained_search(a, hopeless, strat)[0]
        assert labels == SegmentationLabels((SPLIT, CONTINUE, CONTINUE, CONTINUE))
        assert score == -math.inf

    def test_dead_end_state_rejected(self):
        a = build_automaton(toks(2))
        dead = SegAutomaton(a.tokens, a.start, a.final, ((), *a.rows[1:]))
        with pytest.raises(ValueError, match="state 0 has no arcs and is not final"):
            constrained_search(dead, ConstantScorer(), GREEDY)

    def test_emitted_is_the_path_so_far(self):
        a = build_automaton(toks(6))
        seen = []

        def fn(emitted, sym):
            seen.append(emitted)
            return -0.1 * len(emitted) - (0.3 if sym == DEFAULT_DELIMITER else 0.0)

        for strat in (GREEDY, beam(4)):
            constrained_search(a, FunctionScorer(toks(6), fn), strat)
        assert () in seen
        for emitted in seen:
            words = [s for s in emitted if s != DEFAULT_DELIMITER]
            assert tuple(words) == toks(6)[:len(words)]
            assert all(
                not (x == y == DEFAULT_DELIMITER) for x, y in zip(emitted, emitted[1:])
            )
        assert len(set(seen)) > 6

    @given(st.integers(0, 2 ** 32 - 1))
    def test_exact_matches_brute_force(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 9)
        a = build_automaton(toks(n))
        sc = TableScorer(rng, n)
        (got, score), = constrained_search(a, sc, EXACT)
        want, want_score = brute_force_best(n, sc)
        assert got == want
        assert math.isclose(score, want_score, rel_tol=0, abs_tol=1e-9)

    @pytest.mark.parametrize("h", [0, 1, 2, 3])
    def test_merged_search_matches_enumeration(self, h):
        # The same scores with and without ``history``: merging hypotheses
        # must find the path (score and tie-break) that enumeration finds.
        # Dyadic scores sum exactly, so ties are real and frequent.
        for seed in range(40):
            n = seed % 10 + 1
            a = build_automaton(toks(n))
            merged = constrained_search(a, MarkovScorer(h, seed), EXACT)
            assert merged == constrained_search(a, MarkovScorer(h, seed, declare=False), EXACT)

    @pytest.mark.parametrize("h", [0, 1, 2, 4, 6])
    def test_exact_score_calls_bounded_by_history(self, h):
        for w in (1, 7, 40):
            scorer = MarkovScorer(h, w)
            constrained_search(build_automaton(toks(w)), scorer, EXACT)
            assert scorer.calls <= 3 * w * 2 ** h

    def test_exact_accepts_unnormalized_scores(self):
        # Every delimiter adds +0.3, so the optimum splits everywhere.
        a = build_automaton(toks(5))
        (labels, score), = constrained_search(a, ConstantScorer(0.3), EXACT)
        assert labels == SegmentationLabels((SPLIT,) * 5)
        assert score == pytest.approx(0.3 * 9)

    @given(st.integers(0, 2 ** 32 - 1))
    def test_full_width_beam_ranks_whole_language(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 7)
        a = build_automaton(toks(n))
        sc = TableScorer(rng, n)
        width = 2 ** (n - 1)
        results = constrained_search(a, sc, beam(width))
        assert len(results) == width
        assert {lab for lab, _ in results} == set(all_labelings(n))
        scores = [s for _, s in results]
        assert scores == sorted(scores, reverse=True)
        exact = constrained_search(a, sc, EXACT)[0]
        assert results[0][0] == exact[0]

    @given(st.integers(0, 2 ** 32 - 1))
    def test_beam_never_worse_than_greedy(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 10)
        a = build_automaton(toks(n))
        sc = TableScorer(rng, n)
        greedy_score = constrained_search(a, sc, GREEDY)[0][1]
        for width in (1, 2, 4):
            assert constrained_search(a, sc, beam(width))[0][1] >= greedy_score - 1e-12

    def test_width_monotone_on_smooth_scorers(self):
        # Not guaranteed for adversarial scorers; holds on this seeded
        # family and pins the expected behavior for realistic models.
        widths = (1, 2, 3, 4, 8, 16)
        for seed in range(150):
            rng = random.Random(seed)
            n = rng.randint(2, 10)
            a = build_automaton(toks(n))
            sc = TableScorer(rng, n)
            best = [constrained_search(a, sc, beam(w))[0][1] for w in widths]
            for lo, hi in zip(best, best[1:]):
                assert hi >= lo - 1e-12
            exact_score = constrained_search(a, sc, EXACT)[0][1]
            assert exact_score >= best[-1] - 1e-12

    @given(st.integers(0, 2 ** 32 - 1))
    def test_search_outputs_wellformed_and_deterministic(self, seed):
        rng = random.Random(seed)
        n = rng.randint(0, 12)
        a = build_automaton(toks(n))
        fn = FunctionScorer(toks(n), lambda prefix, sym: rng_free(prefix, sym, seed))
        for strat in (GREEDY, beam(3)):
            first = constrained_search(a, fn, strat)
            again = constrained_search(a, fn, strat)
            assert first == again
            for labels, _ in first:
                assert len(labels) == n
                assert isinstance(labels, SegmentationLabels)

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=30)
    def test_beam_list_strictly_distinct(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 8)
        a = build_automaton(toks(n))
        sc = TableScorer(rng, n)
        results = constrained_search(a, sc, beam(6))
        labelings = [lab for lab, _ in results]
        assert len(set(labelings)) == len(labelings)


class MarkovScorer:
    """Pseudo-random dyadic scores of the position, the pending flag and the
    last ``h`` decisions; declares ``history = h`` unless told not to, and
    counts its calls."""

    def __init__(self, h, seed, declare=True):
        self.h = h
        self.seed = seed
        self.calls = 0
        if declare:
            self.history = h

    def score_symbol(self, hyp, sym):
        self.calls += 1
        d = hyp.decisions
        key = (self.seed, len(d), d[max(0, len(d) - self.h):], hyp.pending, sym)
        return (zlib.crc32(repr(key).encode("utf-8")) % 64) / 16 - 2


def rng_free(prefix, sym, seed):
    """A deterministic pseudo-random scorer with no hidden state."""
    h = hash((prefix, sym, seed))
    return ((h % 1000) / 1000.0) * 4 - 2
