"""Window segmenters, n-best lists, and reranking."""

import math
import random
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference import _softplus, logit, ranked, reference_beam, score_step, sequence_logprob
from synth import make_document
from windowseg.automaton import EXACT, GREEDY, beam, build_automaton, constrained_search
from windowseg.core import CONTINUE, DEFAULT_DELIMITER, SPLIT, SegmentationLabels
from windowseg.pipeline import segment_tokens
from windowseg.segmenters import (
    AutoregressiveSegmenter,
    CachedConditionals,
    FeatureConfig,
    FeatureModel,
    FixedLengthSegmenter,
    NBestList,
    ReplaySegmenter,
    WindowInfo,
    rerank,
    train_feature_model,
)
from windowseg.segmenters import autoregressive
from windowseg.segmenters.autoregressive import TokenTable
from windowseg.segmenters.features import (
    TrainConfig,
    history_bits,
    offset_ngram_id_matrix,
    offset_ngram_ids,
    static_features,
)
from windowseg.windowing import WindowConfig, plan_windows, stitch

CFG = FeatureConfig(hash_dims=2 ** 14, ngram_orders=(2, 3), context_radius=3, history=2)


@pytest.fixture(scope="module")
def model():
    rng = random.Random(21)
    corpus = [make_document(rng, f"d{i}") for i in range(6)]
    return train_feature_model(corpus, CFG, TrainConfig(epochs=2)).model


def random_model(seed, cfg=CFG):
    rng = np.random.default_rng(seed)
    return FeatureModel(cfg, rng.normal(0, 0.4, cfg.hash_dims))


class TestWindowInfo:
    def test_defaults(self):
        info = WindowInfo()
        assert (info.global_start, info.left_context, info.right_context) == (0, 0, 0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            WindowInfo(global_start=-1)


class TestFixedLength:
    def test_periodic_from_global_start(self):
        seg = FixedLengthSegmenter(3)
        labels = seg.segment(["a"] * 7, WindowInfo(global_start=2))
        assert labels.split_positions() == (1, 4)

    def test_validation(self):
        with pytest.raises(ValueError):
            FixedLengthSegmenter(0)

    @given(st.integers(1, 9), st.integers(1, 80))
    def test_windowed_equals_single_pass(self, period, n):
        seg = FixedLengthSegmenter(period)
        tokens = ["x"] * n
        single = seg.segment(tokens, WindowInfo())
        cfg = WindowConfig(12, 3, 3)
        wins = plan_windows(n, cfg)
        per = [
            seg.segment(w.slice(tokens), WindowInfo(w.start, w.adopt_start - w.start, w.end - w.adopt_end))
            for w in wins
        ]
        assert stitch(wins, per) == single


class TestReplay:
    def test_window_slices(self):
        doc = SegmentationLabels((SPLIT, CONTINUE, SPLIT, CONTINUE, CONTINUE))
        seg = ReplaySegmenter(doc)
        got = seg.segment(["a", "b"], WindowInfo(global_start=2))
        assert got == SegmentationLabels((SPLIT, CONTINUE))

    def test_out_of_range(self):
        seg = ReplaySegmenter(SegmentationLabels((SPLIT,)))
        with pytest.raises(ValueError):
            seg.segment(["a", "b"], WindowInfo(global_start=0))

    @given(st.integers(1, 120), st.data())
    def test_stitched_replay_is_identity(self, n, data):
        bits = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
        doc = SegmentationLabels(
            tuple(SPLIT if (i == 0 or b) else CONTINUE for i, b in enumerate(bits))
        )
        seg = ReplaySegmenter(doc)
        cfg = WindowConfig(10, 2, 2)
        wins = plan_windows(n, cfg)
        tokens = ["x"] * n
        per = [seg.segment(w.slice(tokens), WindowInfo(w.start)) for w in wins]
        assert stitch(wins, per) == doc


class TestNBestList:
    def test_scores_must_be_sorted(self):
        a = SegmentationLabels((SPLIT,))
        b = SegmentationLabels((CONTINUE,))
        with pytest.raises(ValueError):
            NBestList(((a, -2.0), (b, -1.0)))

    def test_labelings_must_be_distinct(self):
        a = SegmentationLabels((SPLIT,))
        with pytest.raises(ValueError):
            NBestList(((a, -1.0), (a, -1.0)))

    def test_best_and_prefix(self):
        a = SegmentationLabels((SPLIT,))
        b = SegmentationLabels((CONTINUE,))
        lst = NBestList(((a, -1.0), (b, -2.0)))
        assert lst.best() == a
        assert lst.prefix(1).entries == ((a, -1.0),)
        assert lst.prefix(5).entries == lst.entries
        with pytest.raises(ValueError):
            lst.prefix(0)

    def test_empty_best_raises(self):
        with pytest.raises(ValueError):
            NBestList(()).best()


class TestAutoregressive:
    def test_greedy_segment_shapes(self, model):
        seg = AutoregressiveSegmenter(model)
        rng = random.Random(1)
        doc, _ = make_document(rng, "x", n_sentences=(2, 3))
        labels = seg.segment(doc.tokens)
        assert len(labels) == len(doc)
        assert labels[0] is SPLIT

    def test_empty_window(self, model):
        seg = AutoregressiveSegmenter(model)
        assert seg.segment([]) == SegmentationLabels(())

    def test_path_score_equals_sequence_logprob(self, model):
        # The arc mapping makes every search path score the exact
        # log-likelihood of its decoded labeling.
        rng = random.Random(2)
        doc, _ = make_document(rng, "x", n_sentences=(2, 3))
        tokens = doc.tokens
        a = build_automaton(tokens)
        scorer = CachedConditionals(model, tokens)
        for strat in (GREEDY, EXACT, beam(5)):
            for decisions, score in ranked(constrained_search(a, scorer, strat)):
                want = scorer.sequence_logprob(decisions)
                assert score == want  # bit-exact: same cached conditionals

    def test_one_conditional_lookup_per_hypothesis(self, model, monkeypatch):
        # Greedy expands one hypothesis per state; its token and delimiter
        # arcs share one lookup, and structural arcs need none.
        calls = []
        original = CachedConditionals.logprobs

        def counting(self, t, prefix):
            calls.append(t)
            return original(self, t, prefix)

        monkeypatch.setattr(CachedConditionals, "logprobs", counting)
        tokens = tuple(f"w{i % 7}" for i in range(30))
        constrained_search(build_automaton(tokens), CachedConditionals(model, tokens), GREEDY)
        assert calls == list(range(1, 30))

    @staticmethod
    def count_conditionals(model, monkeypatch):
        """Record each ``logprobs`` key, and each hypothesis scored on a delimiter arc.

        Every such hypothesis needs one conditional, so without a memo
        there would be one ``logprobs`` call per hypothesis recorded.
        """
        h = model.config.history
        calls, asked = [], []
        logprobs, score_symbol = CachedConditionals.logprobs, CachedConditionals.score_symbol

        def counting(self, t, prefix):
            calls.append((t, tuple(prefix[max(0, t - h):t])))
            return logprobs(self, t, prefix)

        def asking(self, hypothesis, symbol):
            if symbol == DEFAULT_DELIMITER:
                asked.append(hypothesis)
            return score_symbol(self, hypothesis, symbol)

        monkeypatch.setattr(CachedConditionals, "logprobs", counting)
        monkeypatch.setattr(CachedConditionals, "score_symbol", asking)
        return calls, asked

    @pytest.mark.parametrize("strategy", [beam(16), EXACT], ids=["beam16", "exact"])
    def test_search_computes_each_conditional_once(self, model, monkeypatch, strategy):
        calls, _ = self.count_conditionals(model, monkeypatch)
        tokens = make_document(random.Random(4), "x", n_sentences=(3, 4))[0].tokens
        constrained_search(build_automaton(tokens), CachedConditionals(model, tokens), strategy)
        assert calls
        assert len(calls) == len(set(calls))

    def test_beam_shares_conditionals_and_keeps_its_nbest_list(self, model, monkeypatch):
        # Beam hypotheses at one position often share their last
        # ``history`` decisions, and with them one conditional, computed
        # once.  The n-best list is the one ranking every candidate gives.
        calls, asked = self.count_conditionals(model, monkeypatch)
        tokens = make_document(random.Random(4), "x", n_sentences=(3, 4))[0].tokens
        a = build_automaton(tokens)
        got = ranked(constrained_search(a, CachedConditionals(model, tokens), beam(16)))
        assert len(asked) > 2 * len(calls)
        assert got == ranked(reference_beam(a, CachedConditionals(model, tokens), 16))

    def test_exact_beats_greedy(self, model):
        rng = random.Random(3)
        doc, _ = make_document(rng, "x", n_sentences=(3, 4))
        tokens = doc.tokens
        a = build_automaton(tokens)
        scorer = CachedConditionals(model, tokens)
        g = constrained_search(a, scorer, GREEDY)[0].score
        e = constrained_search(a, scorer, EXACT)[0].score
        assert e >= g

    @pytest.mark.parametrize("w", [40, 200])
    def test_exact_is_polynomial_on_an_uncertain_model(self, w):
        # Every path of the zero model ties, which branch and bound cannot
        # prune; the lattice pass keeps 2^history hypotheses per position.
        zeros = FeatureModel.zeros(FeatureConfig(hash_dims=64))
        tokens = [f"t{i}" for i in range(w)]
        t0 = time.perf_counter()
        (labels, score), = ranked(constrained_search(
            build_automaton(tokens), CachedConditionals(zeros, tokens), EXACT
        ))
        assert time.perf_counter() - t0 < 1.0
        assert labels == (SPLIT,) + (CONTINUE,) * (w - 1)
        assert score == pytest.approx((w - 1) * math.log(0.5))

    def test_nbest_contract(self, model):
        seg = AutoregressiveSegmenter(model)
        rng = random.Random(4)
        doc, _ = make_document(rng, "x", n_sentences=(2, 3))
        lst = seg.nbest(doc.tokens, 10)
        assert 1 <= len(lst) <= 10
        scores = [s for _, s in lst]
        assert scores == sorted(scores, reverse=True)
        assert lst.prefix(3).entries == lst.entries[:3]
        with pytest.raises(ValueError):
            seg.nbest(doc.tokens, 0)

    def test_strategy_respected(self, model):
        rng = random.Random(5)
        doc, _ = make_document(rng, "x", n_sentences=(2, 3))
        exact_seg = AutoregressiveSegmenter(model, strategy=EXACT)
        tokens = doc.tokens
        scorer = CachedConditionals(model, tokens)
        want = constrained_search(build_automaton(tokens), scorer, EXACT)[0].decisions
        assert exact_seg.segment(tokens).decisions == want


class TestReranker:
    def test_empty_list_raises(self, model):
        with pytest.raises(ValueError, match="empty n-best list"):
            rerank(("a",), NBestList(()), AutoregressiveSegmenter(model))

    def test_reproduces_generator_ranking(self, model):
        # Reranking a generator's own n-best with the generator's model
        # must return the rank-1 entry with the identical score.
        seg = AutoregressiveSegmenter(model)
        reranker = AutoregressiveSegmenter(model)
        rng = random.Random(6)
        for i in range(5):
            doc, _ = make_document(rng, f"x{i}", n_sentences=(2, 3))
            lst = seg.nbest(doc.tokens, 8)
            labels, score = rerank(doc.tokens, lst, reranker)
            assert labels == lst.best()
            assert math.isclose(score, lst.entries[0][1], rel_tol=0, abs_tol=1e-9)

    def test_prefers_higher_likelihood_entry(self, model):
        tokens = ("aa", "bb", "cc", "dd")
        good = SegmentationLabels((SPLIT, CONTINUE, SPLIT, CONTINUE))
        bad = SegmentationLabels((SPLIT, SPLIT, SPLIT, SPLIT))
        cc = CachedConditionals(model, tokens)
        s_good, s_bad = cc.sequence_logprob(good.decisions), cc.sequence_logprob(bad.decisions)
        lo, hi = sorted([(s_good, good), (s_bad, bad)], key=lambda p: p[0])
        lst = NBestList(((lo[1], -0.1), (hi[1], -0.2)))  # generator got it backwards
        labels, score = rerank(tokens, lst, AutoregressiveSegmenter(model))
        assert labels == hi[1]
        assert math.isclose(score, hi[0])

    def test_nested_prefix_scores_monotone(self, model):
        seg = AutoregressiveSegmenter(model)
        reranker = AutoregressiveSegmenter(model)
        rng = random.Random(7)
        doc, _ = make_document(rng, "x", n_sentences=(3, 5))
        lst = seg.nbest(doc.tokens, 16)
        prev = float("-inf")
        for k in (1, 2, 4, 8, 16):
            _, score = rerank(doc.tokens, lst.prefix(k), reranker)
            assert score >= prev
            prev = score

    @pytest.mark.parametrize("bad", [float("-inf"), float("nan")])
    def test_every_entry_scored_minus_inf_or_nan(self, bad):
        # A model whose finite weights sum to +inf scores log p(CONTINUE) -inf.
        class Constant:
            def score_sequence(self, window, labels):
                return bad

        a = SegmentationLabels((SPLIT, CONTINUE))
        b = SegmentationLabels((SPLIT, SPLIT))
        lst = NBestList(((a, -1.0), (b, -2.0)))
        if math.isnan(bad):
            with pytest.raises(ValueError, match="NaN"):
                rerank(("x", "y"), lst, Constant())
        else:
            assert rerank(("x", "y"), lst, Constant()) == (a, bad)

    def test_segmenter_rescores_its_own_nbest_exactly(self):
        # One object decodes and rescores: a labeling's rescored value is
        # bit for bit the score its search path got.
        cfg = FeatureConfig(hash_dims=2 ** 12, ngram_orders=(2, 3), context_radius=2, history=2)
        rng = random.Random(12)
        for seed in range(3):
            seg = AutoregressiveSegmenter(
                FeatureModel(cfg, np.random.default_rng(seed).normal(0.0, 0.5, cfg.hash_dims))
            )
            for i in range(4):
                doc, _ = make_document(rng, f"x{i}", n_sentences=(2, 4))
                lst = seg.nbest(doc.tokens, 16)
                assert len(lst) == 16
                for labels, score in lst:
                    assert seg.score_sequence(doc.tokens, labels) == score

    def test_cache_eviction_keeps_results_correct(self, model):
        reranker = AutoregressiveSegmenter(model)
        rng = random.Random(8)
        windows = [make_document(rng, f"w{i}", n_sentences=(1, 2))[0].tokens for i in range(12)]
        labels = [SegmentationLabels.from_split_positions(len(w), []) for w in windows]
        first = [reranker.score_sequence(w, l) for w, l in zip(windows, labels)]
        again = [reranker.score_sequence(w, l) for w, l in zip(windows, labels)]
        assert first == again


class TestCachedConditionals:
    def test_matches_model_steps(self, model):
        rng = random.Random(9)
        doc, labels = make_document(rng, "x", n_sentences=(2, 3))
        cc = CachedConditionals(model, doc.tokens)
        for t in range(1, len(doc)):
            lc, ls = cc.logprobs(t, labels.decisions[:t])
            want = score_step(model, doc.tokens, t, labels.decisions[:t])
            assert math.isclose(ls, want[SPLIT], rel_tol=0, abs_tol=1e-9)
            assert math.isclose(lc, want[CONTINUE], rel_tol=0, abs_tol=1e-9)

    def test_sequence_matches_model(self, model):
        rng = random.Random(10)
        doc, labels = make_document(rng, "x", n_sentences=(2, 3))
        cc = CachedConditionals(model, doc.tokens)
        assert math.isclose(
            cc.sequence_logprob(labels.decisions),
            sequence_logprob(model, doc.tokens, labels),
            rel_tol=0,
            abs_tol=1e-9,
        )

    def test_length_checked(self, model):
        cc = CachedConditionals(model, ("aa", "bb"))
        with pytest.raises(ValueError):
            cc.sequence_logprob((SPLIT,))

    def test_cache_reads_only_recent_history(self, model):
        tokens = tuple(f"w{i % 5}" for i in range(12))
        h = model.config.history
        rng = random.Random(4)
        cc = CachedConditionals(model, tokens)
        for t in range(12):
            prefixes = [tuple(rng.randint(0, 1) for _ in range(t)) for _ in range(6)]
            for prefix in prefixes:
                fresh = CachedConditionals(model, tokens).logprobs(t, prefix)
                as_labels = tuple(SPLIT if d else CONTINUE for d in prefix)
                assert cc.logprobs(t, prefix) == fresh
                assert cc.logprobs(t, as_labels) == fresh
                assert cc.logprobs(t, prefix + (1, 0, 1)) == fresh
                # Flipping decisions older than the history changes nothing.
                old = max(t - h, 0)
                flipped = tuple(1 - d for d in prefix[:old]) + prefix[old:]
                assert cc.logprobs(t, flipped) == cc.logprobs(t, prefix)

    @pytest.mark.parametrize("z", [0.0, -0.0, 1e-300, -1e-300, 0.7, -0.7, 40.0, -40.0, 800.0,
                                   -800.0, math.inf, -math.inf])
    def test_one_exp_matches_two_softplus_calls(self, model, z):
        table = TokenTable(model)
        cc = CachedConditionals(model, ("aa", "bb"), table)
        # A static logit of -0.0 plus a history weight of z is z exactly,
        # signed zeros included.
        cc._static = [0.0, -0.0]
        table.history_weights[0b11] = z  # the sentinel, then SPLIT
        got = cc.logprobs(1, (SPLIT,))
        want = (-_softplus(z), -_softplus(-z))
        assert np.array(got).tobytes() == np.array(want).tobytes()

    def test_history_weights_shared_across_windows(self, model):
        table = TokenTable(model)
        a = CachedConditionals(model, ("aa", "bb", "cc"), table)
        b = CachedConditionals(model, ("dd", "ee"), table)
        a.logprobs(2, (SPLIT, CONTINUE))
        b.logprobs(1, (SPLIT,))
        # Packed under a sentinel bit, the last decision lowest.
        assert set(table.history_weights) == {0b110, 0b11}

    def test_decode_then_score_keeps_one_key_per_history_pattern(self):
        # Search and sequence scoring read the same history weights, so a
        # window decoded and then scored from its labels adds no key twice.
        cfg = FeatureConfig(hash_dims=2 ** 12, ngram_orders=(2, 3), context_radius=2, history=2)
        seg = AutoregressiveSegmenter(random_model(1, cfg))
        window = list("abcdefghijkl")
        labels = seg.segment(window)
        score = seg.scorer(window).sequence_logprob(labels)
        patterns = {history_bits(labels.decisions, t, 2) for t in range(1, len(window))}
        assert len(patterns) == 5
        assert len(seg._table.history_weights) == len(patterns)
        as_ints = [1 if d is SPLIT else 0 for d in labels]
        assert seg.scorer(window).sequence_logprob(as_ints) == score
        assert len(seg._table.history_weights) == len(patterns)


# Weights whose sums reach +-inf (1e308 twice overflows) and NaN (inf - inf),
# and positive ones whose sums fall in or next to (0, 2**-52), where
# log p(SPLIT) and log p(CONTINUE) may round to a tie.
EXTREME_WEIGHTS = st.sampled_from(
    [0.0, -0.0, 0.3, -0.3, 2.0, -2.0, 1e308, -1e308, math.inf, -math.inf, math.nan,
     5e-324, 1e-17, 2.0 ** -53, 2.0 ** -52]
)
# Weights that keep every logit near or in (0, 2**-52), where a weight
# drawn now and then from EXTREME_WEIGHTS seldom leaves a sum.
BAND_WEIGHTS = st.sampled_from([0.0, -0.0, 5e-324, 1e-17, 2.0 ** -53, 2.0 ** -52, -5e-324])


@st.composite
def small_models(draw, weight=EXTREME_WEIGHTS):
    cfg = FeatureConfig(
        hash_dims=draw(st.integers(1, 12)),
        ngram_orders=draw(st.lists(st.integers(1, 3), min_size=1, max_size=2, unique=True)),
        context_radius=draw(st.integers(0, 2)),
        history=draw(st.integers(0, 3)),
        salt=draw(st.integers(0, 2 ** 32 - 1)),
    )
    weights = draw(st.lists(weight, min_size=cfg.hash_dims, max_size=cfg.hash_dims))
    return FeatureModel(cfg, weights)


def outcome(decode):
    """What ``decode()`` returns, or the message of the ValueError it raises."""
    try:
        return decode()
    except ValueError as exc:
        return ("ValueError", str(exc))


TINY = FeatureConfig(hash_dims=4, ngram_orders=(1,), context_radius=1, history=1)


class TestGreedyLabels:
    # Most drawn windows are short; more examples reach mixed labelings.
    @settings(max_examples=200)
    @given(
        st.one_of(small_models(), small_models(BAND_WEIGHTS)),
        st.lists(st.sampled_from(("a", "bb", "", "<s>", "</s>", "x<s>")), max_size=12),
    )
    @example(FeatureModel(TINY, [math.nan] * 4), ["a", "bb", "a"])
    @example(FeatureModel(TINY, [math.inf] * 4), ["a", "bb", "a"])
    @example(FeatureModel(TINY, [-math.inf] * 4), ["a", "bb", "a"])
    @example(FeatureModel(TINY, [1e308, -1e308, 1e308, -1e308]), ["<s>", "a", "</s>", "bb"])
    @example(FeatureModel.zeros(TINY), ["a", "bb", "a"])
    @example(FeatureModel.zeros(TINY), [])
    # Positive logits that tie (about 7e-323) and that do not (about 1.3e-16).
    @example(FeatureModel(TINY, [5e-324] * 4), ["a", "bb", "a"])
    @example(FeatureModel(TINY, [1e-17] * 4), ["a", "bb", "a"])
    def test_segment_matches_greedy_search_through_the_acceptor(self, model, window):
        seg = AutoregressiveSegmenter(model)

        def searched():
            best = constrained_search(build_automaton(window), seg.scorer(window), GREEDY)[0]
            return SegmentationLabels(best.decisions)

        assert outcome(lambda: seg.segment(window)) == outcome(searched)

    @pytest.mark.parametrize(
        "z",
        [5e-324, 1e-17, 2.0 ** -54, math.nextafter(2.0 ** -54, 1.0), 2.0 ** -53,
         math.nextafter(2.0 ** -52, 0.0), 2.0 ** -52, 0.7, math.inf,
         0.0, -0.0, -5e-324, -0.7, -math.inf],
    )
    def test_logit_decides_as_the_conditionals(self, model, z):
        table = TokenTable(model)
        cc = CachedConditionals(model, ("aa", "bb"), table)
        cc._static = [0.0, -0.0]
        table.history_weights[0b11] = z  # the sentinel, then SPLIT
        cont, split = cc.logprobs(1, (SPLIT,))
        assert cc.greedy_labels() == [SPLIT, SPLIT if split > cont else CONTINUE]

    def test_delimiter_token_raises_as_under_beam(self):
        model = random_model(5)
        window = ["x", "a■b", "y"]
        errors = {outcome(lambda: AutoregressiveSegmenter(model, s).segment(window))
                  for s in (GREEDY, beam(2))}
        assert errors == {("ValueError", "token collides with the delimiter: 'a■b'")}


# Tokens that exercise the pads' spelling, non-ASCII text, the empty
# token and repeated n-grams.
TABLE_VOCAB = ("aa", "b", "", "<s>", "</s>", "é", "naïve", "日本語", "aaaa", "x<s>", "the")


def canonical_static_logit(model, tokens, t):
    return logit(model, static_features(model.config, tokens, t))


class TestTokenTable:
    @pytest.mark.parametrize(
        "cfg",
        [
            CFG,
            FeatureConfig(hash_dims=2 ** 10, ngram_orders=(1, 4), context_radius=2, history=1,
                          salt=0xDEADBEEF),
            FeatureConfig(hash_dims=97, ngram_orders=(2,), context_radius=0, history=0, salt=3),
        ],
    )
    def test_static_logits_match_static_features(self, cfg):
        model = random_model(30, cfg)
        table = TokenTable(model)
        rng = random.Random(31)
        r = cfg.context_radius
        lengths = [0, 1, 2 * r, 2 * r + 1] + [rng.randint(2, 30) for _ in range(20)]
        for n in lengths:
            window = tuple(rng.choice(TABLE_VOCAB) for _ in range(n))
            got = table.static_logits(window)
            assert len(got) == n
            for t, value in enumerate(got):
                want = canonical_static_logit(model, window, t)
                assert abs(value - want) <= 1e-9, (window, t)

    @pytest.mark.parametrize(
        "cfg",
        [
            CFG,
            FeatureConfig(salt=0xDEADBEEF),
            FeatureConfig(hash_dims=1_000_003, ngram_orders=(1, 5), context_radius=4, salt=17),
            FeatureConfig(hash_dims=2 ** 32 - 1, ngram_orders=(2, 3), context_radius=0,
                          salt=0xFFFFFFFF),
        ],
    )
    def test_id_matrix_rows_are_the_offset_ids(self, cfg):
        r = cfg.context_radius
        for token in TABLE_VOCAB + ("a\x03b", "x" * 40, "ß∂" * 5):
            ids = offset_ngram_id_matrix(cfg, token)
            assert ids.shape[0] == 2 * r + 1
            for j, row in enumerate(ids.tolist()):
                assert row == offset_ngram_ids(cfg, token, j - r), (token, j)

    def test_rows_are_the_per_offset_sums_bit_for_bit(self, model):
        table = TokenTable(model)
        table.static_logits(TABLE_VOCAB)
        r = model.config.context_radius
        for token, i in table._index.items():
            want = [model.weights[offset_ngram_ids(model.config, token, d)].sum()
                    for d in range(-r, r + 1)]
            assert table._matrix[i].tobytes() == np.array(want).tobytes(), token

    def test_threaded_fill_matches_serial_fill(self, model):
        # Four times the first capacity, so the matrix grows while the
        # threads fill it; several rounds, as a race shows only sometimes.
        words = [f"{c}{i}" for i in range(autoregressive._FIRST_ROWS) for c in "abcd"]
        windows = [words[i::7] for i in range(7)]
        serial = TokenTable(model)
        for window in windows:
            serial.static_logits(window)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(8):
                shared = TokenTable(model)
                barrier = threading.Barrier(4)
                errors = []

                def fill(k):
                    try:
                        barrier.wait(timeout=30)
                        for window in windows[k:] + windows[:k]:
                            shared.static_logits(window)
                    except Exception as exc:  # a thread's failure fails the test
                        errors.append(exc)

                threads = [threading.Thread(target=fill, args=(k,)) for k in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                assert not any(thread.is_alive() for thread in threads)
                assert errors == []
                assert len(shared._index) == len(serial._index) == len(words) + 2
                assert len(shared._matrix) > autoregressive._FIRST_ROWS
                for token, i in serial._index.items():
                    got = shared._matrix[shared._index[token]]
                    assert got.tobytes() == serial._matrix[i].tobytes(), token
        finally:
            sys.setswitchinterval(interval)
        for window in windows:
            assert shared.static_logits(window) == serial.static_logits(window)

    def test_real_pad_tokens_share_pad_rows(self, model):
        table = TokenTable(model)
        alone = table.static_logits(("aa",))[0]
        assert table.static_logits(("<s>", "aa"))[1] == alone
        assert table.static_logits(("aa", "</s>"))[0] == alone

    def test_value_depends_only_on_context(self, model):
        # A warm table, filled by other documents first, gives the same
        # bits as a cold one.
        rng = random.Random(32)
        doc_a = make_document(rng, "a", n_sentences=(3, 4))[0].tokens
        doc_b = make_document(rng, "b", n_sentences=(3, 4))[0].tokens
        warm = TokenTable(model)
        warm.static_logits(doc_b[::-1])
        assert warm.static_logits(doc_a) == TokenTable(model).static_logits(doc_a)

    def test_table_state_does_not_change_output(self, model):
        rng = random.Random(33)
        doc_a = make_document(rng, "a", n_sentences=(6, 8))[0].tokens
        doc_b = make_document(rng, "b", n_sentences=(6, 8))[0].tokens
        cfg = WindowConfig(size=12, left=3, right=3)
        seg = AutoregressiveSegmenter(model, strategy=beam(4))
        first = segment_tokens(doc_a, seg, cfg, workers=1)
        segment_tokens(doc_b, seg, cfg, workers=1)
        again = segment_tokens(doc_a, seg, cfg, workers=1)
        fresh = segment_tokens(doc_a, AutoregressiveSegmenter(model, strategy=beam(4)), cfg,
                               workers=1)
        assert first == again == fresh

    def test_cold_table_worker_count_invariant(self, model):
        rng = random.Random(34)
        doc = make_document(rng, "a", n_sentences=(10, 12))[0].tokens
        cfg = WindowConfig(size=10, left=2, right=2)
        serial = segment_tokens(doc, AutoregressiveSegmenter(model), cfg, workers=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = segment_tokens(doc, AutoregressiveSegmenter(model), cfg, workers=4)
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial

