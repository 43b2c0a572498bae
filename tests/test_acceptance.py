"""Top-level guarantees of the toolkit, one test per guarantee.

Each test prints a single PASS/FAIL summary line (visible through pytest's
captured output via capsys.disabled) and then asserts, so a red run still
shows the per-guarantee verdicts.  Budgeted tests measure wall time and
enforce their limits.
"""

import math
import random
import time
import zlib

import numpy as np
import pytest

from reference import FunctionScorer, ranked, score_step
from synth import MIDDLE, STARTERS, TERMINALS, all_labelings, make_corpus
from windowseg.align import levenshtein_align, project_boundaries, project_oracle
from windowseg.automaton import (
    EXACT,
    GREEDY,
    beam,
    build_automaton,
    constrained_search,
)
from windowseg.core import (
    CONTINUE,
    DEFAULT_DELIMITER,
    SPLIT,
    SegmentationLabels,
    Transcript,
    decode_delimited,
    encode_delimited,
)
from windowseg.eval import boundary_f1, evaluate_corpus
from windowseg.pipeline import segment_tokens
from windowseg.segmenters import (
    AutoregressiveSegmenter,
    CachedConditionals,
    FeatureConfig,
    FeatureModel,
    FixedLengthSegmenter,
    TrainConfig,
    rerank,
    train_feature_model,
)
from windowseg.segmenters.features import evaluate_loss, loss_gradient
from windowseg.windowing import WindowConfig, plan_windows

import fstref

VOCAB = MIDDLE + STARTERS + TERMINALS


@pytest.fixture
def report(capsys):
    def _line(index: int, name: str, ok: bool, details: str) -> None:
        with capsys.disabled():
            print(f"[{index:>2}/10] {name:<42} {'PASS' if ok else 'FAIL'}  {details}")

    return _line


def well_formed(labels: SegmentationLabels, tokens) -> bool:
    """A labeling is valid iff it round-trips through the text encoding."""
    tokens = tuple(tokens)
    if len(labels) != len(tokens):
        return False
    if tokens and labels[0] is not SPLIT:
        return False
    rendered = encode_delimited(Transcript(tokens), labels).render()
    return decode_delimited(rendered, tokens) == labels


def random_tokens(rng: random.Random, n: int) -> list[str]:
    return [rng.choice(VOCAB) for _ in range(n)]


def test_01_search_and_projection_outputs_always_valid(report):
    t0 = time.monotonic()
    rng = random.Random(101)
    total = valid = 0

    for _ in range(3000):
        n = rng.randint(0, 12)
        tokens = random_tokens(rng, n)
        seed = rng.getrandbits(32)

        def fn(emitted, sym, seed=seed):
            h = zlib.crc32(f"{seed}|{len(emitted)}|{sym}".encode("utf-8"))
            return -(h % 1000) / 250.0

        strategy = rng.choice((GREEDY, beam(2), beam(5)))
        results = constrained_search(build_automaton(tokens), FunctionScorer(tokens, fn), strategy)
        for decisions, _ in ranked(results):
            total += 1
            valid += well_formed(SegmentationLabels(decisions), tokens)

    for _ in range(7000):
        n = rng.randint(1, 30)
        ref = random_tokens(rng, n)
        m = rng.randint(0, 40)
        text = ""
        for _ in range(m):
            sym = DEFAULT_DELIMITER if rng.random() < 0.25 else rng.choice(VOCAB)
            # Some delimiters are glued to the symbol before them.
            glued = DEFAULT_DELIMITER in (sym, text[-1:]) and rng.random() < 0.3
            text += sym if glued or not text else " " + sym
        projected = list(project_boundaries(ref, text))
        projected[0] = SPLIT
        labels = SegmentationLabels(tuple(projected))
        total += 1
        valid += well_formed(labels, ref)

    dt = time.monotonic() - t0
    ok = valid == total and total >= 10000 and dt < 60.0
    report(1, "all fuzzed outputs well formed", ok, f"{valid}/{total} valid, {dt:.1f}s (budget 60s)")
    assert valid == total
    assert total >= 10000
    assert dt < 60.0


class _ReplayScorer:
    """Prefers the delimiter exactly where a target labeling splits."""

    def __init__(self, bits):
        self.bits = bits

    def score_symbol(self, hyp, sym):
        t = hyp.position
        if sym == DEFAULT_DELIMITER:
            return 0.0 if self.bits[t] else -40.0
        if hyp.pending or t == 0:
            return 0.0
        return -40.0 if self.bits[t] else 0.0


def test_02_constrained_decoding_agrees_with_projection(report):
    rng = random.Random(202)
    cases = 1000
    agreed = 0
    for _ in range(cases):
        n = rng.randint(1, 40)
        tokens = random_tokens(rng, n)
        bits = [1] + [rng.randint(0, 1) for _ in range(n - 1)]
        target = SegmentationLabels(tuple(SPLIT if b else CONTINUE for b in bits))

        decoded = SegmentationLabels(constrained_search(
            build_automaton(tokens), _ReplayScorer(bits), GREEDY
        )[0].decisions)

        rendered = encode_delimited(Transcript(tuple(tokens)), target).render()
        projected = list(project_boundaries(tokens, rendered))
        projected[0] = SPLIT
        via_alignment = SegmentationLabels(tuple(projected))

        agreed += decoded == via_alignment == target

    ok = agreed == cases
    report(2, "decode and projection give identical labels", ok, f"{agreed}/{cases} exact")
    assert agreed == cases


def _enumeration_argmax(model: FeatureModel, tokens) -> tuple[SegmentationLabels, float]:
    """Argmax over all labelings, scoring with the reference conditionals.

    Conditionals depend on the position and the last ``history`` decisions
    only, so they are cached on that key; ties (measure zero for random
    weights) break like the search: prefer CONTINUE earliest.
    """
    h = model.config.history
    cache: dict = {}

    def cond(t: int, prefix_bits: tuple) -> dict:
        key = (t, prefix_bits[max(0, t - h):])
        if key not in cache:
            cache[key] = score_step(model, tokens, t, prefix_bits)
        return cache[key]

    best_key, best = None, None
    for labels in all_labelings(len(tokens)):
        bits = tuple(1 if d is SPLIT else 0 for d in labels)
        score = 0.0
        for t in range(1, len(bits)):
            lp = cond(t, bits[:t])
            score += lp[SPLIT] if bits[t] else lp[CONTINUE]
        key = (-score, bits)
        if best_key is None or key < best_key:
            best_key, best = key, (labels, score)
    assert best is not None
    return best


def test_03_exact_search_is_optimal_and_beam_nearly_so(report):
    t0 = time.monotonic()
    rng = random.Random(303)
    trials = 500
    exact_hits = 0
    beam_misses = 0
    for trial in range(trials):
        cfg = FeatureConfig(
            hash_dims=512,
            ngram_orders=(2,),
            context_radius=rng.randint(0, 2),
            history=rng.randint(0, 3),
            salt=trial,
        )
        weights = np.random.default_rng(9000 + trial).normal(0.0, 0.7, cfg.hash_dims)
        model = FeatureModel(cfg, weights)
        tokens = random_tokens(rng, rng.randint(1, 12))

        a = build_automaton(tokens)
        scorer = CachedConditionals(model, tokens)
        exact_labels, exact_score = ranked(constrained_search(a, scorer, EXACT))[0]
        brute_labels, brute_score = _enumeration_argmax(model, tokens)

        if exact_labels == brute_labels.decisions and math.isclose(
            exact_score, brute_score, rel_tol=1e-9, abs_tol=1e-9
        ):
            exact_hits += 1

        beam_labels, beam_score = ranked(constrained_search(a, scorer, beam(100)))[0]
        if beam_labels != exact_labels:
            beam_misses += 1
            assert beam_score < exact_score  # a true miss scores lower

    dt = time.monotonic() - t0
    beam_rate = (trials - beam_misses) / trials
    ok = exact_hits == trials and beam_rate >= 0.99 and dt < 120.0
    report(
        3,
        "exact matches enumeration, beam within 1%",
        ok,
        f"exact {exact_hits}/{trials}, beam {trials - beam_misses}/{trials}, {dt:.1f}s (budget 120s)",
    )
    assert exact_hits == trials
    assert beam_rate >= 0.99
    assert dt < 120.0


def test_04_reranked_score_never_drops_as_nbest_deepens(report):
    rng = random.Random(404)
    corpus = make_corpus(rng, 50)
    cfg = FeatureConfig(hash_dims=2 ** 14, ngram_orders=(2, 3), context_radius=2, history=2)
    generator = FeatureModel(cfg, np.random.default_rng(41).normal(0.0, 0.4, cfg.hash_dims))
    rescorer = FeatureModel(cfg, np.random.default_rng(42).normal(0.0, 0.4, cfg.hash_dims))
    seg = AutoregressiveSegmenter(generator)
    reranker = AutoregressiveSegmenter(rescorer)

    windows = 0
    for doc, _ in corpus:
        for win in plan_windows(len(doc), WindowConfig(40, 5, 5)):
            tokens = win.slice(doc.tokens)
            nbest = seg.nbest(tokens, 100)
            assert len(nbest) == 100
            previous = float("-inf")
            for k in (10, 50, 100):
                _, score = rerank(tokens, nbest.prefix(k), reranker)
                assert score >= previous
                previous = score
            windows += 1

    report(4, "rerank score non-decreasing in k=10/50/100", True, f"{windows} windows checked")
    assert windows >= 50


def _punctuate(tokens, labels) -> str:
    """Render a labeled transcript as cased, period-terminated sentences."""
    sentences = []
    for i, tok in enumerate(tokens):
        if labels[i] is SPLIT:
            sentences.append([])
        sentences[-1].append(tok)
    out = []
    for sent in sentences:
        words = list(sent)
        words[0] = words[0].capitalize()
        out.append(" ".join(words) + ".")
    return " ".join(out)


def _corrupt_with_labels(rng, tokens, labels, rate):
    """Word-error corruption that tracks where the true boundaries land.

    A deleted token's boundary falls forward to the next surviving token
    (dropped at the end), matching the projection convention.
    """
    out_tokens: list[str] = []
    out_dec: list = []
    pending = False

    def push(tok, is_split):
        out_tokens.append(tok)
        out_dec.append(SPLIT if is_split else CONTINUE)

    for tok, dec in zip(tokens, labels):
        is_split = dec is SPLIT or pending
        pending = False
        if rng.random() < rate:
            op = rng.choice(("sub", "del", "ins"))
            if op == "del":
                pending = is_split
                continue
            if op == "sub":
                push(rng.choice(MIDDLE), is_split)
            else:
                push(tok, is_split)
                push(rng.choice(MIDDLE), False)
        else:
            push(tok, is_split)
    if out_tokens:
        out_dec[0] = SPLIT
    return out_tokens, SegmentationLabels(tuple(out_dec))


def test_05_oracle_projection_exact_on_clean_asr_robust_on_noisy(report):
    rng = random.Random(505)
    corpus = make_corpus(rng, 14, prefix="ref")

    clean_exact = 0
    noisy_predicted = {}
    noisy_reference = {}
    for doc, labels in corpus:
        reference_text = _punctuate(doc.tokens, labels)
        projected = project_oracle(reference_text, doc.tokens)
        clean_exact += projected == labels

        corrupted, true_labels = _corrupt_with_labels(rng, doc.tokens, labels, 0.10)
        noisy_predicted[doc.source_id] = project_oracle(reference_text, corrupted)
        noisy_reference[doc.source_id] = true_labels

    noisy_f1 = evaluate_corpus(noisy_predicted, noisy_reference).f1
    ok = clean_exact == 14 and noisy_f1 >= 0.9
    report(
        5,
        "oracle labels exact clean, F1>=0.9 at 10% WER",
        ok,
        f"clean {clean_exact}/14 exact, noisy F1 {noisy_f1:.4f}",
    )
    assert clean_exact == 14
    assert noisy_f1 >= 0.9


def test_06_windowed_output_equals_single_pass(report):
    rng = random.Random(606)
    cfg = FeatureConfig(hash_dims=2 ** 16, ngram_orders=(2, 3), context_radius=5, history=0)
    model = FeatureModel(cfg, np.random.default_rng(61).normal(0.0, 0.5, cfg.hash_dims))
    window = WindowConfig(40, 5, 5)

    checked = 0
    for n in (861, 905, 1040, 1107, 1188, 1234):
        tokens = random_tokens(rng, n)
        for seg in (AutoregressiveSegmenter(model), FixedLengthSegmenter(17)):
            windowed = segment_tokens(tokens, seg, window)
            single = seg.segment(tokens)
            assert windowed == single
            checked += 1

    report(6, "windowed equals single pass, 861-1234 tokens", True, f"{checked} runs identical")
    assert checked == 12


def _dp_cost(a, b) -> int:
    prev = list(range(len(b) + 1))
    for i, x in enumerate(a, 1):
        cur = [i]
        for j, y in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (x != y)))
        prev = cur
    return prev[-1]


def test_07_alignment_cost_matches_reference_dp(report):
    rng = random.Random(707)
    pairs = 10000
    agreed = 0
    small = VOCAB[:8]
    for i in range(pairs):
        vocab = small if i % 2 == 0 else VOCAB
        a = [rng.choice(vocab) for _ in range(rng.randint(0, 50))]
        b = [rng.choice(vocab) for _ in range(rng.randint(0, 50))]
        agreed += levenshtein_align(a, b).total_cost == _dp_cost(a, b)

    ok = agreed == pairs
    report(7, "alignment cost equals reference DP", ok, f"{agreed}/{pairs} exact")
    assert agreed == pairs


def test_08_analytic_gradient_matches_central_differences(report):
    rng = random.Random(808)
    eps = 1e-5
    instances = 100
    worst = 0.0
    for trial in range(instances):
        cfg = FeatureConfig(
            hash_dims=256, ngram_orders=(2,), context_radius=1, history=1, salt=trial
        )
        model = FeatureModel(cfg, np.random.default_rng(trial).normal(0.0, 0.5, 256))
        corpus = []
        for d in range(rng.randint(1, 2)):
            n = rng.randint(3, 8)
            tokens = tuple(random_tokens(rng, n))
            bits = [1] + [rng.randint(0, 1) for _ in range(n - 1)]
            labels = SegmentationLabels(tuple(SPLIT if b else CONTINUE for b in bits))
            corpus.append((Transcript(tokens, f"g{d}"), labels))

        _, grad = loss_gradient(model, corpus)
        coords = np.argsort(-np.abs(grad))[:5]
        for c in coords:
            orig = model.weights[c]
            model.weights[c] = orig + eps
            up = evaluate_loss(model, corpus)
            model.weights[c] = orig - eps
            down = evaluate_loss(model, corpus)
            model.weights[c] = orig
            fd = (up - down) / (2 * eps)
            rel = abs(grad[c] - fd) / max(abs(grad[c]), abs(fd), 1e-8)
            worst = max(worst, rel)

    ok = worst < 1e-4
    report(8, "gradient matches finite differences", ok, f"{instances} instances, worst rel err {worst:.2e}")
    assert worst < 1e-4


def test_09_trained_model_recovers_rule_boundaries(report):
    t0 = time.monotonic()
    rng = random.Random(909)
    train_corpus = make_corpus(rng, 60, prefix="train")
    held_out = make_corpus(rng, 20, prefix="heldout")

    cfg = FeatureConfig(hash_dims=2 ** 16, ngram_orders=(2, 3), context_radius=2, history=1)
    result = train_feature_model(
        train_corpus, cfg, TrainConfig(epochs=3, learning_rate=0.1, seed=7)
    )
    seg = AutoregressiveSegmenter(result.model)

    predicted = {doc.source_id: seg.segment(doc.tokens) for doc, _ in held_out}
    reference = {doc.source_id: labels for doc, labels in held_out}
    f1 = evaluate_corpus(predicted, reference).f1
    dt = time.monotonic() - t0

    ok = f1 >= 0.95 and dt < 300.0
    report(9, "trained model F1 >= 0.95 held out", ok, f"F1 {f1:.4f}, {dt:.1f}s (budget 300s)")
    assert f1 >= 0.95
    assert dt < 300.0


def test_10_acceptor_language_size_and_structure(report):
    def toks(w):
        return tuple(f"t{i}" for i in range(w))

    counts_ok = all(
        sum(1 for _ in fstref.enumerate_strings(build_automaton(toks(w)))) == 2 ** (w - 1)
        for w in range(1, 11)
    )

    iso_ok = True
    for w in range(0, 7):
        direct = build_automaton(toks(w))
        composed = fstref.composed_segmentation_fsa(toks(w), DEFAULT_DELIMITER)
        iso_ok = iso_ok and fstref.isomorphic(
            direct.start,
            dict(enumerate(fstref.arcs(direct))),
            frozenset({direct.final}),
            composed.start,
            fstref.deterministic_arcs(composed),
            composed.finals,
        )

    ok = counts_ok and iso_ok
    report(
        10,
        "language 2^(w-1), isomorphic to composed",
        ok,
        "counts w=1..10, isomorphism w=0..6",
    )
    assert counts_ok
    assert iso_ok
