"""Levenshtein alignment and boundary projection."""

import hashlib
import random
import time
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synth import corrupt_tokens, make_document, make_sentence
from windowseg import align
from windowseg.align import Alignment, levenshtein_align, project_boundaries, project_oracle
from windowseg.core import (
    CONTINUE,
    DEFAULT_DELIMITER,
    SPLIT,
    SegmentationLabels,
    Transcript,
    encode_delimited,
    normalize_text,
)

D = DEFAULT_DELIMITER

tokens_st = st.lists(st.sampled_from("abcde"), max_size=30)


def dp_distance(a, b):
    """Textbook rolling-row edit distance, kept independent on purpose."""
    prev = list(range(len(b) + 1))
    for i in range(1, len(a) + 1):
        cur = [i] + [0] * len(b)
        for j in range(1, len(b) + 1):
            cur[j] = min(
                prev[j - 1] + (a[i - 1] != b[j - 1]),
                prev[j] + 1,
                cur[j - 1] + 1,
            )
        prev = cur
    return prev[len(b)]


def full_matrix_alignment(a, b):
    """Plain-Python O(mn) alignment with the library's traceback rule.

    Fills the whole matrix, so it shares nothing with the banded DP but
    the tie-break: the diagonal step (match or substitution), then a
    deletion, then an insertion.
    """
    m, n = len(a), len(b)
    dist = [[0] * (n + 1) for _ in range(m + 1)]
    for j in range(n + 1):
        dist[0][j] = j
    for i in range(1, m + 1):
        dist[i][0] = i
        for j in range(1, n + 1):
            dist[i][j] = min(
                dist[i - 1][j - 1] + (a[i - 1] != b[j - 1]),
                dist[i - 1][j] + 1,
                dist[i][j - 1] + 1,
            )
    ref_of_gen = [None] * n
    i, j = m, n
    while i > 0 or j > 0:
        here = dist[i][j]
        if i > 0 and j > 0 and dist[i - 1][j - 1] + (a[i - 1] != b[j - 1]) == here:
            ref_of_gen[j - 1] = i - 1
            i, j = i - 1, j - 1
        elif i > 0 and dist[i - 1][j] + 1 == here:
            i -= 1
        else:
            j -= 1
    return Alignment(tuple(ref_of_gen), dist[m][n])


@st.composite
def small_alphabet_pairs(draw):
    """Pairs over one to four symbols: many equal-cost paths to break ties on."""
    alphabet = "abcd"[: draw(st.integers(1, 4))]
    side = st.lists(st.sampled_from(alphabet), max_size=40)
    return draw(side), draw(side)


def walk_cost(a, b):
    """The match walk's cost on two token sequences."""
    ids = {}
    return align._walk_cost(
        [ids.setdefault(t, len(ids)) for t in a], [ids.setdefault(t, len(ids)) for t in b]
    )


def synth_pair(seed, sentences, rate):
    rng = random.Random(seed)
    ref, _ = make_document(rng, "pair", n_sentences=(sentences, sentences))
    return ref.tokens, corrupt_tokens(rng, ref.tokens, rate)


def punctuated_document(seed, sentences):
    """Punctuated, cased text on synth sentences, with what the rules read.

    It holds abbreviations (``Mr.``), initials (``J.``), closers after a
    terminal mark (``okay."``), bare punctuation tokens (``—``, a lone
    ``?``), commas and all three terminal marks.
    """
    rng = random.Random(seed)
    words = []
    for _ in range(sentences):
        sentence = make_sentence(rng)
        if rng.random() < 0.2:
            sentence[1:1] = [rng.choice(("Mr.", "Dr.", "etc.")), "Smith"]
        if rng.random() < 0.15:
            sentence[2:2] = [rng.choice("JKM") + ".", "Doe"]
        if rng.random() < 0.2:
            sentence[3:3] = ["—"]
        if rng.random() < 0.3:
            sentence[1] += ","
        sentence[0] = sentence[0].capitalize()
        mark = rng.choice("...?!")
        r = rng.random()
        if r < 0.15:
            sentence[-1] += mark + rng.choice(("\"", ")", "’"))
        elif r < 0.25:
            sentence.append(mark)
        else:
            sentence[-1] += mark
        words.extend(sentence)
    return " ".join(words)


class TestLevenshtein:
    @given(tokens_st, tokens_st)
    def test_cost_matches_independent_dp(self, a, b):
        assert levenshtein_align(a, b).total_cost == dp_distance(a, b)

    @given(tokens_st, tokens_st)
    def test_cost_symmetric(self, a, b):
        assert levenshtein_align(a, b).total_cost == levenshtein_align(b, a).total_cost

    @given(tokens_st)
    def test_identity(self, a):
        assert levenshtein_align(a, a) == Alignment(tuple(range(len(a))), 0)

    def test_empty_sides(self):
        assert levenshtein_align((), ("x", "y")) == Alignment((None, None), 2)
        assert levenshtein_align(("x", "y"), ()) == Alignment((), 2)
        assert levenshtein_align((), ()) == Alignment((), 0)

    @given(tokens_st, tokens_st)
    def test_ref_of_gen_is_monotone_and_prices_the_cost(self, a, b):
        al = levenshtein_align(a, b)
        assert len(al.ref_of_gen) == len(b)
        aligned = [(r, g) for g, r in enumerate(al.ref_of_gen) if r is not None]
        refs = [r for r, _ in aligned]
        assert refs == sorted(set(refs)) and all(0 <= r < len(a) for r in refs)
        # Unaligned tokens on either side are insertions or deletions.
        substitutions = sum(a[r] != b[g] for r, g in aligned)
        assert al.total_cost == substitutions + len(a) + len(b) - 2 * len(aligned)

    def test_classic_example(self):
        assert levenshtein_align("kitten", "sitting").total_cost == 3

    def test_tie_break_prefers_late_match(self):
        # Deleting the first "a" is preferred to deleting the second.
        assert levenshtein_align(("a", "a"), ("a",)).ref_of_gen == (1,)

    def test_tie_break_prefers_deletion_to_insertion(self):
        # At cell (3, 3) the diagonal step is off every optimal path, and
        # deleting the last "a" or inserting the last "b" both stay on one;
        # taking the insertion would give (1, 2, None).
        assert levenshtein_align(("a", "b", "a"), ("b", "a", "b")).ref_of_gen == (None, 0, 1)

    def test_accepts_transcripts(self):
        al = levenshtein_align(Transcript(("a", "b")), Transcript(("a", "c")))
        assert al == Alignment((0, 1), 1)

    def test_ref_of_gen(self):
        al = levenshtein_align(("a", "b", "c"), ("a", "x", "b", "c"))
        assert al.ref_of_gen == (0, None, 1, 2)


class TestBandedLinks:
    """The banded DP returns the full matrix's ``ref_of_gen``, not just its cost."""

    # The band is exact for any bound U >= D.  Patch the walk to return
    # U = D + extra, clipped to max(m, n): 0 is the tightest band, and
    # 64 always clips, so the band is the whole matrix.
    @pytest.mark.parametrize("extra", [0, 1, 2, 8, 64])
    @given(pair=small_alphabet_pairs())
    def test_tie_heavy(self, extra, pair):
        a, b = pair
        bound = min(dp_distance(a, b) + extra, max(len(a), len(b)))
        with mock.patch.object(align, "_walk_cost", lambda ref_ids, gen_ids: bound):
            assert levenshtein_align(a, b) == full_matrix_alignment(a, b)

    @given(pair=small_alphabet_pairs())
    def test_walk_bounds_distance(self, pair):
        a, b = pair
        assert dp_distance(a, b) <= walk_cost(a, b) <= max(len(a), len(b))
        assert levenshtein_align(a, b) == full_matrix_alignment(a, b)

    @given(st.lists(st.sampled_from("ab"), max_size=30))
    def test_empty_sides(self, a):
        for x, y in ((a, ()), ((), a), ((), ())):
            assert levenshtein_align(x, y) == full_matrix_alignment(x, y)

    @settings(max_examples=40)
    @given(st.lists(st.sampled_from("ab"), max_size=160), st.lists(st.sampled_from("xy"), max_size=160))
    def test_disjoint_vocabularies(self, a, b):
        # D = max(m, n): the second band spans the whole matrix.
        al = levenshtein_align(a, b)
        assert al.total_cost == max(len(a), len(b))
        assert al == full_matrix_alignment(a, b)

    @settings(max_examples=40)
    @given(
        st.lists(st.sampled_from("abc"), max_size=12),
        st.lists(st.sampled_from("abc"), min_size=90, max_size=200),
    )
    def test_large_length_difference(self, short, long):
        assert levenshtein_align(short, long) == full_matrix_alignment(short, long)
        assert levenshtein_align(long, short) == full_matrix_alignment(long, short)

    def test_one_band_sized_from_the_walk(self):
        bands, bounds = [], []
        real_band, real_walk = align._band_columns, align._walk_cost

        def band(ref_ids, gen_ids, dlo, dhi):
            bands.append((dlo, dhi))
            return real_band(ref_ids, gen_ids, dlo, dhi)

        def walk(ref_ids, gen_ids):
            bounds.append(real_walk(ref_ids, gen_ids))
            return bounds[-1]

        rng = random.Random(3)
        a = [rng.choice("ab") for _ in range(300)]
        b = [rng.choice("bc") for _ in range(280)]
        with mock.patch.object(align, "_band_columns", band), \
                mock.patch.object(align, "_walk_cost", walk):
            got = levenshtein_align(a, b)
            assert len(bands) == len(bounds) == 1
            # The band holds every diagonal a path of cost <= U can use.
            reach = (bounds[0] - 20) // 2
            assert bands[0] == (max(-300, -20 - reach), min(280, reach))
            bands.clear()
            assert levenshtein_align(a, a).total_cost == 0
            assert bands == [(0, 0)]
        assert got == full_matrix_alignment(a, b)

    def test_golden_long_pair(self):
        # Digest of the ``ref_of_gen`` the full-matrix DP gave for this pair.
        ref, gen = synth_pair(20240, 1550, 0.1)
        al = levenshtein_align(ref, gen)
        assert (len(ref), len(gen), al.total_cost) == (10115, 10065, 991)
        text = "\n".join("-" if r is None else str(r) for r in al.ref_of_gen)
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == "85c95ab437e0c2789b18e5c469f25cd7eecc7d830792e4cdbb281fa7fd55016b"

    def test_memory_follows_distance_not_length(self):
        # A full int32 matrix for this pair would take ~144 MB.
        ref, gen = synth_pair(11, 920, 0.05)
        assert len(ref) > 5900 and len(gen) > 5900
        tracemalloc.start()
        try:
            levenshtein_align(ref, gen)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20, f"peak {peak / 2**20:.1f} MB"

    def test_unrelated_sides_take_two_bits_per_band_cell(self):
        # D = max(m, n), so the band spans 8,001 diagonals and 48M cells:
        # 256 MB as the int32 band was stored, 12 MB at two bits a cell.
        ref = [f"r{k}" for k in range(8000)]
        gen = [f"g{k}" for k in range(8000)]
        tracemalloc.start()
        try:
            cost = levenshtein_align(ref, gen).total_cost
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert cost == 8000
        assert peak < 64 * 2**20, f"peak {peak / 2**20:.1f} MB"

    def test_match_masks_follow_token_spans(self):
        # A mask per distinct token indexed from row 1 would hold about
        # 30,000^2 / 2 bits (56 MB); from each token's first row, one bit.
        rng = random.Random(5)
        ref = [f"w{k}" for k in range(30_000)]
        gen = [f"x{k}" if rng.random() < 0.02 else t for k, t in enumerate(ref)]
        tracemalloc.start()
        try:
            cost = levenshtein_align(ref, gen).total_cost
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert cost == sum(a != b for a, b in zip(ref, gen))
        assert peak < 48 * 2**20, f"peak {peak / 2**20:.1f} MB"

    @pytest.mark.parametrize("side", ["generated", "reference"])
    def test_walk_resyncs_across_an_inserted_block(self, side):
        # 1,500 tokens of another document, inserted mid-way into one side.
        # On this 22-word vocabulary the block holds chance matches of every
        # short run; a walk that resyncs on one drifts off the diagonal and
        # sizes a band of about 2.7 * D.
        ref, gen = synth_pair(11, 920, 0.05)
        block, _ = make_document(random.Random(12), "block", n_sentences=(240, 240))
        if side == "generated":
            gen = gen[: len(gen) // 2] + list(block.tokens[:1500]) + gen[len(gen) // 2 :]
        else:
            ref = ref[: len(ref) // 2] + block.tokens[:1500] + ref[len(ref) // 2 :]
        tracemalloc.start()
        try:
            dist = levenshtein_align(ref, gen).total_cost
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert walk_cost(ref, gen) < 1.05 * dist
        # The band for U = D holds (len(ref) + 1) * (D + 2) int32 cells.
        limit = 1.1 * 4 * (len(ref) + 1) * (dist + 2)
        assert peak < limit, f"peak {peak / 2**20:.1f} MB, limit {limit / 2**20:.1f} MB"

    @pytest.mark.parametrize("order", ["disjoint", "reversed", "swapped"])
    def test_walk_is_fast_without_shared_bigrams(self, order):
        ref = [f"w{k}" for k in range(10_000)]
        if order == "disjoint":
            gen = [f"v{k}" for k in range(10_000)]
        elif order == "reversed":
            gen = ref[::-1]
        else:  # each pair of neighbours swapped
            gen = [ref[k ^ 1] for k in range(10_000)]
        t0 = time.perf_counter()
        cost = walk_cost(ref, gen)
        assert time.perf_counter() - t0 < 1.0
        assert cost <= 10_000

    def test_walk_work_on_a_garbage_tail_is_bounded(self):
        # Reads of the id lists count the walk's work, and the clock counts
        # what reads miss.  A walk that scanned every skip up to a fixed cap
        # of a few hundred, past the window's end, takes about a second.
        class Counted(list):
            reads = 0

            def __getitem__(self, key):
                Counted.reads += 1
                return super().__getitem__(key)

        rng = random.Random(9)
        t0 = time.perf_counter()
        for _ in range(50):
            ref, _ = make_document(rng, "w", n_sentences=(8, 8))
            ref = ref.tokens[:40]
            gen = corrupt_tokens(rng, ref[:20], 0.15) + [f"junk{k}" for k in range(20)]
            ids: dict = {}
            ref_ids = Counted(ids.setdefault(t, len(ids)) for t in ref)
            gen_ids = Counted(ids.setdefault(t, len(ids)) for t in gen)
            Counted.reads = 0
            cost = align._walk_cost(ref_ids, gen_ids)
            assert dp_distance(ref, gen) <= cost <= len(gen)
            assert Counted.reads < 10 * (len(ref) + len(gen))
        assert time.perf_counter() - t0 < 0.5

@st.composite
def labeled_windows(draw):
    tokens = tuple(draw(st.lists(st.sampled_from(["aa", "bb", "cc", "dd"]), min_size=1, max_size=20)))
    bits = draw(st.lists(st.booleans(), min_size=len(tokens), max_size=len(tokens)))
    labels = SegmentationLabels(tuple(SPLIT if b else CONTINUE for b in bits))
    return Transcript(tokens), labels


class TestProjection:
    @given(labeled_windows())
    def test_identity_on_flagged_stream(self, tl):
        t, labels = tl
        flagged = encode_delimited(t, labels)
        assert project_boundaries(t, flagged) == labels

    @given(labeled_windows())
    def test_identity_on_rendered_text(self, tl):
        # Rendering suppresses the position-0 delimiter, so the projected
        # labeling agrees everywhere except that implied position.
        t, labels = tl
        projected = project_boundaries(t, encode_delimited(t, labels).render())
        assert projected.decisions[1:] == labels.decisions[1:]
        assert projected[0] is CONTINUE

    def test_insert_falls_forward(self):
        got = project_boundaries(("a", "b", "c"), f"a {D} x b c")
        assert got == SegmentationLabels((CONTINUE, SPLIT, CONTINUE))

    def test_trailing_boundary_dropped(self):
        got = project_boundaries(("a", "b"), f"a b {D} x")
        assert got == SegmentationLabels((CONTINUE, CONTINUE))

    def test_boundary_survives_deletion(self):
        got = project_boundaries(("a", "b", "c"), f"a {D} c")
        assert got == SegmentationLabels((CONTINUE, CONTINUE, SPLIT))

    def test_boundary_survives_substitution(self):
        got = project_boundaries(("a", "b", "c"), f"a {D} x c")
        assert got == SegmentationLabels((CONTINUE, SPLIT, CONTINUE))

    def test_boundaries_collapse_on_shared_target(self):
        got = project_boundaries(("a", "b"), f"a {D} x {D} y b")
        assert got == SegmentationLabels((CONTINUE, SPLIT))

    @pytest.mark.parametrize(
        "glued", [f"so{D} we went home", f"so {D}we went home", f"so{D}we{D}went home{D}"]
    )
    def test_glued_delimiter_projects_as_spaced(self, glued):
        ref = ("so", "we", "went", "home")
        spaced = glued.replace(D, f" {D} ")
        assert project_boundaries(ref, glued) == project_boundaries(ref, spaced)
        assert project_boundaries(ref, glued).split_positions() != ()

    def test_empty_reference(self):
        assert project_boundaries((), f"x {D} y") == SegmentationLabels(())

    def test_empty_generated(self):
        got = project_boundaries(("a", "b"), "")
        assert got == SegmentationLabels((CONTINUE, CONTINUE))

    def test_garbage_never_raises(self):
        rng = random.Random(5)
        ref = tuple(rng.choice("abc") for _ in range(8))
        for _ in range(200):
            junk = " ".join(
                rng.choice(["a", "b", "c", "zz", D]) for _ in range(rng.randint(0, 14))
            )
            labels = project_boundaries(ref, junk)
            assert len(labels) == len(ref)


class TestOracle:
    def test_identity_asr(self):
        text = "Hello there. What a day! It rained."
        asr = normalize_text(text)
        labels = project_oracle(text, asr)
        assert labels.split_positions() == (0, 2, 5)

    def test_corrupted_asr_keeps_most_boundaries(self):
        text = "The cat sat down. The dog stood up. Birds flew away."
        asr = ["the", "cat", "sad", "down", "the", "dog", "up", "birds", "flew", "away"]
        labels = project_oracle(text, asr)
        assert labels.split_positions() == (0, 4, 7)

    def test_empty_asr(self):
        assert project_oracle("Hi there.", []) == SegmentationLabels(())

    def test_golden_long_document(self):
        # Digest of the split positions from per-token normalization and a
        # traceback that read a cell on every step; it pins normalization,
        # the terminal rules and projection together.
        text = punctuated_document(20241, 750)
        rng = random.Random(20241)
        asr = corrupt_tokens(rng, normalize_text(text), 0.1)
        labels = project_oracle(text, asr)
        positions = labels.split_positions()
        assert (len(text.split()), len(asr), len(positions)) == (5616, 5395, 750)
        digest = hashlib.sha256(",".join(map(str, positions)).encode()).hexdigest()
        assert digest == "0c8a2d911f7a1440999bdfdb389f601e046fa87ec80ed20bf52ca190c8bfb9e1"

    def test_position_zero_forced(self):
        labels = project_oracle("One two. Three.", ["completely", "different", "words"])
        assert labels[0] is SPLIT
