"""Levenshtein alignment and boundary projection."""

import hashlib
import random
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synth import corrupt_tokens, make_document
from windowseg import align
from windowseg.align import (
    DELETE,
    INSERT,
    MATCH,
    SUBST,
    Alignment,
    Link,
    levenshtein_align,
    project_boundaries,
    project_oracle,
)
from windowseg.core import (
    CONTINUE,
    DEFAULT_DELIMITER,
    SPLIT,
    SegmentationLabels,
    Transcript,
    encode_delimited,
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
    the tie-break: MATCH, then SUBST, then DELETE, then INSERT.
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
    links = []
    i, j = m, n
    while i > 0 or j > 0:
        here = dist[i][j]
        if i > 0 and j > 0 and a[i - 1] == b[j - 1] and dist[i - 1][j - 1] == here:
            links.append(Link(MATCH, i - 1, j - 1))
            i, j = i - 1, j - 1
        elif i > 0 and j > 0 and a[i - 1] != b[j - 1] and dist[i - 1][j - 1] + 1 == here:
            links.append(Link(SUBST, i - 1, j - 1))
            i, j = i - 1, j - 1
        elif i > 0 and dist[i - 1][j] + 1 == here:
            links.append(Link(DELETE, i - 1, None))
            i -= 1
        else:
            links.append(Link(INSERT, None, j - 1))
            j -= 1
    return Alignment(tuple(reversed(links)), dist[m][n])


@st.composite
def small_alphabet_pairs(draw):
    """Pairs over one to four symbols: many equal-cost paths to break ties on."""
    alphabet = "abcd"[: draw(st.integers(1, 4))]
    side = st.lists(st.sampled_from(alphabet), max_size=40)
    return draw(side), draw(side)


def synth_pair(seed, sentences, rate):
    rng = random.Random(seed)
    ref, _ = make_document(rng, "pair", n_sentences=(sentences, sentences))
    return ref.tokens, corrupt_tokens(rng, ref.tokens, rate)


class TestLinks:
    def test_insert_shape(self):
        with pytest.raises(ValueError):
            Link(INSERT, 0, 1)
        with pytest.raises(ValueError):
            Link(MATCH, None, 1)
        with pytest.raises(ValueError):
            Link(DELETE, 0, 1)
        with pytest.raises(ValueError):
            Link("swap", 0, 0)

    def test_alignment_coverage_checked(self):
        with pytest.raises(ValueError):
            Alignment((Link(MATCH, 1, 0),), 0)

    def test_alignment_cost_checked(self):
        with pytest.raises(ValueError):
            Alignment((Link(SUBST, 0, 0),), 0)


class TestLevenshtein:
    @given(tokens_st, tokens_st)
    def test_cost_matches_independent_dp(self, a, b):
        assert levenshtein_align(a, b).total_cost == dp_distance(a, b)

    @given(tokens_st, tokens_st)
    def test_cost_symmetric(self, a, b):
        assert levenshtein_align(a, b).total_cost == levenshtein_align(b, a).total_cost

    @given(tokens_st)
    def test_identity(self, a):
        al = levenshtein_align(a, a)
        assert al.total_cost == 0
        assert all(l.op == MATCH for l in al.links)

    def test_empty_sides(self):
        al = levenshtein_align((), ("x", "y"))
        assert al.total_cost == 2
        assert [l.op for l in al.links] == [INSERT, INSERT]
        al = levenshtein_align(("x", "y"), ())
        assert [l.op for l in al.links] == [DELETE, DELETE]
        assert levenshtein_align((), ()).links == ()

    @given(tokens_st, tokens_st)
    def test_links_validate_and_cover(self, a, b):
        al = levenshtein_align(a, b)
        assert al.ref_len == len(a)
        assert al.gen_len == len(b)
        # Alignment.__post_init__ re-validates ordering and cost.
        Alignment(al.links, al.total_cost)

    def test_classic_example(self):
        assert levenshtein_align("kitten", "sitting").total_cost == 3

    def test_tie_break_prefers_late_match(self):
        al = levenshtein_align(("a", "a"), ("a",))
        assert [l.op for l in al.links] == [DELETE, MATCH]

    def test_accepts_transcripts(self):
        al = levenshtein_align(Transcript(("a", "b")), Transcript(("a", "c")))
        assert al.total_cost == 1
        assert [l.op for l in al.links] == [MATCH, SUBST]

    def test_ref_index_of_gen(self):
        al = levenshtein_align(("a", "b", "c"), ("a", "x", "b", "c"))
        assert al.ref_index_of_gen() == [0, None, 1, 2]


class TestBandedLinks:
    """The banded DP returns the full matrix's links, not just its cost."""

    # Slack 0-2 makes the first band fail the exactness test on most
    # pairs, so those cases run the second pass.
    @pytest.mark.parametrize("slack", [0, 1, 2, align._BAND_SLACK])
    @given(pair=small_alphabet_pairs())
    def test_tie_heavy(self, slack, pair):
        a, b = pair
        with mock.patch.object(align, "_BAND_SLACK", slack):
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

    def test_second_pass_runs_when_needed(self):
        calls = []
        real = align._band_distances

        def counting(ref_ids, gen_ids, dlo, dhi):
            calls.append((dlo, dhi))
            return real(ref_ids, gen_ids, dlo, dhi)

        rng = random.Random(3)
        a = [rng.choice("ab") for _ in range(300)]
        b = [rng.choice("bc") for _ in range(280)]
        with mock.patch.object(align, "_band_distances", counting):
            got = levenshtein_align(a, b)
            assert len(calls) == 2
            # The second band holds every diagonal an optimal path can use.
            reach = (got.total_cost - 20) // 2
            assert calls[1] == (max(-300, -20 - reach), min(280, reach))
            calls.clear()
            assert levenshtein_align(a, a).total_cost == 0
            assert len(calls) == 1
        assert got == full_matrix_alignment(a, b)

    def test_golden_long_pair(self):
        # Digest of the links the full-matrix DP gave for this pair.
        ref, gen = synth_pair(20240, 1550, 0.1)
        al = levenshtein_align(ref, gen)
        assert (len(ref), len(gen), al.total_cost) == (10115, 10065, 991)
        text = "\n".join(f"{l.op} {l.ref} {l.gen}" for l in al.links)
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == "425ed8fbe975684f12fc47c594dd95fe13e8c7441734f410e357bbc84fc124e2"

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
        from windowseg.core import normalize_text

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

    def test_position_zero_forced(self):
        labels = project_oracle("One two. Three.", ["completely", "different", "words"])
        assert labels[0] is SPLIT
