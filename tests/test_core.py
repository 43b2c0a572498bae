"""Transcript types and the delimiter-insertion encoding."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from windowseg.core import (
    CONTINUE,
    DEFAULT_DELIMITER,
    SPLIT,
    DelimitedText,
    Malformed,
    SegmentationLabels,
    Transcript,
    _normalize_tokens,
    decode_delimited,
    encode_delimited,
    normalize_text,
    normalize_token,
    parse_delimited_lenient,
)

tokens_st = st.lists(
    st.text(alphabet="abcdefg", min_size=1, max_size=4), min_size=0, max_size=24
)


def doc_labels(n: int, data) -> SegmentationLabels:
    if n == 0:
        return SegmentationLabels(())
    rest = data.draw(st.lists(st.booleans(), min_size=n - 1, max_size=n - 1))
    return SegmentationLabels((SPLIT,) + tuple(SPLIT if b else CONTINUE for b in rest))


class TestTranscript:
    def test_empty_ok(self):
        assert len(Transcript(())) == 0

    def test_rejects_empty_token(self):
        with pytest.raises(ValueError):
            Transcript(("a", ""))

    def test_rejects_whitespace(self):
        with pytest.raises(ValueError):
            Transcript(("a b",))

    def test_rejects_every_whitespace_character(self):
        spaces = [chr(c) for c in range(0x110000) if chr(c).isspace()]
        assert len(spaces) > 20
        for space in spaces:
            for token in (space, "a" + space, space + "b", "a" + space + "b"):
                with pytest.raises(ValueError, match="whitespace"):
                    Transcript(("ok", token))

    def test_accepts_non_space_separators(self):
        # Not whitespace to str.isspace(): zero-width space, word joiner, BOM.
        assert Transcript(("a\u200bb", "c\u2060d", "\ufeffe")).tokens[0] == "a\u200bb"

    def test_rejects_delimiter_in_token(self):
        with pytest.raises(ValueError):
            Transcript(("a" + DEFAULT_DELIMITER,))

    # Each bad token follows a good one and precedes a second bad token of
    # another kind; the error names the first, word for word.  A second
    # token with whitespace only at its edge keeps the token count of the
    # joined text, so a bulk check that compares counts would pass it.
    @pytest.mark.parametrize(
        "bad, second, message",
        [
            ("", f"b{DEFAULT_DELIMITER}", "tokens must be non-empty"),
            (" a", "b ", "token contains whitespace: ' a'"),
            ("a\x1cb", f"c{DEFAULT_DELIMITER}", "token contains whitespace: 'a\\x1cb'"),
            ("a ", " b", "token contains whitespace: 'a '"),
            (
                f"a{DEFAULT_DELIMITER}b",
                "b c",
                f"token contains the delimiter symbol: 'a{DEFAULT_DELIMITER}b'",
            ),
        ],
    )
    def test_error_names_the_first_bad_token(self, bad, second, message):
        with pytest.raises(ValueError) as err:
            Transcript(("ok", bad, second))
        assert str(err.value) == message
        with pytest.raises(ValueError) as err:
            DelimitedText(((False, "ok"), (True, bad), (True, second)))
        assert str(err.value) == message

    def test_from_text_round_trip(self):
        t = Transcript.from_text("a b c", "x")
        assert t.tokens == ("a", "b", "c")
        assert t.text() == "a b c"
        assert t.source_id == "x"


class TestLabels:
    def test_requires_decisions(self):
        with pytest.raises(TypeError):
            SegmentationLabels((1, 0))

    @pytest.mark.parametrize(
        "decisions, bad",
        [((SPLIT, 1), "1"), ((True,), "True"), ((None,), "None"), ((CONTINUE, SPLIT, 0.0), "0.0")],
    )
    def test_error_names_the_first_non_decision(self, decisions, bad):
        # Equal values are not enough: 1 == SPLIT and True == SPLIT.
        with pytest.raises(TypeError, match=f"^not a Decision: {bad}$"):
            SegmentationLabels(decisions)

    def test_split_positions(self):
        lab = SegmentationLabels((SPLIT, CONTINUE, SPLIT))
        assert lab.split_positions() == (0, 2)

    def test_from_split_positions_implies_zero(self):
        lab = SegmentationLabels.from_split_positions(4, [2])
        assert lab.split_positions() == (0, 2)

    def test_from_split_positions_empty(self):
        assert len(SegmentationLabels.from_split_positions(0, [])) == 0

    def test_from_split_positions_range_checked(self):
        with pytest.raises(ValueError):
            SegmentationLabels.from_split_positions(3, [3])

    @given(st.integers(0, 20), st.data())
    def test_position_round_trip(self, n, data):
        lab = doc_labels(n, data)
        assert SegmentationLabels.from_split_positions(n, lab.split_positions()) == lab


class TestEncodeDecode:
    @given(tokens_st, st.data())
    def test_round_trip(self, tokens, data):
        t = Transcript(tuple(tokens))
        lab = doc_labels(len(tokens), data)
        rendered = encode_delimited(t, lab).render()
        assert decode_delimited(rendered, t) == lab

    @given(tokens_st, st.data())
    def test_round_trip_symbols(self, tokens, data):
        t = Transcript(tuple(tokens))
        lab = doc_labels(len(tokens), data)
        symbols = encode_delimited(t, lab).symbols()
        assert decode_delimited(symbols, t) == lab

    @given(tokens_st, st.data())
    def test_encoding_equals_checked_construction(self, tokens, data):
        t = Transcript(tuple(tokens))
        lab = doc_labels(len(tokens), data)
        flags = tuple(d is SPLIT for d in lab.decisions)
        assert encode_delimited(t, lab) == DelimitedText(tuple(zip(flags, tokens)))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            encode_delimited(Transcript(("a",)), SegmentationLabels(()))

    def test_initial_delimiter_suppressed(self):
        t = Transcript(("a", "b"))
        lab = SegmentationLabels((SPLIT, SPLIT))
        d = encode_delimited(t, lab)
        assert d.render() == f"a {DEFAULT_DELIMITER} b"

    def test_decode_coerces_position_zero(self):
        lab = decode_delimited("a b", ("a", "b"))
        assert lab == SegmentationLabels((SPLIT, CONTINUE))

    def test_decode_initial_delimiter_accepted(self):
        lab = decode_delimited(f"{DEFAULT_DELIMITER} a b", ("a", "b"))
        assert lab == SegmentationLabels((SPLIT, CONTINUE))

    def test_adjacent_delimiters_malformed(self):
        r = decode_delimited(f"a {DEFAULT_DELIMITER} {DEFAULT_DELIMITER} b", ("a", "b"))
        assert isinstance(r, Malformed)
        assert r.reason == "adjacent delimiters"
        assert r.position == 1

    def test_trailing_delimiter_malformed(self):
        r = decode_delimited(f"a b {DEFAULT_DELIMITER}", ("a", "b"))
        assert isinstance(r, Malformed)
        assert r.reason == "trailing delimiter"

    def test_glued_delimiter_malformed(self):
        r = decode_delimited(f"a{DEFAULT_DELIMITER} b", ("a", "b"))
        assert isinstance(r, Malformed)
        assert r.position == 0

    def test_token_mismatch_malformed(self):
        r = decode_delimited("a c", ("a", "b"))
        assert isinstance(r, Malformed)
        assert r.position == 1

    def test_extra_token_malformed(self):
        r = decode_delimited("a b c", ("a", "b"))
        assert isinstance(r, Malformed)

    def test_short_candidate_malformed(self):
        r = decode_delimited("a", ("a", "b"))
        assert isinstance(r, Malformed)

    def test_empty_round_trip(self):
        assert decode_delimited("", ()) == SegmentationLabels(())


class TestLenientParse:
    def test_collapses_adjacent(self):
        d = parse_delimited_lenient(f"a {DEFAULT_DELIMITER} {DEFAULT_DELIMITER} b")
        assert d.items == ((False, "a"), (True, "b"))

    def test_drops_trailing(self):
        d = parse_delimited_lenient(f"a {DEFAULT_DELIMITER}")
        assert d.items == ((False, "a"),)

    @pytest.mark.parametrize(
        "glued, spaced",
        [
            ("so■ we went", "so ■ we went"),
            ("so ■we went", "so ■ we went"),
            ("so■we went", "so ■ we went"),
            ("so■■ we■", "so ■ ■ we ■"),
            ("■so ■", "■ so ■"),
        ],
    )
    def test_splits_glued_delimiters(self, glued, spaced):
        assert parse_delimited_lenient(glued) == parse_delimited_lenient(spaced)
        assert parse_delimited_lenient(glued.split()) == parse_delimited_lenient(spaced)

    def test_glued_delimiter_items(self):
        d = parse_delimited_lenient(f"so{DEFAULT_DELIMITER} we went{DEFAULT_DELIMITER}home")
        assert d.items == ((False, "so"), (True, "we"), (False, "went"), (True, "home"))

    def test_keeps_foreign_tokens(self):
        d = parse_delimited_lenient("x y z")
        assert d.tokens() == ("x", "y", "z")

    @given(tokens_st, st.data())
    def test_lenient_agrees_with_strict_on_wellformed(self, tokens, data):
        t = Transcript(tuple(tokens))
        lab = doc_labels(len(tokens), data)
        rendered = encode_delimited(t, lab).render()
        lenient = parse_delimited_lenient(rendered)
        assert lenient.tokens() == t.tokens
        strict = decode_delimited(rendered, t)
        got = tuple(SPLIT if (f or i == 0) else CONTINUE for i, (f, _) in enumerate(lenient.items))
        assert SegmentationLabels(got) == strict


class TestNormalize:
    def test_token(self):
        assert normalize_token("Don't!") == "dont"
        assert normalize_token("“Quoted”") == "quoted"
        assert normalize_token("...") == ""

    def test_delimiter_stripped(self):
        assert normalize_token(DEFAULT_DELIMITER) == ""

    # Σ at a token's end lowercases to ς, elsewhere to σ; İ lowercases to
    # two characters; ẞ and ß keep their case pair; some tokens hold only
    # punctuation, closers or the delimiter and normalize to nothing.
    @settings(derandomize=True, max_examples=300)
    @given(
        st.lists(
            st.text(alphabet="aZΣσςİıßẞ\u0301\u0307\"')]’”».,?!…■", min_size=1, max_size=5),
            max_size=12,
        )
    )
    @example(["aΣ", "Σ", "ΣΣ", "Σa", "aΣ."])
    @example(["İ", "ẞ", "...", DEFAULT_DELIMITER, "a\u0301Σ", "Σ\u0301", "’”"])
    def test_one_pass_equals_per_token(self, raws):
        assert _normalize_tokens(raws) == [normalize_token(r) for r in raws]

    def test_text_drops_empty(self):
        assert normalize_text("Hello, world! ... OK?") == ["hello", "world", "ok"]

    @given(st.text(max_size=60))
    def test_output_is_valid_tokens(self, text):
        toks = normalize_text(text)
        Transcript(tuple(toks))  # non-empty, no whitespace, no delimiter
        assert all(t == t.lower() for t in toks)
