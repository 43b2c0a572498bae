"""Punctuation-driven boundary derivation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from windowseg.core import CONTINUE, SPLIT, SegmentationLabels, normalize_token
from windowseg.rules import RulePunctuation, load_abbreviations


@pytest.fixture(scope="module")
def rule():
    return RulePunctuation()


class TestTerminal:
    def test_plain_marks(self, rule):
        assert rule.is_terminal("done.")
        assert rule.is_terminal("what?")
        assert rule.is_terminal("wow!")
        assert not rule.is_terminal("plain")
        assert not rule.is_terminal("semi;")

    def test_closers_stripped(self, rule):
        assert rule.is_terminal('done."')
        assert rule.is_terminal("done.)")
        assert rule.is_terminal("done.”")
        assert not rule.is_terminal('"quoted')

    def test_abbreviations_not_terminal(self, rule):
        assert not rule.is_terminal("Mr.")
        assert not rule.is_terminal("dr.")
        assert not rule.is_terminal("e.g.")
        assert not rule.is_terminal("U.S.")

    def test_question_mark_beats_abbreviation(self, rule):
        assert rule.is_terminal("Mr?")

    def test_single_initial_not_terminal(self, rule):
        assert not rule.is_terminal("J.")
        assert rule.is_terminal("Ja.")

    def test_custom_abbreviations(self):
        rule = RulePunctuation(frozenset({"xyz."}))
        assert not rule.is_terminal("xyz.")
        assert rule.is_terminal("mr.")

    def test_empty_token(self, rule):
        assert not rule.is_terminal("")
        assert not rule.is_terminal('"')


class TestDeriveLabels:
    def test_basic(self, rule):
        t, labels = rule.derive_labels("One two. Three four! Five?")
        assert t.tokens == ("one", "two", "three", "four", "five")
        assert labels.split_positions() == (0, 2, 4)

    def test_abbreviation_does_not_split(self, rule):
        t, labels = rule.derive_labels("Mr. Smith left. He waved.")
        assert t.tokens == ("mr", "smith", "left", "he", "waved")
        assert labels.split_positions() == (0, 3)

    def test_bare_punctuation_dropped_but_boundary_kept(self, rule):
        t, labels = rule.derive_labels("wait ... ! next thing")
        assert t.tokens == ("wait", "next", "thing")
        assert labels.split_positions() == (0, 1)

    def test_no_trailing_boundary(self, rule):
        t, labels = rule.derive_labels("The end.")
        assert labels.split_positions() == (0,)

    def test_empty_raises(self, rule):
        with pytest.raises(ValueError):
            rule.derive_labels("... !!")
        with pytest.raises(ValueError):
            rule.derive_labels("")

    def test_position_zero_always_split(self, rule):
        _, labels = rule.derive_labels("lowercase start here.")
        assert labels[0] is SPLIT

    # Per token, as the rules read before the one normalization pass and
    # the early out on tokens that end in neither a mark nor a closer.
    @settings(derandomize=True)
    @given(st.text(alphabet="aJΣİ mr.?!,\"')]”»(“■—", max_size=80))
    def test_equals_per_token_rules(self, rule, text):
        tokens, starts, pending = [], [], True
        for raw in text.split():
            norm = normalize_token(raw)
            if norm:
                if pending:
                    starts.append(len(tokens))
                tokens.append(norm)
                pending = False
            pending = pending or rule.is_terminal(raw)
        if not tokens:
            with pytest.raises(ValueError):
                rule.derive_labels(text)
            return
        t, labels = rule.derive_labels(text)
        assert t.tokens == tuple(tokens)
        assert labels.split_positions() == tuple(starts)

    @given(st.text(alphabet="ab .?!", max_size=80))
    def test_labels_pair_with_transcript(self, text):
        rule = RulePunctuation()
        try:
            t, labels = rule.derive_labels(text)
        except ValueError:
            return
        assert len(t) == len(labels)
        assert labels[0] is SPLIT


class TestAbbreviationData:
    def test_packaged_list_loads(self):
        abbrevs = load_abbreviations()
        assert "mr." in abbrevs
        assert "e.g." in abbrevs
        assert all(a == a.lower() for a in abbrevs)

    def test_load_from_path(self, tmp_path):
        f = tmp_path / "abbrev.txt"
        f.write_text("# comment\nFoo.\n\nbar.\n", encoding="utf-8")
        assert load_abbreviations(f) == frozenset({"foo.", "bar."})
