"""Core transcript types and the delimiter-insertion encoding.

A transcript is a flat sequence of word tokens.  A segmentation assigns one
of two decisions to every token: SPLIT opens a new segment at that token,
CONTINUE extends the current one.  The generative encoding of a segmentation
is the token stream with one reserved delimiter symbol, ``■``
(``DEFAULT_DELIMITER``), in front of every SPLIT token.  The delimiter in
front of token 0 carries no information (a segment always begins there) and
is suppressed when rendering.

The delimiter is fixed, and every layer (the acceptor, projection, the
segmenters and the mock endpoint) reads it from here.  The token rule is
stated once, in ``_check_token``: a token is non-empty, holds no whitespace
and holds no ``■``.  ``Transcript`` and ``DelimitedText`` enforce it, and
``normalize_text`` strips ``■`` along with punctuation.

All types here are immutable values; the operations are pure functions.
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from enum import IntEnum
from typing import Iterable, Iterator, Sequence, Union

DEFAULT_DELIMITER = "■"  # black square

# Characters removed by the optional normalization pass.
_PUNCT_CHARS = string.punctuation + "“”‘’«»…—–‐¿¡·" + DEFAULT_DELIMITER
_PUNCT_TABLE = str.maketrans("", "", _PUNCT_CHARS)


class Decision(IntEnum):
    """Per-token segmentation decision, held as is by every layer.

    ``CONTINUE < SPLIT``, so search keys rank ties toward fewer and later
    delimiters; the value indexes a ``(log p(CONTINUE), log p(SPLIT))`` pair.
    """

    CONTINUE = 0
    SPLIT = 1


SPLIT = Decision.SPLIT
CONTINUE = Decision.CONTINUE


def _check_token(token: str) -> None:
    if not token:
        raise ValueError("tokens must be non-empty")
    # str.split() splits on exactly the characters str.isspace() accepts.
    if token.split() != [token]:
        raise ValueError(f"token contains whitespace: {token!r}")
    if DEFAULT_DELIMITER in token:
        raise ValueError(f"token contains the delimiter symbol: {token!r}")


def _check_tokens(tokens: Sequence[str]) -> None:
    """``_check_token`` on every token, in one pass when all of them pass.

    Tokens are non-empty and free of whitespace exactly when splitting
    their space-joined text gives them back.  Otherwise the loop names the
    first bad token.
    """
    joined = " ".join(tokens)
    if joined.split() != list(tokens) or DEFAULT_DELIMITER in joined:
        for tok in tokens:
            _check_token(tok)


@dataclass(frozen=True)
class Transcript:
    """An ordered sequence of word tokens with an opaque source identifier."""

    tokens: tuple[str, ...]
    source_id: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "tokens", tuple(self.tokens))
        _check_tokens(self.tokens)

    def __len__(self) -> int:
        return len(self.tokens)

    def __iter__(self) -> Iterator[str]:
        return iter(self.tokens)

    @classmethod
    def from_text(cls, text: str, source_id: str = "") -> "Transcript":
        """Tokenize ``text`` on whitespace."""
        return cls(tuple(text.split()), source_id)

    def text(self) -> str:
        return " ".join(self.tokens)


@dataclass(frozen=True)
class SegmentationLabels:
    """One decision per token of an associated transcript.

    By convention a document-level labeling has SPLIT at position 0 (a
    segment always begins at the first token).  Window-local labelings
    produced mid-pipeline may legitimately carry CONTINUE at their local
    position 0; the convention is enforced where document labelings are
    assembled (stitching, decoding, projection, file loading).
    """

    decisions: tuple[Decision, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "decisions", tuple(self.decisions))
        for d in self.decisions:
            if not isinstance(d, Decision):
                raise TypeError(f"not a Decision: {d!r}")

    def __len__(self) -> int:
        return len(self.decisions)

    def __iter__(self) -> Iterator[Decision]:
        return iter(self.decisions)

    def __getitem__(self, i: int) -> Decision:
        return self.decisions[i]

    def split_positions(self) -> tuple[int, ...]:
        return tuple(i for i, d in enumerate(self.decisions) if d is SPLIT)

    @classmethod
    def from_split_positions(cls, n: int, positions: Iterable[int]) -> "SegmentationLabels":
        """Build a document labeling of length ``n`` with SPLIT at ``positions``.

        Position 0 is implied and always set for non-empty labelings.
        """
        wanted = set(positions)
        for p in wanted:
            if not 0 <= p < n:
                raise ValueError(f"split position {p} out of range for length {n}")
        if n > 0:
            wanted.add(0)
        return cls(tuple(SPLIT if i in wanted else CONTINUE for i in range(n)))


@dataclass(frozen=True)
class DelimitedText:
    """A token stream where each token optionally carries a preceding delimiter."""

    items: tuple[tuple[bool, str], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "items", tuple((bool(d), t) for d, t in self.items))
        _check_tokens([tok for _, tok in self.items])

    def __len__(self) -> int:
        return len(self.items)

    def tokens(self) -> tuple[str, ...]:
        return tuple(tok for _, tok in self.items)

    def render(self) -> str:
        """Render to a whitespace-joined string; the delimiter before the
        first token is suppressed."""
        out: list[str] = []
        for i, (has_delim, tok) in enumerate(self.items):
            if has_delim and i > 0:
                out.append(DEFAULT_DELIMITER)
            out.append(tok)
        return " ".join(out)

    def symbols(self) -> tuple[str, ...]:
        """The rendered token/delimiter sequence as individual symbols."""
        return tuple(self.render().split())


@dataclass(frozen=True)
class Malformed:
    """Decode failure: the candidate does not reproduce the reference tokens.

    ``position`` is the index (in the delimiter-free token stream) of the
    first violation.
    """

    position: int
    reason: str


def encode_delimited(transcript: Transcript, labels: SegmentationLabels) -> DelimitedText:
    """Encode a labeling as the transcript tokens with inserted delimiters."""
    if len(labels) != len(transcript):
        raise ValueError(
            f"labels length {len(labels)} != transcript length {len(transcript)}"
        )
    return DelimitedText(
        tuple(zip([d is SPLIT for d in labels.decisions], transcript.tokens))
    )


def decode_delimited(
    candidate: Union[str, Sequence[str]],
    reference: Union[Transcript, Sequence[str]],
) -> Union[SegmentationLabels, Malformed]:
    """Strictly decode a delimited candidate against the reference tokens.

    The candidate is well-formed iff, after removing delimiters, its token
    sequence equals the reference exactly, no two delimiters are adjacent,
    and no delimiter trails the last token.  Returns the decoded labels
    (position 0 coerced to SPLIT), or ``Malformed`` locating the first
    violation.  A delimiter glued to a token (``a■``) is not split off:
    the symbol does not match the reference token, so the candidate is
    malformed.
    """
    symbols = candidate.split() if isinstance(candidate, str) else list(candidate)
    ref = tuple(reference)
    decisions: list[Decision] = []
    pending = False
    t = 0
    for sym in symbols:
        if sym == DEFAULT_DELIMITER:
            if pending:
                return Malformed(t, "adjacent delimiters")
            pending = True
            continue
        if t >= len(ref):
            return Malformed(t, f"extra token {sym!r} beyond reference")
        if sym != ref[t]:
            return Malformed(t, f"token mismatch: {sym!r} != {ref[t]!r}")
        decisions.append(SPLIT if (pending or t == 0) else CONTINUE)
        pending = False
        t += 1
    if pending:
        return Malformed(t, "trailing delimiter")
    if t != len(ref):
        return Malformed(t, f"candidate ends before reference token {ref[t]!r}")
    return SegmentationLabels(tuple(decisions))


def parse_delimited_lenient(candidate: Union[str, Sequence[str]]) -> DelimitedText:
    """Parse arbitrary generated text into a delimited token stream.

    Never fails: a delimiter glued to a word is split off it (``a■b`` reads
    as ``a ■ b``), runs of adjacent delimiters collapse to one, trailing
    delimiters are dropped, and every other symbol is kept as a token.
    """
    text = candidate if isinstance(candidate, str) else " ".join(candidate)
    symbols = text.replace(DEFAULT_DELIMITER, f" {DEFAULT_DELIMITER} ").split()
    items: list[tuple[bool, str]] = []
    pending = False
    for sym in symbols:
        if sym == DEFAULT_DELIMITER:
            pending = True
            continue
        items.append((pending, sym))
        pending = False
    return DelimitedText(tuple(items))


def normalize_token(token: str) -> str:
    """Lowercase and strip punctuation characters; may return an empty string."""
    return token.lower().translate(_PUNCT_TABLE)


def _normalize_tokens(raws: Sequence[str]) -> list[str]:
    """``[normalize_token(r) for r in raws]`` for whitespace-free tokens, in one pass.

    The tokens are normalized as one newline-joined text.  A newline is
    neither cased nor case-ignorable, so lowercasing a final sigma reads
    the same context in the text as in its token alone.
    """
    if not raws:
        return []
    return "\n".join(raws).lower().translate(_PUNCT_TABLE).split("\n")


def normalize_text(text: str) -> list[str]:
    """Lowercase, strip punctuation, and drop tokens that become empty."""
    return [tok for tok in _normalize_tokens(text.split()) if tok]
