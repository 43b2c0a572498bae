"""Levenshtein alignment and boundary projection.

When a generative segmenter paraphrases instead of copying, its delimiters
no longer decode directly against the source window.  Aligning the
generated tokens to the reference under unit edit costs lets every
delimiter be carried over to the reference position of the token it
precedes, so boundary annotations survive imperfect copies.  The same
projection moves punctuation-derived boundaries from reference transcripts
onto ASR output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .core import (
    CONTINUE,
    DEFAULT_DELIMITER,
    SPLIT,
    Decision,
    DelimitedText,
    SegmentationLabels,
    Transcript,
    parse_delimited_lenient,
)
from .rules import RulePunctuation

MATCH = "match"
SUBST = "subst"
INSERT = "insert"
DELETE = "delete"


@dataclass(frozen=True)
class Link:
    """One edit operation: ``ref`` and/or ``gen`` give the aligned indices.

    MATCH and SUBST carry both indices, DELETE only ``ref`` (a reference
    token with no generated counterpart), INSERT only ``gen``.
    """

    op: str
    ref: Optional[int]
    gen: Optional[int]

    def __post_init__(self) -> None:
        if self.op not in (MATCH, SUBST, INSERT, DELETE):
            raise ValueError(f"unknown op {self.op!r}")
        if (self.ref is None) != (self.op == INSERT):
            raise ValueError(f"{self.op} link must carry ref={'None' if self.op == INSERT else 'an index'}")
        if (self.gen is None) != (self.op == DELETE):
            raise ValueError(f"{self.op} link must carry gen={'None' if self.op == DELETE else 'an index'}")


@dataclass(frozen=True)
class Alignment:
    """A monotone alignment between a reference and a generated sequence."""

    links: tuple[Link, ...]
    total_cost: int

    def __post_init__(self) -> None:
        refs = [l.ref for l in self.links if l.ref is not None]
        gens = [l.gen for l in self.links if l.gen is not None]
        if refs != list(range(len(refs))) or gens != list(range(len(gens))):
            raise ValueError("links must cover each side exactly once, in order")
        if self.total_cost != sum(1 for l in self.links if l.op != MATCH):
            raise ValueError("total_cost must equal the number of non-MATCH links")

    @property
    def ref_len(self) -> int:
        return sum(1 for l in self.links if l.ref is not None)

    @property
    def gen_len(self) -> int:
        return sum(1 for l in self.links if l.gen is not None)

    def ref_index_of_gen(self) -> list[Optional[int]]:
        """For each generated position, the aligned reference index (None for INSERT)."""
        out: list[Optional[int]] = [None] * self.gen_len
        for link in self.links:
            if link.gen is not None and link.ref is not None:
                out[link.gen] = link.ref
        return out


def _tokens(side: Union[Transcript, Sequence[str]]) -> tuple[str, ...]:
    return side.tokens if isinstance(side, Transcript) else tuple(side)


# Pass 1 widens the band this many diagonals past the ones between the
# corners; an alignment within it needs no second pass.
_BAND_SLACK = 64
# Distance held by cells outside the band; large enough that no real
# distance or neighbour check can equal it, small enough that +1 stays int32.
_FAR = np.iinfo(np.int32).max // 2


def _band_distances(ref_ids: np.ndarray, gen_ids: np.ndarray, dlo: int, dhi: int) -> np.ndarray:
    """Edit distances ``D[i][j]`` on the diagonals ``dlo <= j - i <= dhi``.

    Cell ``(i, j)`` is stored at ``band[i, j - i - dlo]``.  Cells off the
    matrix hold ``_FAR``, as does one extra last column, so a reader may
    look one diagonal to the right of any band cell unchecked.  A band
    cell counts only paths inside the band, so it is an upper bound on
    the true distance.  Requires ``dlo <= min(0, n - m)`` and
    ``dhi >= max(0, n - m)``, so every row holds at least one cell.
    """
    m, n = len(ref_ids), len(gen_ids)
    width = dhi - dlo + 1
    band = np.full((m + 1, width + 1), _FAR, dtype=np.int32)
    steps = np.arange(width, dtype=np.int32)
    top = min(n, dhi) + 1
    band[0, -dlo : top - dlo] = steps[:top]
    # Row-by-row DP; the in-row left-to-right dependency D[i][j-1]+1 is a
    # running minimum of candidate[k'] - k' plus k, which vectorizes.
    for i in range(1, m + 1):
        jlo, jhi = max(0, i + dlo), min(n, i + dhi)
        klo, size = jlo - i - dlo, jhi - jlo + 1
        prev = band[i - 1]
        cand = np.empty(size, dtype=np.int32)
        first = 1 if jlo == 0 else 0
        if first:
            cand[0] = i  # column 0 is the boundary D[i][0] = i
        cand[first:] = np.minimum(
            prev[klo + first : klo + size] + (gen_ids[jlo + first - 1 : jhi] != ref_ids[i - 1]),
            prev[klo + first + 1 : klo + size + 1] + 1,
        )
        band[i, klo : klo + size] = np.minimum.accumulate(cand - steps[:size]) + steps[:size]
    return band


def levenshtein_align(
    reference: Union[Transcript, Sequence[str]],
    generated: Union[Transcript, Sequence[str]],
) -> Alignment:
    """Optimal monotone alignment under unit costs.

    Ties are broken per cell preferring MATCH, then SUBST, then DELETE,
    then INSERT, which keeps delimiters anchored to lexical matches and
    makes the output deterministic.  Either side may be empty.

    The DP fills only a band of diagonals ``d = j - i`` (Ukkonen 1985),
    in at most two passes.  With ``delta = n - m``, pass 1 covers
    ``[min(0, delta) - K, max(0, delta) + K]`` (``K = _BAND_SLACK``,
    clipped to the matrix); its cost ``U`` bounds the true distance
    ``D`` from above.  A cell on an optimal path has
    ``|d| + |delta - d| <= D <= U``, so all optimal paths lie within
    ``(U - |delta|) // 2`` diagonals of the corners' ones.  When the band
    holds that region, every cell on an optimal path holds its true
    distance, and a neighbour that passes a traceback check lies on an
    optimal path (band cells only overestimate, and off-band cells hold
    a sentinel), so the links equal the full matrix's, not just the cost.
    Otherwise pass 2 runs on exactly that region, which is exact by the
    same argument.  Time and memory are O(m * (D + |m - n|)); unrelated
    inputs (D near max(m, n)) still cost O(m * n).  Window-sized inputs
    fit in the clipped pass-1 band, which is then the whole matrix.
    """
    ref = _tokens(reference)
    gen = _tokens(generated)
    m, n = len(ref), len(gen)
    ids: dict[str, int] = {}
    ref_ids = np.fromiter((ids.setdefault(t, len(ids)) for t in ref), dtype=np.int64, count=m)
    gen_ids = np.fromiter((ids.setdefault(t, len(ids)) for t in gen), dtype=np.int64, count=n)

    delta = n - m
    low, high = min(0, delta), max(0, delta)
    dlo, dhi = max(-m, low - _BAND_SLACK), min(n, high + _BAND_SLACK)
    band = _band_distances(ref_ids, gen_ids, dlo, dhi)
    reach = (int(band[m, delta - dlo]) - abs(delta)) // 2
    need_lo, need_hi = max(-m, low - reach), min(n, high + reach)
    if need_lo < dlo or need_hi > dhi:
        del band
        dlo, dhi = need_lo, need_hi
        band = _band_distances(ref_ids, gen_ids, dlo, dhi)

    links: list[Link] = []
    i, j = m, n
    while i > 0 or j > 0:
        k = j - i - dlo
        here = band[i, k]
        if i > 0 and j > 0 and ref[i - 1] == gen[j - 1] and band[i - 1, k] == here:
            links.append(Link(MATCH, i - 1, j - 1))
            i, j = i - 1, j - 1
        elif i > 0 and j > 0 and ref[i - 1] != gen[j - 1] and band[i - 1, k] + 1 == here:
            links.append(Link(SUBST, i - 1, j - 1))
            i, j = i - 1, j - 1
        elif i > 0 and band[i - 1, k + 1] + 1 == here:
            links.append(Link(DELETE, i - 1, None))
            i -= 1
        else:
            links.append(Link(INSERT, None, j - 1))
            j -= 1
    links.reverse()
    return Alignment(tuple(links), int(band[m, delta - dlo]))


def project_boundaries(
    reference: Union[Transcript, Sequence[str]],
    generated: Union[DelimitedText, str, Sequence[str]],
    delimiter: str = DEFAULT_DELIMITER,
) -> SegmentationLabels:
    """Carry the delimiters of ``generated`` onto the reference tokens.

    Each delimiter belongs to the generated token after it; that token's
    aligned reference position becomes a SPLIT.  A delimiter in front of
    an inserted (unaligned) token falls forward to the next aligned one
    and is dropped when none follows.  Total on any input: the result is
    always a labeling of the reference window.
    """
    ref = _tokens(reference)
    if not isinstance(generated, DelimitedText):
        generated = parse_delimited_lenient(generated, delimiter)
    if not ref:
        return SegmentationLabels(())
    gen_tokens = generated.tokens()
    alignment = levenshtein_align(ref, gen_tokens)
    ref_of_gen = alignment.ref_index_of_gen()

    # next_aligned[j]: first aligned reference index at generated position >= j.
    next_aligned: list[Optional[int]] = [None] * (len(gen_tokens) + 1)
    for j in range(len(gen_tokens) - 1, -1, -1):
        next_aligned[j] = ref_of_gen[j] if ref_of_gen[j] is not None else next_aligned[j + 1]

    decisions: list[Decision] = [CONTINUE] * len(ref)
    for j, (has_delim, _) in enumerate(generated.items):
        if not has_delim:
            continue
        target = next_aligned[j]
        if target is not None:
            decisions[target] = SPLIT
    return SegmentationLabels(tuple(decisions))


def project_oracle(
    reference_punctuated: str,
    asr: Union[Transcript, Sequence[str]],
    rule: Optional[RulePunctuation] = None,
) -> SegmentationLabels:
    """Project punctuation-derived boundaries from a reference onto ASR tokens.

    The reference text is normalized and labeled by the punctuation rules,
    then each boundary moves across the token alignment onto the ASR side.
    Position 0 always opens a segment.  An empty ASR yields empty labels.
    """
    asr_tokens = _tokens(asr)
    if not asr_tokens:
        return SegmentationLabels(())
    transcript, labels = (rule or RulePunctuation()).derive_labels(reference_punctuated)
    flagged = DelimitedText(
        tuple((labels[i] is SPLIT, tok) for i, tok in enumerate(transcript.tokens))
    )
    projected = list(project_boundaries(asr_tokens, flagged).decisions)
    projected[0] = SPLIT
    return SegmentationLabels(tuple(projected))
