"""Levenshtein alignment and boundary projection.

When a generative segmenter paraphrases instead of copying, its delimiters
no longer decode directly against the source window.  Aligning the
generated tokens to the reference under unit edit costs lets every
delimiter be carried over to the reference position of the token it
precedes, so boundary annotations survive imperfect copies.  The same
projection moves punctuation-derived boundaries from reference transcripts
onto ASR output.

The alignment is computed on a band of diagonals sized from a cheap upper
bound on the distance (Ukkonen 1985), column by column with bit-parallel
edit distance (Myers 1999, JACM 46(3); banded form after Hyyrö 2003,
Nordic J. Computing 10(1)): a band cell costs two bits.  The traceback
records only what the projection reads: the reference index of each
generated token.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .core import (
    CONTINUE,
    SPLIT,
    Decision,
    DelimitedText,
    SegmentationLabels,
    Transcript,
    encode_delimited,
    parse_delimited_lenient,
)
from .rules import RulePunctuation


@dataclass(frozen=True)
class Alignment:
    """A monotone alignment between a reference and a generated sequence.

    ``ref_of_gen`` has one entry per generated token: the reference index
    it is aligned to (a match or a substitution), or None for an inserted
    token.  Reference tokens no entry names are deleted.
    """

    ref_of_gen: tuple[Optional[int], ...]
    total_cost: int


def _band_columns(
    ref_ids: Sequence[int], gen_ids: Sequence[int], dlo: int, dhi: int
) -> tuple[list[int], list[int], list[int]]:
    """Edit distances on the diagonals ``dlo <= j - i <= dhi``, as bit columns.

    Column ``j`` covers rows ``top = max(1, j - dhi)`` to
    ``min(m, j - dlo)``.  It is returned as ``above[j]``, the value of cell
    ``(top - 1, j)``, and two ints whose bit ``k`` is set where the value
    rises (``vp[j]``) or falls (``vn[j]``) by one from row ``top + k - 1``
    to row ``top + k``, so a column of ``h`` rows costs at most ``2h``
    bits.  Each column follows from the last by Hyyrö's step of Myers'
    bit-parallel recurrence (Myers 1999; Hyyrö 2003) with a +1 carry-in
    at the top: cell ``(top - 1, j)`` is taken as one insertion after
    ``(top - 1, j - 1)``, which is exact at row 0.  A row entering at the
    bottom is taken as one deletion after the row above it.  Every value
    is therefore the cost of a real path, and no more than the best path
    inside the band: an upper bound on the true distance, exact on every
    optimal path the band holds.  Requires ``dlo <= min(0, n - m)`` and
    ``dhi >= max(0, n - m)``, so every row holds at least one cell.
    """
    m, n = len(ref_ids), len(gen_ids)
    # One match mask per token id, bit 0 at its first reference row; a
    # token the reference lacks has its first row below the matrix.
    size = max(max(ref_ids, default=-1), max(gen_ids, default=-1)) + 1
    first = [m + 1] * size
    masks = [0] * size
    for row, tid in enumerate(ref_ids, 1):
        if first[tid] > m:
            first[tid] = row
        masks[tid] |= 1 << (row - first[tid])
    top, height = 1, min(m, -dlo)
    a, vp, vn = 0, (1 << height) - 1, 0
    above, vps, vns = [a], [vp], [vn]
    for j in range(1, n + 1):
        if j - dhi > top:  # the top row leaves: fold its delta into the anchor
            a += (vp & 1) - (vn & 1)
            vp >>= 1
            vn >>= 1
            top += 1
            height -= 1
        if top + height <= m and top + height <= j - dlo:  # a row enters at the bottom
            vp |= 1 << height
            height += 1
        a += 1  # the cell above the top: one insertion after its left neighbour
        full = (1 << height) - 1
        tid = gen_ids[j - 1]
        shift = first[tid] - top
        if shift >= height:  # the token first occurs below the column
            eq = 0
        elif shift >= 0:
            eq = masks[tid] << shift & full
        else:
            eq = masks[tid] >> -shift & full
        # Hyyrö's step; ``full ^ x`` stands for ``~x`` on the column's rows,
        # since bitwise operations on negative ints are slow.
        xv = eq | vn
        xh = (((eq & vp) + vp) ^ vp) | eq
        ph = (vn | full ^ (xh | vp)) << 1 | 1
        vn = ph & xv
        vp = ((vp & xh) << 1 | full ^ (xv | ph)) & full
        above.append(a)
        vps.append(vp)
        vns.append(vn)
    return above, vps, vns


# How the match walk resyncs after a mismatch.  A skip of cost 1 may land
# on one matching token; a skip of cost 2 to ``_NEAR_SKIP`` must land on a
# run of two, and these are tried one by one: at most about
# (_NEAR_SKIP + 1)^2 comparisons per mismatch.  Longer skips are looked up
# in n-gram indexes of the generated side, in tiers of (largest cost, run
# length), the last without a limit: at most 64 lookups per mismatch in
# the first tier, and at most the skip's cost in the last.  About cost^2
# skips compete, so longer skips need longer runs, or a chance match
# inside an inserted or deleted block would pull the walk off the true
# diagonal.
_NEAR_SKIP = 8
_FAR_TIERS = ((64, 4), (None, 8))


def _near_skip(
    ref_ids: Sequence[int], gen_ids: Sequence[int], i: int, j: int
) -> Optional[tuple[int, int]]:
    """The cheapest skip from ``(i, j)`` of cost at most ``_NEAR_SKIP``, or None.

    Of the skips of one cost, the one nearest the diagonal wins.
    """
    m, n = len(ref_ids), len(gen_ids)
    for c in range(1, min(_NEAR_SKIP, max(m - i, n - j)) + 1):
        run = 1 if c == 1 else 2
        for off in range(c + 1):
            for a, b in ((c, c - off), (c - off, c)):
                if (
                    i + a + run <= m
                    and j + b + run <= n
                    and ref_ids[i + a : i + a + run] == gen_ids[j + b : j + b + run]
                ):
                    return a, b
    return None


def _far_skip(
    ref_ids: Sequence[int],
    gen_ids: Sequence[int],
    i: int,
    j: int,
    indexes: dict[int, dict[tuple[int, ...], list[int]]],
) -> tuple[int, int]:
    """The cheapest skip from ``(i, j)`` a tier of ``_FAR_TIERS`` allows.

    Skips all that is left when none does.  For each ``a`` the reference's
    n-gram at ``i + a`` is looked up in the index of the generated side's
    n-gram positions (``indexes`` caches one per run length), and the
    first position at or after ``j`` gives the cheapest ``b``.  The lookups
    stop once ``a`` reaches the cost of the cheapest skip found.
    """
    m, n = len(ref_ids), len(gen_ids)
    rest = max(m - i, n - j)
    for limit, run in _FAR_TIERS:
        bound = rest if limit is None else min(rest, limit + 1)
        skip = None
        a = 0
        while a < bound and i + a + run <= m:
            index = indexes.get(run)
            if index is None:
                index = indexes[run] = {}
                for k in range(n - run + 1):
                    index.setdefault(tuple(gen_ids[k : k + run]), []).append(k)
            found = index.get(tuple(ref_ids[i + a : i + a + run]))
            if found:
                k = bisect_left(found, j)
                if k < len(found) and max(a, found[k] - j) < bound:
                    bound = max(a, found[k] - j)
                    skip = (a, found[k] - j)
            a += 1
        if skip is not None:
            return skip
    return m - i, n - j


def _walk_cost(ref_ids: Sequence[int], gen_ids: Sequence[int]) -> int:
    """The cost ``U`` of a cheap monotone alignment, so ``U >= D``.

    The walk follows matches along the diagonal.  At a mismatch at
    ``(i, j)`` it resyncs by skipping ``a`` reference and ``b`` generated
    tokens, which costs ``max(a, b)`` (substitutions, then insertions or
    deletions): the cheapest skip onto a run of matching tokens as long as
    its cost asks (``_near_skip``, then ``_far_skip``).  With no resync the
    rest costs ``max(m - i, n - j)``, and the walk never reports more than
    ``max(m, n)``, the cost of substituting along the diagonal.  A walk of
    cost ``U`` does O(m + n + U) work and needs no cap on a skip's length.
    """
    m, n = len(ref_ids), len(gen_ids)
    i = j = cost = 0
    indexes: dict[int, dict[tuple[int, ...], list[int]]] = {}
    while i < m and j < n:
        if ref_ids[i] == gen_ids[j]:
            i += 1
            j += 1
            continue
        skip = _near_skip(ref_ids, gen_ids, i, j) or _far_skip(ref_ids, gen_ids, i, j, indexes)
        cost += max(skip)
        i += skip[0]
        j += skip[1]
    return min(cost + (m - i) + (n - j), max(m, n))


def levenshtein_align(
    reference: Union[Transcript, Sequence[str]],
    generated: Union[Transcript, Sequence[str]],
) -> Alignment:
    """Optimal monotone alignment under unit costs.

    Returns the distance and, for each generated token, the reference
    index it is aligned to (None for an insertion).  Ties are broken per
    cell preferring the diagonal step (a match or a substitution), then a
    deletion, then an insertion, which keeps delimiters anchored to
    lexical matches and makes the output deterministic.  Either side may
    be empty.

    The DP fills one band of diagonals ``d = j - i`` (Ukkonen 1985).
    With ``delta = n - m``, the match walk (``_walk_cost``) gives the cost
    ``U`` of one valid alignment, so ``U`` bounds the true distance ``D``
    from above.  A cell on an optimal path has
    ``|d| + |delta - d| <= D <= U``, so all optimal paths lie within
    ``(U - |delta|) // 2`` diagonals of the corners' ones, and the band is
    exactly that region, clipped to the matrix.  The band is computed in
    bit-parallel columns (``_band_columns``; Myers 1999, Hyyrö 2003), in
    which every value is the cost of a real path, at most the band's best.
    Every cell on an optimal path then holds its true distance, and a
    neighbour that passes a traceback check lies on an optimal path (a
    value only overestimates), so ``ref_of_gen`` equals the full matrix's,
    not just the cost, for any ``U >= D``.

    Memory is at most two bits per band cell, about
    ``n * (U + |m - n|) / 4`` bytes, plus one match mask per distinct
    reference token, one bit per row from its first occurrence to its
    last.  Time is ``n`` column steps on ints of the band's height, plus a
    traceback that reads one cell per non-matching step.  On ASR-like
    copies ``U`` is within a few percent of ``D``; unrelated inputs (``D``
    near max(m, n)) still take O(m * n) bits.
    """
    ref = tuple(reference)
    gen = tuple(generated)
    m, n = len(ref), len(gen)
    ids: dict[str, int] = {}
    ref_ids = [ids.setdefault(t, len(ids)) for t in ref]
    gen_ids = [ids.setdefault(t, len(ids)) for t in gen]

    delta = n - m
    reach = (_walk_cost(ref_ids, gen_ids) - abs(delta)) // 2
    dlo, dhi = max(-m, min(0, delta) - reach), min(n, max(0, delta) + reach)
    above, vps, vns = _band_columns(ref_ids, gen_ids, dlo, dhi)

    def cell(i: int, j: int) -> int:
        """``D(i, j)``, for ``i`` from the row above column ``j``'s top down."""
        low = (1 << (i - max(0, j - dhi - 1))) - 1
        return above[j] + (vps[j] & low).bit_count() - (vns[j] & low).bit_count()

    # The traceback stays on optimal paths, where every value is exact, so
    # it carries ``here = D(i, j)`` along and reads one diagonal cell per
    # non-matching step.  A match keeps ``here``: D(i - 1, j - 1) = D(i, j),
    # since neighbouring cells differ by at most one, so the diagonal is on
    # an optimal path and the band holds it.  Once a side is used up, the
    # rest of the path is all insertions or all deletions, and neither
    # records anything.
    ref_of_gen: list[Optional[int]] = [None] * n
    i, j = m, n
    here = total = cell(m, n)
    while i > 0 and j > 0:
        if ref_ids[i - 1] == gen_ids[j - 1]:
            i -= 1
            j -= 1
            ref_of_gen[j] = i
            continue
        diag = cell(i - 1, j - 1)
        if diag + 1 == here:
            ref_of_gen[j - 1] = i - 1
            i, j, here = i - 1, j - 1, diag
            continue
        # D(i - 1, j) + 1 == D(i, j): the value rises into row i, a deletion.
        if vps[j] >> (i - max(1, j - dhi)) & 1:
            i -= 1
        else:
            j -= 1
        here -= 1
    return Alignment(tuple(ref_of_gen), total)


def project_boundaries(
    reference: Union[Transcript, Sequence[str]],
    generated: Union[DelimitedText, str, Sequence[str]],
) -> SegmentationLabels:
    """Carry the delimiters of ``generated`` onto the reference tokens.

    Each delimiter belongs to the generated token after it; that token's
    aligned reference position becomes a SPLIT.  A delimiter in front of
    an inserted (unaligned) token falls forward to the next aligned one
    and is dropped when none follows.  Text is read leniently (see
    ``parse_delimited_lenient``), so a delimiter glued to a word counts as
    if spaced.  Total on any input: the result is always a labeling of the
    reference window.
    """
    ref = tuple(reference)
    if not isinstance(generated, DelimitedText):
        generated = parse_delimited_lenient(generated)
    gen_tokens = generated.tokens()
    ref_of_gen = levenshtein_align(ref, gen_tokens).ref_of_gen

    # Backward, so ``target`` is the first aligned reference index at or
    # after each generated position.
    decisions: list[Decision] = [CONTINUE] * len(ref)
    target: Optional[int] = None
    for (has_delim, _), aligned in zip(reversed(generated.items), reversed(ref_of_gen)):
        if aligned is not None:
            target = aligned
        if has_delim and target is not None:
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
    asr_tokens = tuple(asr)
    if not asr_tokens:
        return SegmentationLabels(())
    transcript, labels = (rule or RulePunctuation()).derive_labels(reference_punctuated)
    flagged = encode_delimited(transcript, labels)
    projected = list(project_boundaries(asr_tokens, flagged).decisions)
    projected[0] = SPLIT
    return SegmentationLabels(tuple(projected))
