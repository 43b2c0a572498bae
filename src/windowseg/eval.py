"""Boundary precision/recall/F1 and predicted-segment statistics.

A boundary is a SPLIT at positions 1..n-1; position 0 opens every
labeling and carries no information, so it never counts.  Matching is
exact-position.  Corpus scores are micro-averaged: pooled counts, not a
mean of per-document F1s.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from typing import Mapping

from .core import SegmentationLabels

SCHEMA_VERSION = 1


class PairingError(ValueError):
    """Predicted and reference corpora do not cover the same documents."""


@dataclass(frozen=True)
class EvalReport:
    """Boundary-matching counts and ratios, plus predicted-segment statistics."""

    true_positives: int
    false_positives: int
    false_negatives: int
    precision: float
    recall: float
    f1: float
    segment_count: int
    mean_segment_len: float
    max_segment_len: int
    per_document: tuple[tuple[str, "EvalReport"], ...] = ()


def _ratios(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def boundaries(labels: SegmentationLabels) -> frozenset[int]:
    """SPLIT positions that count as boundaries: 1..n-1."""
    return frozenset(p for p in labels.split_positions() if p > 0)


def _report(
    tp: int, fp: int, fn: int, tokens: int, segments: int, longest: int, per_doc=()
) -> EvalReport:
    precision, recall, f1 = _ratios(tp, fp, fn)
    mean_len = tokens / segments if segments else 0.0
    return EvalReport(
        tp, fp, fn, precision, recall, f1, segments, mean_len, longest, tuple(per_doc)
    )


def boundary_f1(predicted: SegmentationLabels, reference: SegmentationLabels) -> EvalReport:
    """Exact-position boundary F1 of one document."""
    if len(predicted) != len(reference):
        raise ValueError(
            f"predicted length {len(predicted)} != reference length {len(reference)}"
        )
    pred = boundaries(predicted)
    ref = boundaries(reference)
    tp = len(pred & ref)
    n = len(predicted)
    # Position 0 opens a segment and every boundary opens one more.
    starts = sorted(pred | {0}) if n else []
    longest = max((e - s for s, e in zip(starts, starts[1:] + [n])), default=0)
    return _report(tp, len(pred) - tp, len(ref) - tp, n, len(starts), longest)


def evaluate_corpus(
    predicted: Mapping[str, SegmentationLabels],
    reference: Mapping[str, SegmentationLabels],
) -> EvalReport:
    """Micro-averaged report over documents paired by id, with a breakdown.

    Raises PairingError naming the unpaired document ids, if any, and a
    ValueError naming the first document whose two labelings differ in length.
    """
    missing = sorted(set(predicted) ^ set(reference))
    if missing:
        raise PairingError(f"unpaired documents: {', '.join(missing)}")
    if not predicted:
        raise ValueError("no documents to evaluate")
    tp = fp = fn = 0
    tokens = segments = longest = 0
    per_doc = []
    for doc_id in sorted(predicted):
        try:
            rep = boundary_f1(predicted[doc_id], reference[doc_id])
        except ValueError as exc:
            raise ValueError(f"{doc_id}: {exc}") from None
        per_doc.append((doc_id, rep))
        tp += rep.true_positives
        fp += rep.false_positives
        fn += rep.false_negatives
        segments += rep.segment_count
        longest = max(longest, rep.max_segment_len)
        tokens += len(predicted[doc_id])
    return _report(tp, fp, fn, tokens, segments, longest, per_doc)


def _as_dict(report: EvalReport, with_documents: bool = True) -> dict:
    out = {f.name: getattr(report, f.name) for f in fields(report) if f.name != "per_document"}
    if with_documents:
        out["documents"] = {
            doc_id: _as_dict(rep, with_documents=False)
            for doc_id, rep in report.per_document
        }
    return out


def format_report(report: EvalReport, fmt: str = "text") -> str:
    """Render a report as an aligned text table or versioned JSON."""
    if fmt == "json":
        return json.dumps(
            {"schema_version": SCHEMA_VERSION, **_as_dict(report)},
            indent=2,
            sort_keys=True,
        )
    if fmt != "text":
        raise ValueError(f"unknown report format {fmt!r}")
    rows = [
        ("precision", f"{report.precision:.4f}"),
        ("recall", f"{report.recall:.4f}"),
        ("f1", f"{report.f1:.4f}"),
        ("true positives", str(report.true_positives)),
        ("false positives", str(report.false_positives)),
        ("false negatives", str(report.false_negatives)),
        ("segments", str(report.segment_count)),
        ("mean segment len", f"{report.mean_segment_len:.2f}"),
        ("max segment len", str(report.max_segment_len)),
    ]
    width = max(len(k) for k, _ in rows)
    lines = [f"{k:<{width}}  {v}" for k, v in rows]
    if report.per_document:
        lines.append("")
        lines.append(f"{'document':<20}  {'f1':>6}  {'prec':>6}  {'rec':>6}")
        for doc_id, rep in report.per_document:
            lines.append(
                f"{doc_id:<20}  {rep.f1:>6.4f}  {rep.precision:>6.4f}  {rep.recall:>6.4f}"
            )
    return "\n".join(lines)
