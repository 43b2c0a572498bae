"""File formats: transcript text files and boundary-position label files.

A transcript file holds whitespace-separated tokens; its stem is the
default source id.  A labels file holds one document per line:

    source_id<TAB>token_count<TAB>p1,p2,...

where the positions are the ascending SPLIT positions beyond 0 (position
0 is implied; the field is empty for single-segment documents).  Carrying
the token count makes a labels file self-contained: a full labeling can
be rebuilt, and positions are validated against the document length.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Mapping, Union

from .core import SegmentationLabels, Transcript

PathLike = Union[str, Path]


def read_transcript(path: PathLike, source_id: str = "") -> Transcript:
    path = Path(path)
    tokens = path.read_text(encoding="utf-8").split()
    return Transcript(tuple(tokens), source_id or path.stem)


def write_transcript(transcript: Transcript, path: PathLike) -> None:
    Path(path).write_text(transcript.text() + "\n", encoding="utf-8")


def _int_field(path: PathLike, lineno: int, what: str, field: str) -> int:
    try:
        return int(field)
    except ValueError:
        raise ValueError(f"{path}:{lineno}: {what} {field!r} is not an integer") from None


def read_labels_file(path: PathLike) -> dict[str, SegmentationLabels]:
    """Map source_id to its full labeling (SPLIT at 0 implied)."""
    out: dict[str, SegmentationLabels] = {}
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise ValueError(
                f"{path}:{lineno}: expected 'source_id<TAB>token_count<TAB>positions'"
            )
        source_id, count_field, pos_field = parts
        n = _int_field(path, lineno, "token count", count_field)
        if n < 0:
            raise ValueError(f"{path}:{lineno}: token count must be >= 0")
        fields = pos_field.split(",") if pos_field.strip() else []
        positions = tuple(_int_field(path, lineno, "position", p) for p in fields)
        if any(p <= 0 for p in positions):
            raise ValueError(f"{path}:{lineno}: positions must be >= 1")
        if list(positions) != sorted(set(positions)):
            raise ValueError(f"{path}:{lineno}: positions must be strictly ascending")
        if any(p >= n for p in positions):
            raise ValueError(f"{path}:{lineno}: position beyond document length {n}")
        if source_id in out:
            raise ValueError(f"{path}:{lineno}: duplicate source_id {source_id!r}")
        out[source_id] = SegmentationLabels.from_split_positions(n, positions)
    return out


def write_labels_file(
    entries: Union[
        Mapping[str, SegmentationLabels], Iterable[tuple[str, SegmentationLabels]]
    ],
    path: PathLike,
) -> None:
    items = entries.items() if isinstance(entries, Mapping) else entries
    lines = []
    for source_id, labels in items:
        positions = [p for p in labels.split_positions() if p > 0]
        lines.append(
            f"{source_id}\t{len(labels)}\t{','.join(str(p) for p in positions)}"
        )
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


def labels_entry(
    transcript: Transcript, labels: SegmentationLabels
) -> tuple[str, SegmentationLabels]:
    """A labels-file row for one document, validating the pairing."""
    if len(labels) != len(transcript):
        raise ValueError("labels length does not match transcript")
    return transcript.source_id, labels
