"""File formats: transcript text files and boundary-position label files.

A transcript file holds whitespace-separated tokens; its stem is the
default source id.  A labels file holds one document per line:

    source_id<TAB>token_count<TAB>p1,p2,...

where the positions are the ascending SPLIT positions beyond 0 (position
0 is implied; the field is empty for single-segment documents).  Carrying
the token count makes a labels file self-contained: a full labeling can
be rebuilt, and positions are validated against the document length.

Every file is read through ``read_text`` or ``read_bytes``, so a file that
cannot be read is a ValueError naming it, and written through
``write_files``, so each is whole or left as it was.
"""

from __future__ import annotations

import contextlib
import os
from pathlib import Path
from typing import Iterable, Mapping, Union

from .core import SegmentationLabels, Transcript, normalize_text

PathLike = Union[str, Path]


def write_files(files: Mapping[PathLike, Union[str, bytes, bytearray]]) -> None:
    """Write a batch of files so that each is whole or keeps its old content.

    Every file is first written to a temporary ``.<name>.tmp`` beside it,
    text as UTF-8; only once all are written are they renamed into place.
    On failure the temporaries are removed and the exception propagates;
    an ``OSError`` names the target path, not its temporary.

    The renames are not atomic as a batch: one that fails part way leaves
    the renames before it done, so those targets hold their new content
    and the rest their old.
    """
    staged: list[tuple[Path, Path]] = []
    target = None
    try:
        for path, data in files.items():
            target = Path(path)
            temp = target.with_name(f".{target.name}.tmp")
            staged.append((temp, target))
            temp.write_bytes(data.encode("utf-8") if isinstance(data, str) else data)
        for temp, target in staged:
            os.replace(temp, target)
    except OSError as exc:
        exc.filename = str(target)
        raise
    finally:
        for temp, _ in staged:
            with contextlib.suppress(OSError):
                temp.unlink()


def read_bytes(path: PathLike) -> bytes:
    """The bytes of ``path``; a file that cannot be read is a ValueError naming it."""
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise ValueError(f"{path}: {exc.strerror or exc}") from None


def read_text(path: PathLike) -> str:
    """The text of ``path``: UTF-8, with universal newlines.

    A file that cannot be read, or is not UTF-8, is a ValueError naming it.
    """
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    except OSError as exc:
        raise ValueError(f"{path}: {exc.strerror or exc}") from None


def read_transcript(path: PathLike, source_id: str = "", normalize: bool = False) -> Transcript:
    """The transcript file ``path``: its tokens, ``normalize_text``'s if ``normalize``.

    A token that breaks core's token rule is a ValueError naming ``path``,
    like a file that cannot be read.
    """
    text = read_text(path)
    tokens = normalize_text(text) if normalize else text.split()
    try:
        return Transcript(tuple(tokens), source_id or Path(path).stem)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def format_transcript(transcript: Transcript) -> str:
    """The content of a transcript file."""
    return transcript.text() + "\n"


def _int_field(path: PathLike, lineno: int, what: str, field: str) -> int:
    try:
        return int(field)
    except ValueError:
        raise ValueError(f"{path}:{lineno}: {what} {field!r} is not an integer") from None


def read_labels_file(path: PathLike) -> dict[str, SegmentationLabels]:
    """Map source_id to its full labeling (SPLIT at 0 implied).

    A malformed line, or a file that cannot be read, is a ValueError
    naming ``path``.
    """
    text = read_text(path)
    out: dict[str, SegmentationLabels] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
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


LabelsEntries = Union[
    Mapping[str, SegmentationLabels], Iterable[tuple[str, SegmentationLabels]]
]


def check_source_id(source_id: str) -> None:
    """Refuse (ValueError) a source id that a labels file cannot read back.

    Its line is split on tabs and the file on every break ``str.splitlines``
    knows, so the id may hold neither.
    """
    if "\t" in source_id or "".join(source_id.splitlines()) != source_id:
        raise ValueError(
            f"document id {source_id!r} holds a tab or line break, "
            "which a labels file cannot hold"
        )


def format_labels(entries: LabelsEntries) -> str:
    """The content of a labels file holding ``entries`` in order; see ``check_source_id``."""
    items = entries.items() if isinstance(entries, Mapping) else entries
    lines = []
    for source_id, labels in items:
        check_source_id(source_id)
        positions = [p for p in labels.split_positions() if p > 0]
        lines.append(
            f"{source_id}\t{len(labels)}\t{','.join(str(p) for p in positions)}"
        )
    return "\n".join(lines) + ("\n" if lines else "")

