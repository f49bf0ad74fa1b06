"""One manifest-plus-blob container, shared by the corpus and checkpoint formats.

A container is a UTF-8 manifest of JSON lines -- line 1 a header object
whose ``format`` names the schema, then one object per entry -- plus
sidecar blob files of raw little-endian floats, row-major, each in the one
dtype its schema fixes. A blob is read whole, once, straight into the
array returned, and checked in one order: its byte length must be what
the manifest's sizes make it, its ``zlib.crc32`` what the header records,
and every value finite. A schema (the corpus, the checkpoint) lays out
its values and checks its header, its entries and what the values mean.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FormatError


@dataclass(frozen=True)
class Schema:
    """How one format is named in the container's errors."""

    module: str  # message prefix
    format: str  # the header's ``format`` value
    kind: str    # "<manifest> is not a <kind>"
    entry: str   # what one entry is ("column", "tensor")
    key: str     # the entry field that must be unique


def write_jsonl(path: Path, objects) -> Path:
    """Write one JSON object per line, keys sorted: a manifest is its header
    followed by its entries."""
    with open(path, "w", encoding="utf-8") as fh:
        for obj in objects:
            fh.write(json.dumps(obj, sort_keys=True) + "\n")
    return path


def read_manifest(path: Path, schema: Schema, parse_header, parse_entry):
    """``(parse_header(header), rows)`` of a checked manifest; a row is an
    entry's line number and ``parse_entry(entry, parsed header)``, whose
    first item is the entry's unique key. The parsers raise
    ``AttributeError``, ``KeyError``, ``TypeError`` or ``ValueError``, and
    a line nested too deep to decode raises ``RecursionError``."""
    mod = schema.module
    if not path.is_file():
        raise FormatError(f"{mod}: manifest {path} does not exist")
    try:
        lines = path.read_bytes().decode("utf-8").splitlines()
    except OSError as exc:
        raise FormatError(f"{mod}: cannot read {path} ({exc})") from exc
    except UnicodeDecodeError as exc:
        raise FormatError(
            f"{mod}: manifest {path} is not UTF-8 ({exc})") from exc
    if not lines:
        raise FormatError(f"{mod}: manifest {path} is empty")
    try:
        header = json.loads(lines[0])
        if not isinstance(header, dict) or \
                header.get("format") != schema.format:
            raise FormatError(f"{mod}: {path} is not a {schema.kind}")
        parsed = parse_header(header)
    except (AttributeError, KeyError, TypeError, ValueError,
            RecursionError) as exc:
        raise FormatError(f"{mod}: {path} line 1: malformed header "
                          f"({type(exc).__name__}: {exc})") from exc
    rows, seen = [], set()
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        entry = None
        try:
            entry = json.loads(line)
            row = (lineno, *parse_entry(entry, parsed))
        except (AttributeError, KeyError, TypeError, ValueError,
                RecursionError) as exc:
            name = entry.get(schema.key, "<unnamed>") \
                if isinstance(entry, dict) else "<unparsed>"
            raise FormatError(
                f"{mod}: {path} line {lineno}: malformed {schema.entry} "
                f"{name!r} ({type(exc).__name__}: {exc})") from exc
        if row[1] in seen:
            raise FormatError(f"{mod}: {path} line {lineno}: "
                              f"duplicate {schema.entry} {row[1]!r}")
        seen.add(row[1])
        rows.append(row)
    return parsed, rows


def read_blob(path: Path, schema: Schema, blob: str, count: int,
              dtype: np.dtype, crc32: int, label) -> np.ndarray:
    """The ``count`` values of ``dtype`` in the blob file ``blob`` beside
    manifest ``path``, whose header (line 1) records its ``crc32``, read by
    one ``np.fromfile`` straight into the array returned. The checks run
    byte length, crc32 (of the array read), then finiteness; ``label(k)``
    names value k in their errors."""
    mod, blob_path = schema.module, path.parent / blob
    if not blob_path.is_file():
        raise FormatError(f"{mod}: missing blob file {blob_path}")
    size, end = blob_path.stat().st_size, count * dtype.itemsize
    if size != end:
        last = f"last {label(count - 1)}: " if count else ""
        raise FormatError(f"{mod}: {path} line 1: {last}blob {blob} holds "
                          f"{size} bytes, but its {count} values take {end}")
    try:
        values = np.fromfile(blob_path, dtype, count)
    except OSError as exc:
        raise FormatError(f"{mod}: cannot read blob file {blob_path} "
                          f"({exc})") from exc
    if (got := zlib.crc32(values)) != crc32:
        raise FormatError(f"{mod}: {path}: blob {blob} has crc32 {got}, but "
                          f"the header records {crc32}")
    finite = np.isfinite(values)
    if not finite.all():
        raise FormatError(f"{mod}: {path} line 1: "
                          f"{label(int(np.argmin(finite)))} holds a "
                          "non-finite value (NaN or Inf)")
    return values
