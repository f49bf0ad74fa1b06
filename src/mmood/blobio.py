"""One manifest-plus-blob container, shared by the corpus and checkpoint formats.

A container is a UTF-8 manifest of JSON lines -- line 1 a header object
whose ``format`` names the schema, then one object per entry -- plus
sidecar blob files of raw little-endian floats, row-major, each in the one
dtype its schema fixes and read once, straight into the array returned.
Each entry owns one chunk of a blob, and the layout is strict, checked in
exact integers: every chunk starts where the one before it ends, every
value is finite, and the blob ends exactly where the last chunk ends. A
blob whose header records its ``zlib.crc32`` (each corpus blob, read as
one entry) must match it. A schema (the corpus, the tensor store) checks
only its own header and entry fields.
"""

from __future__ import annotations

import json
import math
import zlib
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, chain
from pathlib import Path

import numpy as np

from .errors import FormatError


@dataclass(frozen=True)
class Schema:
    """How one format is named in the container's errors."""

    module: str    # message prefix
    format: str    # the header's ``format`` value
    kind: str      # "<manifest> is not a <kind>"
    entry: str     # what one entry is ("record", "tensor")
    key: str       # the entry field that must be unique
    key_noun: str  # "duplicate <key_noun> <value>"


def write_jsonl(path: Path, objects) -> Path:
    """Write one JSON object per line, keys sorted: a manifest is its header
    followed by its entries."""
    with open(path, "w", encoding="utf-8") as fh:
        for obj in objects:
            fh.write(json.dumps(obj, sort_keys=True) + "\n")
    return path


_DECODER = json.JSONDecoder()


def loads_line(line: str):
    """``json.loads(line)``, minus its whitespace scans when ``line`` is one
    bare JSON value; any other line goes to ``json.loads``, so every value
    it accepts and every error it raises stay ``json.loads``'s."""
    try:
        value, end = _DECODER.raw_decode(line)
        if end == len(line):
            return value
    except ValueError:
        pass
    return json.loads(line)


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
        header = loads_line(lines[0])
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
            entry = loads_line(line)
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
                              f"duplicate {schema.key_noun} {row[1]!r}")
        seen.add(row[1])
        rows.append(row)
    return parsed, rows


def read_blob(path: Path, schema: Schema, blob: str, lines: list[int], label,
              offsets: list[int], counts: list[int], dtype: np.dtype,
              crc32: int | None = None):
    """One blob's values in manifest order, read by one ``np.fromfile``
    straight into the returned array; entry i is ``counts[i]`` values of
    ``dtype`` at byte ``offsets[i]``, and ``label(i, k)`` names it in errors
    about its value k of the blob. Given a ``crc32``, the checks run byte
    length, checksum (of the array read), finiteness; without one, the
    values of a long blob are checked before its trailing bytes."""
    blob_path = path.parent / blob
    if not blob_path.is_file():
        raise FormatError(f"{schema.module}: missing blob file {blob_path}")
    size = blob_path.stat().st_size

    def at(i: int, k: int, last: str = "") -> str:
        return f"{schema.module}: {path} line {lines[i]}: {last}{label(i, k)}"

    # the layout is checked in Python ints, exact at any size
    stops = list(accumulate(counts, initial=0))
    starts = [stop * dtype.itemsize for stop in stops]
    moved = [type(offset) is not int or offset != start
             for offset, start in zip(offsets, starts)]
    if any(moved):
        i = moved.index(True)
        raise FormatError(f"{at(i, stops[i])} has offset {offsets[i]!r}; in "
                          f"manifest order it starts at {starts[i]}")
    end, values = starts[-1], None
    if size == end or size > end and crc32 is None:
        try:
            values = np.fromfile(blob_path, dtype, stops[-1])
        except OSError as exc:
            raise FormatError(f"{schema.module}: cannot read blob file "
                              f"{blob_path} ({exc})") from exc
        if crc32 is not None and (got := zlib.crc32(values)) != crc32:
            raise FormatError(f"{schema.module}: {path}: blob {blob} has "
                              f"crc32 {got}, but the header records {crc32}")
        finite = np.isfinite(values)
        if not finite.all():
            k = int(np.argmin(finite))
            raise FormatError(f"{at(bisect_right(stops, k) - 1, k)} holds a "
                              "non-finite value (NaN or Inf)")
    if size != end:
        last = f"{at(len(lines) - 1, stops[-1] - 1, 'last ')}:" if lines \
            else f"{schema.module}: {path}"
        raise FormatError(f"{last} blob {blob} holds {size} bytes, but "
                          f"its {schema.entry}s take {end}")
    return values


# -- named-tensor store (checkpoints) -----------------------------------------

STORE = Schema(module="blobio", format="tensor-store", kind="tensor store",
               entry="tensor", key="name", key_noun="tensor")
STORE_DTYPE = np.dtype("<f8")  # the one dtype of every store entry


def write_tensor_store(directory, name: str, tensors: dict[str, np.ndarray],
                       meta: dict) -> Path:
    """Write named tensors as ``<name>.json`` + ``<name>.blob``, float64."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    names = sorted(tensors)
    data = [np.asarray(tensors[tname], STORE_DTYPE).tobytes()
            for tname in names]
    (directory / f"{name}.blob").write_bytes(b"".join(data))
    entries = ({"name": tname, "shape": list(tensors[tname].shape),
                "dtype": STORE_DTYPE.str, "offset": offset}
               for tname, offset in zip(names, accumulate(map(len, data),
                                                          initial=0)))
    header = {"format": "tensor-store", "version": 1, "meta": meta}
    return write_jsonl(directory / f"{name}.json", chain([header], entries))


def _tensor_entry(entry, meta) -> tuple:
    name, dtype = entry["name"], entry["dtype"]
    offset, shape = entry["offset"], tuple(entry["shape"])
    if not isinstance(name, str):
        raise ValueError(f"name {name!r} is not a string")
    if dtype != STORE_DTYPE.str:
        raise ValueError(f"dtype {dtype!r} is not {STORE_DTYPE.str!r}")
    if any(type(d) is not int or d < 0 for d in shape):
        raise ValueError(f"shape {list(shape)} is not a list of "
                         "non-negative integers")
    return name, offset, shape


def read_tensor_manifest(manifest_path) -> tuple[dict, list[tuple]]:
    """A tensor store's meta and its ``(line, name, offset, shape)``
    entries, in manifest order; reads no blob bytes."""
    return read_manifest(Path(manifest_path), STORE,
                         lambda header: header.get("meta", {}), _tensor_entry)


def read_tensor_blob(manifest_path, entries) -> dict[str, np.ndarray]:
    """The float64 tensors of a store that ``read_tensor_manifest`` read."""
    manifest_path = Path(manifest_path)
    lines, names, offsets, shapes = zip(*entries) if entries else [()] * 4
    counts = list(map(math.prod, shapes))
    values = read_blob(manifest_path, STORE,
                       manifest_path.with_suffix(".blob").name, lines,
                       lambda i, _: f"tensor {names[i]!r}", offsets, counts,
                       STORE_DTYPE)
    stops = list(accumulate(counts, initial=0))
    return {name: values[start:stop].reshape(shape) for name, shape, start, stop
            in zip(names, shapes, stops, stops[1:])}
