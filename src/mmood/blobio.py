"""One manifest-plus-blob container, shared by the corpus and checkpoint formats.

A container is a UTF-8 manifest of JSON lines -- line 1 a header object
whose ``format`` names the schema, then one object per entry -- plus
sidecar blob files of raw little-endian floats, row-major. Each entry owns
one chunk of each blob, and the layout is strict: every chunk starts where
the one before it in manifest order ends, every value is finite, and the
blob ends exactly where the last chunk ends. A schema (the corpus, the
tensor store below) checks only its own header and entry fields.
"""

from __future__ import annotations

import bisect
import json
import math
from dataclasses import dataclass
from itertools import accumulate, chain, groupby
from operator import mul, ne
from pathlib import Path

import numpy as np

from .errors import FormatError

DTYPES = {"<f4": 4, "<f8": 8}  # stored dtype -> bytes per value


@dataclass(frozen=True)
class Schema:
    """How one format is named in the container's errors."""

    module: str    # message prefix
    format: str    # the header's ``format`` value
    kind: str      # "<manifest> is not a <kind>"
    entry: str     # what one entry is ("record", "tensor")
    key: str       # the entry field that must be unique
    key_noun: str  # "duplicate <key_noun> <value>"


def array_to_bytes(arr: np.ndarray, dtype: str) -> bytes:
    if dtype not in DTYPES:
        raise FormatError(f"blobio: unsupported dtype {dtype!r}")
    return np.ascontiguousarray(arr).astype(dtype).tobytes()


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
    ``AttributeError``, ``KeyError``, ``TypeError`` or ``ValueError``."""
    mod = schema.module
    if not path.exists():
        raise FormatError(f"{mod}: manifest {path} does not exist")
    try:
        lines = path.read_bytes().decode("utf-8").splitlines()
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
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
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
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
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
              offsets: list[int], counts: list[int], dtypes: list[str]):
    """One blob's values, flat float64 in manifest order; entry i declares
    a chunk of ``counts[i]`` values of ``dtypes[i]`` at byte ``offsets[i]``,
    and ``label(i)`` names it in errors."""
    blob_path = path.parent / blob
    if not blob_path.exists():
        raise FormatError(f"{schema.module}: missing blob file {blob_path}")
    buf = blob_path.read_bytes()

    def at(i: int, last: str = "") -> str:
        return f"{schema.module}: {path} line {lines[i]}: {last}{label(i)}"

    starts = list(accumulate(map(mul, counts, map(DTYPES.get, dtypes)),
                             initial=0))
    stops = list(accumulate(counts, initial=0))
    moved = list(map(ne, offsets, starts))
    if any(moved):
        i = moved.index(True)
        raise FormatError(f"{at(i)} has offset {offsets[i]}; in manifest "
                          f"order it starts at {starts[i]}")
    end = starts[-1]
    if len(buf) >= end:  # a short blob has no values for its last chunks
        values, i = np.empty(stops[-1]), 0
        for dtype, run in groupby(dtypes):
            j = i + len(list(run))
            # a signalling NaN warns as it widens; the check below names it
            with np.errstate(invalid="ignore"):
                values[stops[i]:stops[j]] = np.frombuffer(
                    buf, dtype, stops[j] - stops[i], starts[i])
            i = j
        finite = np.isfinite(values)
        if not finite.all():
            i = bisect.bisect_right(stops, int(np.argmin(finite))) - 1
            raise FormatError(f"{at(i)} holds a non-finite value "
                              "(NaN or Inf)")
    if len(buf) != end:
        last = f"{at(len(lines) - 1, 'last ')}:" if lines \
            else f"{schema.module}: {path}"
        raise FormatError(f"{last} blob {blob} holds {len(buf)} bytes, but "
                          f"its {schema.entry}s take {end}")
    return values


# -- named-tensor store (checkpoints) -----------------------------------------

STORE = Schema(module="blobio", format="tensor-store", kind="tensor store",
               entry="tensor", key="name", key_noun="tensor")


def write_tensor_store(directory, name: str, tensors: dict[str, np.ndarray],
                       meta: dict, dtype: str = "<f8") -> Path:
    """Write named tensors as ``<name>.json`` + ``<name>.blob``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    names = sorted(tensors)
    data = [array_to_bytes(tensors[tname], dtype) for tname in names]
    (directory / f"{name}.blob").write_bytes(b"".join(data))
    entries = ({"name": tname, "shape": list(tensors[tname].shape),
                "dtype": dtype, "offset": offset}
               for tname, offset in zip(names, accumulate(map(len, data),
                                                          initial=0)))
    header = {"format": "tensor-store", "version": 1, "meta": meta}
    return write_jsonl(directory / f"{name}.json", chain([header], entries))


def _tensor_entry(entry, meta) -> tuple:
    name, dtype = entry["name"], entry["dtype"]
    offset, shape = int(entry["offset"]), tuple(entry["shape"])
    if not isinstance(name, str) or dtype not in DTYPES:
        raise ValueError(f"name {name!r} is not a string or dtype "
                         f"{dtype!r} is not one of {sorted(DTYPES)}")
    if any(type(d) is not int or d < 0 for d in shape):
        raise ValueError(f"shape {list(shape)} is not a list of "
                         "non-negative integers")
    return name, dtype, offset, shape


def read_tensor_manifest(manifest_path) -> tuple[dict, list[tuple]]:
    """A tensor store's meta and its ``(line, name, dtype, offset, shape)``
    entries, in manifest order; reads no blob bytes."""
    return read_manifest(Path(manifest_path), STORE,
                         lambda header: header.get("meta", {}), _tensor_entry)


def read_tensor_blob(manifest_path, entries) -> dict[str, np.ndarray]:
    """The tensors of a store whose manifest ``read_tensor_manifest`` read."""
    manifest_path = Path(manifest_path)
    lines, names, dtypes, offsets, shapes = zip(*entries) if entries else [()] * 5
    counts = list(map(math.prod, shapes))
    values = read_blob(manifest_path, STORE,
                       manifest_path.with_suffix(".blob").name, lines,
                       lambda i: f"tensor {names[i]!r}", offsets, counts, dtypes)
    stops = list(accumulate(counts, initial=0))
    return {name: values[start:stop].reshape(shape) for name, shape, start, stop
            in zip(names, shapes, stops, stops[1:])}


def read_tensor_store(manifest_path) -> tuple[dict, dict[str, np.ndarray]]:
    """Load every tensor of a store with the container's strict layout."""
    meta, entries = read_tensor_manifest(manifest_path)
    return meta, read_tensor_blob(manifest_path, entries)
