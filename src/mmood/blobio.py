"""Raw float blob helpers shared by the corpus and checkpoint formats.

Convention: a UTF-8, line-delimited JSON manifest describes named tensors
(or records) with byte offsets into sidecar blob files holding raw
little-endian floats, row-major, concatenated in manifest order.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .errors import FormatError

DTYPES = {"<f4": np.dtype("<f4"), "<f8": np.dtype("<f8")}


def array_to_bytes(arr: np.ndarray, dtype: str) -> bytes:
    if dtype not in DTYPES:
        raise FormatError(f"blobio: unsupported dtype {dtype!r}")
    return np.ascontiguousarray(arr).astype(DTYPES[dtype]).tobytes()


def write_tensor_store(directory, name: str, tensors: dict[str, np.ndarray],
                       meta: dict, dtype: str = "<f8") -> Path:
    """Write named tensors as ``<name>.json`` + ``<name>.blob``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    blob_path = directory / f"{name}.blob"
    manifest_path = directory / f"{name}.json"
    entries = []
    offset = 0
    with open(blob_path, "wb") as blob:
        for tname in sorted(tensors):
            data = array_to_bytes(tensors[tname], dtype)
            blob.write(data)
            entries.append({
                "name": tname,
                "shape": list(tensors[tname].shape),
                "dtype": dtype,
                "offset": offset,
            })
            offset += len(data)
    header = {"format": "tensor-store", "version": 1, "meta": meta}
    with open(manifest_path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for entry in entries:
            fh.write(json.dumps(entry, sort_keys=True) + "\n")
    return manifest_path


def read_tensor_manifest(manifest_path) -> tuple[dict, list[tuple]]:
    """A tensor store's meta and its ``(line, name, dtype, offset, shape)``
    entries, in manifest order; checks the manifest, reads no blob bytes."""
    manifest_path = Path(manifest_path)
    if not manifest_path.exists():
        raise FormatError(f"blobio: manifest {manifest_path} does not exist")
    lines = manifest_path.read_text(encoding="utf-8").splitlines()
    if not lines:
        raise FormatError(f"blobio: manifest {manifest_path} is empty")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise FormatError(f"blobio: bad manifest header in {manifest_path}") from exc
    if not isinstance(header, dict) or header.get("format") != "tensor-store":
        raise FormatError(f"blobio: {manifest_path} is not a tensor store")
    entries, seen = [], set()
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            entry = json.loads(line)
            name, dtype = entry["name"], entry["dtype"]
            offset, shape = int(entry["offset"]), tuple(entry["shape"])
            if not isinstance(name, str) or dtype not in DTYPES:
                raise ValueError(f"name {name!r} is not a string or dtype "
                                 f"{dtype!r} is not one of {sorted(DTYPES)}")
            if any(type(d) is not int or d < 0 for d in shape):
                raise ValueError(f"shape {list(shape)} is not a list of "
                                 "non-negative integers")
            duplicate = name in seen
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(
                f"blobio: {manifest_path} line {lineno}: malformed tensor "
                f"entry ({type(exc).__name__}: {exc})"
            ) from exc
        if duplicate:
            raise FormatError(f"blobio: {manifest_path} line {lineno}: "
                              f"duplicate tensor {name!r}")
        seen.add(name)
        entries.append((lineno, name, dtype, offset, shape))
    return header.get("meta", {}), entries


def read_tensor_store(manifest_path) -> tuple[dict, dict[str, np.ndarray]]:
    """Load every tensor of a store, with the strict layout of
    ``write_tensor_store``: each tensor starts where the one before it in
    manifest order ends, the blob holds exactly those bytes, and every
    value is finite."""
    meta, entries = read_tensor_manifest(manifest_path)
    blob_path = Path(manifest_path).with_suffix(".blob")
    if not blob_path.exists():
        raise FormatError(f"blobio: missing blob file {blob_path}")
    buf = blob_path.read_bytes()
    tensors = {}
    end = 0  # bytes taken by the entries read so far
    for lineno, name, dtype, offset, shape in entries:
        where = f"{manifest_path} line {lineno}: tensor {name!r}"
        if offset != end:
            raise FormatError(f"blobio: {where} has offset {offset}; in "
                              f"manifest order it starts at {end}")
        count = math.prod(shape)
        end += count * DTYPES[dtype].itemsize
        if end > len(buf):
            raise FormatError(f"blobio: {where} ends at byte {end}, past the "
                              f"{len(buf)}-byte blob {blob_path.name}")
        value = np.frombuffer(buf, DTYPES[dtype], count, offset)
        if not np.isfinite(value).all():
            raise FormatError(f"blobio: {where} holds a non-finite value "
                              "(NaN or Inf)")
        tensors[name] = value.astype(np.float64).reshape(shape)
    if len(buf) != end:
        last = f" line {lineno}: last tensor {name!r}:" if entries else ""
        raise FormatError(
            f"blobio: {manifest_path}{last} blob {blob_path.name} holds "
            f"{len(buf)} bytes, but its tensors take {end}")
    return meta, tensors
