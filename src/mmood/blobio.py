"""Raw float blob helpers shared by the corpus and checkpoint formats.

Convention: a UTF-8, line-delimited JSON manifest describes named tensors
(or records) with byte offsets into sidecar blob files holding raw
little-endian floats, row-major, concatenated in manifest order.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import FormatError

DTYPES = {"<f4": np.dtype("<f4"), "<f8": np.dtype("<f8")}


def array_to_bytes(arr: np.ndarray, dtype: str) -> bytes:
    if dtype not in DTYPES:
        raise FormatError(f"blobio: unsupported dtype {dtype!r}")
    return np.ascontiguousarray(arr).astype(DTYPES[dtype]).tobytes()


def array_from_bytes(buf: bytes, offset: int, shape: tuple[int, ...],
                     dtype: str, context: str) -> np.ndarray:
    if dtype not in DTYPES:
        raise FormatError(f"blobio: unsupported dtype {dtype!r} ({context})")
    dt = DTYPES[dtype]
    nbytes = int(np.prod(shape)) * dt.itemsize
    if offset < 0 or offset + nbytes > len(buf):
        raise FormatError(
            f"blobio: byte range [{offset}, {offset + nbytes}) outside blob "
            f"of {len(buf)} bytes ({context})"
        )
    flat = np.frombuffer(buf, dtype=dt, count=int(np.prod(shape)), offset=offset)
    return flat.astype(np.float64).reshape(shape)


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


def read_tensor_store(manifest_path) -> tuple[dict, dict[str, np.ndarray]]:
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
    blob_path = manifest_path.with_suffix(".blob")
    if not blob_path.exists():
        raise FormatError(f"blobio: missing blob file {blob_path}")
    buf = blob_path.read_bytes()
    tensors = {}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            entry = json.loads(line)
            name, dtype = entry["name"], entry["dtype"]
            offset, shape = int(entry["offset"]), tuple(entry["shape"])
            duplicate = name in tensors
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(
                f"blobio: {manifest_path} line {lineno}: malformed tensor "
                f"entry ({type(exc).__name__}: {exc})"
            ) from exc
        if duplicate:
            raise FormatError(f"blobio: {manifest_path} line {lineno}: "
                              f"duplicate tensor {name!r}")
        tensors[name] = array_from_bytes(buf, offset, shape, dtype,
                                         context=f"tensor {name!r}")
    return header.get("meta", {}), tensors
