"""Manifest + raw blob persistence.

The on-disk format of dataset files: a directory holding ``manifest.json``
plus a single ``data.bin`` in which every array occupies its own
little-endian blob region. The manifest records name, byte offset, shape,
and dtype for each region, so loading is a bitwise round trip and
truncation is detectable byte-for-byte.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import DataFormatError

_DTYPES = {"<f8": np.dtype("<f8"), "<i8": np.dtype("<i8")}

MANIFEST_NAME = "manifest.json"
BLOB_NAME = "data.bin"


def _canonical_dtype(arr: np.ndarray) -> str:
    if np.issubdtype(arr.dtype, np.floating):
        return "<f8"
    if np.issubdtype(arr.dtype, np.integer) or arr.dtype == np.bool_:
        return "<i8"
    raise DataFormatError(f"unsupported dtype {arr.dtype} for blob storage")


def write_bundle(path, header: dict, arrays: dict) -> None:
    """Write arrays plus a JSON-serialisable header under ``path``."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    entries = []
    offset = 0
    chunks = []
    for name, arr in arrays.items():
        arr = np.asarray(arr)
        code = _canonical_dtype(arr)
        blob = np.ascontiguousarray(arr, dtype=_DTYPES[code]).tobytes()
        entries.append(
            {
                "name": str(name),
                "offset": offset,
                "shape": list(arr.shape),
                "dtype": code,
                "byte_length": len(blob),
            }
        )
        chunks.append(blob)
        offset += len(blob)
    manifest = {
        "format": "seqcl-bundle-v1",
        "total_bytes": offset,
        "arrays": entries,
        "header": header,
    }
    (path / BLOB_NAME).write_bytes(b"".join(chunks))
    (path / MANIFEST_NAME).write_text(json.dumps(manifest, indent=1, sort_keys=True))


def read_bundle(path):
    """Load (header, arrays) from ``path``; malformed input raises
    DataFormatError naming expected vs actual byte counts."""
    path = Path(path)
    mpath = path / MANIFEST_NAME
    bpath = path / BLOB_NAME
    if not mpath.exists():
        raise DataFormatError(f"no {MANIFEST_NAME} under {path}")
    try:
        manifest = json.loads(mpath.read_text())
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"manifest is not valid JSON: {exc}") from exc
    if manifest.get("format") != "seqcl-bundle-v1":
        raise DataFormatError(f"unrecognised bundle format {manifest.get('format')!r}")
    if not bpath.exists():
        raise DataFormatError(f"no {BLOB_NAME} under {path}")
    blob = bpath.read_bytes()
    expected_total = int(manifest.get("total_bytes", -1))
    if len(blob) != expected_total:
        raise DataFormatError(
            f"blob truncated or padded: manifest expects {expected_total} bytes, "
            f"file has {len(blob)}"
        )
    arrays = {}
    for entry in manifest["arrays"]:
        name = entry["name"]
        off = int(entry["offset"])
        shape = tuple(int(d) for d in entry["shape"])
        code = entry["dtype"]
        if code not in _DTYPES:
            raise DataFormatError(f"array {name!r} has unsupported dtype {code!r}")
        dt = _DTYPES[code]
        nbytes = int(entry["byte_length"])
        want = int(np.prod(shape)) * dt.itemsize if shape else dt.itemsize
        if shape == ():
            want = dt.itemsize
        if nbytes != want:
            raise DataFormatError(
                f"array {name!r}: shape {shape} requires {want} bytes, "
                f"manifest declares {nbytes}"
            )
        if off + nbytes > len(blob):
            raise DataFormatError(
                f"array {name!r}: region [{off}, {off + nbytes}) exceeds blob of "
                f"{len(blob)} bytes"
            )
        arrays[name] = np.frombuffer(blob[off : off + nbytes], dtype=dt).reshape(shape).copy()
    return manifest["header"], arrays
