"""Manifest + raw blob persistence.

The on-disk format of dataset files: a directory holding ``manifest.json``
plus a single ``data.bin`` in which every array occupies its own
little-endian blob region. The manifest records name, byte offset, shape,
and dtype for each region, so loading is a bitwise round trip and
truncation is detectable byte-for-byte.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .errors import DataFormatError
from .rules import MAPPING, SIZE, TEXT, Rule, decoding, load_json, one_of, read

_DTYPES = {"<f8": np.dtype("<f8"), "<i8": np.dtype("<i8")}

MANIFEST_NAME = "manifest.json"
BLOB_NAME = "data.bin"

# manifest key -> rule, and the same for each entry of its array catalog;
# every key is required, and a violation is a DataFormatError
MANIFEST_RULES = {
    "format": one_of(("seqcl-bundle-v1",)), "total_bytes": SIZE,
    "arrays": Rule("a list", lambda v: isinstance(v, list)), "header": MAPPING,
}
ENTRY_RULES = {
    "name": TEXT, "offset": SIZE,
    "shape": Rule("a list of ints >= 0", lambda v: isinstance(v, list) and all(
        SIZE.accepts(d) for d in v)),
    "dtype": one_of(tuple(_DTYPES)), "byte_length": SIZE,
}


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


def read_bundle(path, header_rules):
    """Load (header, arrays) from ``path``, every header key required and checked
    by ``header_rules``; malformed input raises DataFormatError."""
    path = Path(path)
    mpath = path / MANIFEST_NAME
    bpath = path / BLOB_NAME
    manifest = read(MANIFEST_RULES, load_json(mpath, DataFormatError), str(mpath),
                    MANIFEST_RULES, DataFormatError)
    header = read(header_rules, manifest["header"], f"{mpath}.header", header_rules,
                  DataFormatError)
    entries = [read(ENTRY_RULES, entry, f"{mpath}.arrays[{i}]", ENTRY_RULES, DataFormatError)
               for i, entry in enumerate(manifest["arrays"])]
    with decoding(bpath, DataFormatError):
        blob = bpath.read_bytes()
    if len(blob) != manifest["total_bytes"]:
        raise DataFormatError(
            f"blob truncated or padded: manifest expects {manifest['total_bytes']} bytes, "
            f"file has {len(blob)}"
        )
    arrays = {}
    for entry in entries:
        name, off, nbytes = entry["name"], entry["offset"], entry["byte_length"]
        shape = tuple(entry["shape"])
        dt = _DTYPES[entry["dtype"]]
        want = math.prod(shape) * dt.itemsize
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
    return header, arrays
