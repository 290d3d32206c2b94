"""Binary checkpoint format.

Layout (all integers little-endian):

    magic   4 bytes  b"MLRA"
    version u16
    hlen    u32      length of the UTF-8 header JSON
    header  hlen bytes (ranks, layer names, seed, config hash, free-form)
    count   u32      number of named tensors
    per tensor:
        nlen  u16, name (UTF-8, nlen bytes)
        rows  u32, cols u32
        data  rows*cols float64, row-major, little-endian

Round trips are bit-exact; every parse error reports the byte offset where
the file stopped making sense.
"""

from __future__ import annotations

import hashlib
import json
import struct

import numpy as np

from .errors import CheckpointError

MAGIC = b"MLRA"
VERSION = 1


def config_hash(config: dict) -> str:
    """SHA-256 of the canonical JSON encoding of a config mapping."""
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def save_checkpoint(path, header: dict, tensors: dict[str, np.ndarray]) -> None:
    blob = bytearray()
    blob += MAGIC
    blob += struct.pack("<H", VERSION)
    hdr = json.dumps(header, sort_keys=True).encode()
    blob += struct.pack("<I", len(hdr))
    blob += hdr
    blob += struct.pack("<I", len(tensors))
    for name in tensors:  # preserve caller order; loaders don't care
        arr = np.ascontiguousarray(tensors[name], dtype="<f8")
        if arr.ndim != 2:
            raise CheckpointError(f"tensor {name!r} is not 2-d")
        nb = name.encode()
        blob += struct.pack("<H", len(nb))
        blob += nb
        blob += struct.pack("<II", arr.shape[0], arr.shape[1])
        blob += arr.tobytes()
    with open(path, "wb") as fh:
        fh.write(bytes(blob))


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int, what: str) -> bytes:
        if self.pos + n > len(self.data):
            raise CheckpointError(f"truncated while reading {what}", offset=self.pos)
        chunk = self.data[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def u16(self, what: str) -> int:
        return struct.unpack("<H", self.take(2, what))[0]

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]


def load_checkpoint(path) -> tuple[dict, dict[str, np.ndarray]]:
    with open(path, "rb") as fh:
        data = fh.read()
    r = _Reader(data)
    magic = r.take(4, "magic")
    if magic != MAGIC:
        raise CheckpointError(f"bad magic {magic!r}, expected {MAGIC!r}", offset=0)
    version = r.u16("version")
    if version != VERSION:
        raise CheckpointError(f"unsupported version {version}", offset=4)
    hlen = r.u32("header length")
    hdr_start = r.pos
    try:
        header = json.loads(r.take(hlen, "header JSON").decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"malformed header JSON: {exc}", offset=hdr_start)
    if not isinstance(header, dict):
        raise CheckpointError(f"header JSON is a {type(header).__name__}, not an object",
                              offset=hdr_start)
    count = r.u32("tensor count")
    tensors: dict[str, np.ndarray] = {}
    for i in range(count):
        nlen = r.u16(f"tensor {i} name length")
        name_start = r.pos
        try:
            name = r.take(nlen, f"tensor {i} name").decode()
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"malformed tensor name: {exc}", offset=name_start)
        rows = r.u32(f"tensor {name!r} rows")
        cols = r.u32(f"tensor {name!r} cols")
        payload = r.take(rows * cols * 8, f"tensor {name!r} data")
        tensors[name] = np.frombuffer(payload, dtype="<f8").reshape(rows, cols).copy()
    if r.pos != len(data):
        raise CheckpointError(f"{len(data) - r.pos} trailing bytes", offset=r.pos)
    return header, tensors
