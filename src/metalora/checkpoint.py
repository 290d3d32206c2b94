"""Binary checkpoint format.

Layout (all integers little-endian):

    magic   4 bytes  b"MLRA"
    version u16
    hlen    u32      length of the UTF-8 header JSON
    header  hlen bytes (kind, ranks, tensor checksums, seed, config hash, ...)
    count   u32      number of named tensors
    per tensor:
        nlen  u16, name (UTF-8, nlen bytes)
        rows  u32, cols u32
        data  rows*cols float64, row-major, little-endian

Round trips are bit-exact; every parse error reports the byte offset where
the file stopped making sense. Writes are atomic: a reader sees the previous
file or the complete new one, never a part.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import struct

import numpy as np

from .errors import CheckpointError
from .numerics import checksum

MAGIC = b"MLRA"
VERSION = 1

# the pipeline's files: kind -> (each tensor family's shape, int header fields).
# Only save_layers and load_layers name the tensors: family.N for adapted layer
# N. A shape names the int header field that each dimension must equal; None
# is a dimension that the model sets.
KINDS: dict[str, tuple[dict[str, tuple], tuple[str, ...]]] = {
    "base": ({"w0": (None, None)}, ()),
    "stage1": ({"lmd": ("r1", None)}, ("r1",)),
    "personalized": ({"lmd": ("r1", None), "lm": ("r2", "r1"), "lu": (None, "r2")},
                     ("r1", "r2", "identity")),
    "merged": ({"down": ("r2", None), "up": (None, "r2")}, ("r2", "identity")),
}


def config_hash(config: dict) -> str:
    """SHA-256 of the canonical JSON encoding of a config mapping."""
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def save_checkpoint(path, header: dict, tensors: dict[str, np.ndarray]) -> None:
    """Write each part through :func:`atomic_open` as it is encoded."""
    hdr = json.dumps(header, sort_keys=True).encode()
    with atomic_open(path) as fh:
        fh.write(MAGIC + struct.pack("<HI", VERSION, len(hdr)) + hdr
                 + struct.pack("<I", len(tensors)))
        for name in tensors:  # preserve caller order; loaders don't care
            arr = np.ascontiguousarray(tensors[name], dtype="<f8")
            if arr.ndim != 2:
                raise CheckpointError(f"tensor {name!r} is not 2-d")
            nb = name.encode()
            fh.write(struct.pack("<H", len(nb)) + nb + struct.pack("<II", *arr.shape))
            fh.write(arr.data)


@contextlib.contextmanager
def atomic_open(path, mode: str = "wb", **kwargs):
    """``open(path, mode, **kwargs)`` such that a reader sees the previous file or
    the whole new one, never a part: writes go to a synced temporary file that
    ``os.replace`` renames over ``path`` as the block ends, or that a failure removes."""
    # next to the target, so that os.replace renames within one file system
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_atomic(path, data: bytes) -> None:
    """Write ``data`` to ``path`` through :func:`atomic_open`."""
    with atomic_open(path) as fh:
        fh.write(data)


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
        tensor_start = r.pos
        nlen = r.u16(f"tensor {i} name length")
        name_start = r.pos
        try:
            name = r.take(nlen, f"tensor {i} name").decode()
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"malformed tensor name: {exc}", offset=name_start)
        if name in tensors:
            raise CheckpointError(f"duplicate tensor name {name!r}", offset=tensor_start)
        rows = r.u32(f"tensor {name!r} rows")
        cols = r.u32(f"tensor {name!r} cols")
        payload = r.take(rows * cols * 8, f"tensor {name!r} data")
        tensors[name] = np.frombuffer(payload, dtype="<f8").reshape(rows, cols).copy()
    if r.pos != len(data):
        raise CheckpointError(f"{len(data) - r.pos} trailing bytes", offset=r.pos)
    return header, tensors


def save_layers(path, kind: str, header: dict, layers: dict[str, list[np.ndarray]]) -> None:
    """Write a ``kind`` checkpoint, layer by layer in the family order of
    ``KINDS``, with each tensor's checksum in the header's ``checksums``."""
    n_layers = len(next(iter(layers.values())))
    tensors = {f"{family}.{li}": layers[family][li]
               for li in range(n_layers) for family in KINDS[kind][0]}
    save_checkpoint(path, {**header, "kind": kind, "checksums": {
        name: checksum(arr) for name, arr in tensors.items()}}, tensors)


def load_layers(path, kind: str) -> tuple[dict, dict[str, list[np.ndarray]]]:
    """A ``kind`` checkpoint's header and each family's tensors by layer. Refuses
    another kind, an int header field of another type, tensors other than
    ``family.N`` for each family and layer 0 … L−1 (L ≥ 1), a tensor whose
    bytes do not match its recorded checksum, non-finite data, and a shape
    that does not match the header's rank fields."""
    header, tensors = load_checkpoint(path)
    if header.get("kind") != kind:
        raise CheckpointError(f"not a {kind} checkpoint (kind={header.get('kind')!r})")
    families, fields = KINDS[kind]
    for key in fields:
        if type(value := header.get(key)) is not int:  # type, not isinstance: True is no int
            raise CheckpointError(f"{kind} header field {key} is {value!r} of type "
                                  f"{type(value).__name__}, not an int")
    n_layers = -(-len(tensors) // len(families))  # the only L that len(tensors) can fill
    if not n_layers:
        raise CheckpointError(f"{kind} checkpoint has no adapter layers")
    if tensors.keys() != {f"{family}.{li}" for li in range(n_layers) for family in families}:
        raise CheckpointError(f"{kind} checkpoint tensors {sorted(tensors)} are not "
                              f"{', '.join(f + '.N' for f in families)} for N = 0..L-1")
    sums = header.get("checksums")
    if type(sums) is not dict or sums.keys() != tensors.keys():
        raise CheckpointError(f"{kind} checkpoint's checksums field is missing or is not "
                              f"a map from each tensor's name to its checksum")
    for name, arr in tensors.items():
        if sums[name] != checksum(arr):
            raise CheckpointError(f"{kind} checkpoint tensor {name!r} does not match "
                                  f"its recorded checksum")
        if not np.isfinite(arr).all():
            raise CheckpointError(f"{kind} checkpoint tensor {name!r} is not finite")
        want = tuple(header[dim] if dim else n for dim, n in
                     zip(families[name.partition(".")[0]], arr.shape))
        if arr.shape != want:
            raise CheckpointError(f"{kind} checkpoint tensor {name!r} has shape {arr.shape}, "
                                  f"not {want} as the header's rank fields give")
    return header, {f: [tensors[f"{f}.{li}"] for li in range(n_layers)] for f in families}
