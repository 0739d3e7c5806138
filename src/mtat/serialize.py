"""Binary containers for tensors and checkpoints.

Single-tensor layout (little-endian throughout):

    magic  b"MTAT"
    rank   u32
    extent u64 * rank
    data   f64 * prod(extents), C order

A checkpoint is b"MTCK", a u32 entry count, then per entry a u32 name
length, the UTF-8 name, and an embedded single-tensor record. Entries
are written in sorted name order so equal checkpoints are equal bytes.
"""

import struct

import numpy as np

from .errors import ConfigError
from .tensor import Tensor
from .util import write_bytes_atomic

TENSOR_MAGIC = b"MTAT"
CHECKPOINT_MAGIC = b"MTCK"
_MAX_RANK = 32


def tensor_to_bytes(t):
    arr = np.ascontiguousarray(t.data, dtype="<f8")
    header = TENSOR_MAGIC + struct.pack("<I", arr.ndim)
    header += struct.pack(f"<{arr.ndim}Q", *arr.shape) if arr.ndim else b""
    return header + arr.tobytes()


class _Reader:
    def __init__(self, blob, what):
        self.blob = blob
        self.pos = 0
        self.what = what

    def take(self, n):
        if self.pos + n > len(self.blob):
            raise ConfigError(f"truncated {self.what}: needed {n} bytes at offset {self.pos}")
        piece = self.blob[self.pos : self.pos + n]
        self.pos += n
        return piece

    def u32(self):
        return struct.unpack("<I", self.take(4))[0]

    def u64(self):
        return struct.unpack("<Q", self.take(8))[0]

    def done(self):
        if self.pos != len(self.blob):
            raise ConfigError(f"{self.what} has {len(self.blob) - self.pos} trailing bytes")


def _read_tensor(reader):
    magic = reader.take(4)
    if magic != TENSOR_MAGIC:
        raise ConfigError(f"bad tensor magic {magic!r}, expected {TENSOR_MAGIC!r}")
    rank = reader.u32()
    if rank > _MAX_RANK:
        raise ConfigError(f"tensor rank {rank} exceeds limit {_MAX_RANK}")
    shape = tuple(reader.u64() for _ in range(rank))
    count = 1
    for extent in shape:
        count *= extent
    raw = reader.take(8 * count)
    data = np.frombuffer(raw, dtype="<f8").reshape(shape)
    return Tensor(data.astype(np.float64))


def tensor_from_bytes(blob):
    reader = _Reader(blob, "tensor record")
    out = _read_tensor(reader)
    reader.done()
    return out


def save_tensor(path, t):
    write_bytes_atomic(path, tensor_to_bytes(t))


def load_tensor(path):
    with open(path, "rb") as handle:
        return tensor_from_bytes(handle.read())


def checkpoint_to_bytes(tensors):
    names = sorted(tensors)
    pieces = [CHECKPOINT_MAGIC, struct.pack("<I", len(names))]
    for name in names:
        encoded = name.encode("utf-8")
        pieces.append(struct.pack("<I", len(encoded)))
        pieces.append(encoded)
        pieces.append(tensor_to_bytes(tensors[name]))
    return b"".join(pieces)


def checkpoint_from_bytes(blob):
    reader = _Reader(blob, "checkpoint")
    magic = reader.take(4)
    if magic != CHECKPOINT_MAGIC:
        raise ConfigError(f"bad checkpoint magic {magic!r}, expected {CHECKPOINT_MAGIC!r}")
    count = reader.u32()
    tensors = {}
    for _ in range(count):
        name_len = reader.u32()
        name = reader.take(name_len).decode("utf-8")
        if name in tensors:
            raise ConfigError(f"duplicate checkpoint entry {name!r}")
        tensors[name] = _read_tensor(reader)
    reader.done()
    return tensors


def save_checkpoint(path, tensors):
    write_bytes_atomic(path, checkpoint_to_bytes(tensors))


def load_checkpoint(path):
    with open(path, "rb") as handle:
        return checkpoint_from_bytes(handle.read())
