"""Dense tensor container and the QTNS binary archive format.

All tensors are 32-bit floats in row-major (C) order. The archive layout is:

    magic "QTNS" | version u32 | entry count u32
    per entry: name length u32 | UTF-8 name | axis count u32 |
               dims u64 each | dtype code u32 (0 = f32) | raw LE f32 data

Everything on disk is little-endian, and nothing may follow the last entry.
"""

from __future__ import annotations

import io
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ArchiveError,
    BadMagicError,
    DuplicateNameError,
    ShapeError,
    TruncatedArchiveError,
    UnsupportedVersionError,
)

MAGIC = b"QTNS"
FORMAT_VERSION = 1
DTYPE_F32 = 0


@dataclass(frozen=True)
class DenseTensor:
    """Immutable dense tensor of 32-bit reals with shape metadata."""

    data: np.ndarray

    def __post_init__(self):
        arr = np.ascontiguousarray(self.data, dtype=np.float32)
        if arr.ndim == 0:
            raise ShapeError("tensor must have at least one axis")
        if any(d < 1 for d in arr.shape):
            raise ShapeError(f"all dimensions must be >= 1, got {arr.shape}")
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def reshape(self, shape) -> "DenseTensor":
        if int(np.prod(shape)) != self.size:
            raise ShapeError(f"cannot reshape {self.shape} to {tuple(shape)}")
        return DenseTensor(self.data.reshape(shape))

    def __eq__(self, other):
        if not isinstance(other, DenseTensor):
            return NotImplemented
        return self.shape == other.shape and np.array_equal(self.data, other.data)

    def __hash__(self):
        return hash((self.shape, self.data.tobytes()))


def flatten_conv(w: DenseTensor) -> DenseTensor:
    """Flatten a 4-axis conv tensor (C_out, C_in, H, W) to (C_out, C_in*H*W)."""
    if len(w.shape) != 4:
        raise ShapeError(f"flatten_conv needs a 4-axis tensor, got {len(w.shape)} axes")
    c_out = w.shape[0]
    return DenseTensor(w.data.reshape(c_out, -1))


@dataclass
class TensorArchive:
    """Ordered collection of uniquely named tensors."""

    entries: list[tuple[str, DenseTensor]] = field(default_factory=list)

    def __post_init__(self):
        # name -> position; a repeated name keeps its last position
        self._index = {n: i for i, (n, _) in enumerate(self.entries)}
        if len(self._index) != len(self.entries):
            dupes = sorted({n for i, (n, _) in enumerate(self.entries) if self._index[n] != i})
            raise DuplicateNameError(f"duplicate entry names: {dupes}")

    def names(self) -> list[str]:
        return [n for n, _ in self.entries]

    def get(self, name: str) -> DenseTensor:
        return self.entries[self._index[name]][1]

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __len__(self) -> int:
        return len(self.entries)


def write_archive(archive: TensorArchive) -> bytes:
    buf = io.BytesIO()
    buf.write(MAGIC)
    buf.write(struct.pack("<II", FORMAT_VERSION, len(archive.entries)))
    for name, tensor in archive.entries:
        encoded = name.encode("utf-8")
        buf.write(struct.pack("<I", len(encoded)))
        buf.write(encoded)
        buf.write(struct.pack("<I", len(tensor.shape)))
        for dim in tensor.shape:
            buf.write(struct.pack("<Q", dim))
        buf.write(struct.pack("<I", DTYPE_F32))
        buf.write(tensor.data.astype("<f4").tobytes(order="C"))
    return buf.getvalue()


class _Reader:
    def __init__(self, raw: bytes):
        self.raw = raw
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.raw):
            raise TruncatedArchiveError(
                f"need {n} bytes at offset {self.pos}, only {len(self.raw) - self.pos} left"
            )
        out = self.raw[self.pos : self.pos + n]
        self.pos += n
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]


def read_archive(raw: bytes) -> TensorArchive:
    r = _Reader(raw)
    if r.take(4) != MAGIC:
        raise BadMagicError("not a QTNS file")
    version = r.u32()
    if version != FORMAT_VERSION:
        raise UnsupportedVersionError(f"unsupported format version {version}")
    count = r.u32()
    entries: list[tuple[str, DenseTensor]] = []
    for _ in range(count):
        try:
            name = r.take(r.u32()).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ArchiveError(f"entry name is not valid UTF-8: {exc}") from exc
        ndim = r.u32()
        shape = tuple(r.u64() for _ in range(ndim))
        if any(d < 1 for d in shape):
            raise ArchiveError(f"entry {name!r} has invalid dimension in {shape}")
        dtype = r.u32()
        if dtype != DTYPE_F32:
            raise ArchiveError(f"entry {name!r} has unknown dtype code {dtype}")
        # Python ints: a dims product past 2**63 must not wrap before take checks it
        n_elems = math.prod(shape)
        data = np.frombuffer(r.take(4 * n_elems), dtype="<f4").reshape(shape)
        entries.append((name, DenseTensor(data)))
    if r.pos != len(raw):
        raise ArchiveError(f"{len(raw) - r.pos} bytes after the last entry")
    return TensorArchive(entries=entries)  # raises DuplicateNameError


def save_archive(archive: TensorArchive, path) -> None:
    with open(path, "wb") as f:
        f.write(write_archive(archive))


def load_archive(path) -> TensorArchive:
    with open(path, "rb") as f:
        return read_archive(f.read())
