"""Tensor containers and the QTNS binary archive format.

An archive entry is a DenseTensor (32-bit floats) or a BitTensor (bits, held
as bool), in row-major (C) order. The archive layout is:

    magic "QTNS" | version u32 | entry count u32
    per entry: name length u32 | UTF-8 name | axis count u32 |
               dims u64 each | dtype code u32 | payload

The dtype code says how the n elements that the dims give are stored:

    0 = f32   4n bytes, little-endian IEEE 754 floats
    1 = bits  ceil(n/8) bytes, np.packbits(..., bitorder="little"): element i
              is bit i % 8 of byte i // 8; the padding bits of the last byte
              must be 0, so a bit tensor has exactly one encoding

Version 2 adds code 1; version 1 has only code 0. write_archive writes
version 1 whenever no entry is bit-coded, so an archive of f32 tensors has the
bytes it had before version 2. read_archive reads both, and rejects a
bit-coded entry in a version-1 file and a version-2 file with no bit-coded
entry, so every archive has one encoding. Everything on disk is
little-endian, and nothing may follow the last entry.
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
FORMAT_VERSION = 2
DTYPE_F32 = 0
DTYPE_BITS = 1  # from version 2


@dataclass(frozen=True)
class DenseTensor:
    """Immutable dense tensor of 32-bit reals with shape metadata."""

    data: np.ndarray

    def __post_init__(self):
        if np.ndim(self.data) == 0:  # ascontiguousarray would make it shape (1,)
            raise ShapeError("tensor must have at least one axis")
        arr = np.ascontiguousarray(self.data, dtype=np.float32)
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

    @property
    def nbytes(self) -> int:
        """Payload bytes in an archive."""
        return 4 * self.size


@dataclass(frozen=True, eq=False)
class BitTensor:
    """Immutable tensor of bits, held as bool; an archive stores it bit-packed.
    A non-bool input must hold only 0 and 1."""

    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data)
        if arr.ndim == 0 or any(d < 1 for d in arr.shape):
            raise ShapeError(f"a bit tensor needs axes all >= 1, got shape {arr.shape}")
        if arr.dtype != bool and not np.all((arr == 0) | (arr == 1)):
            raise ValueError("bit tensor values must be 0 or 1")
        arr = arr.astype(bool)  # a copy, so freezing it leaves the caller's array alone
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def nbytes(self) -> int:
        """Payload bytes in an archive."""
        return (self.size + 7) // 8

    def __eq__(self, other):
        if not isinstance(other, BitTensor):
            return NotImplemented
        return self.shape == other.shape and np.array_equal(self.data, other.data)


Tensor = DenseTensor | BitTensor


def as_matrix(a: np.ndarray) -> np.ndarray:
    """A layer's m x n view, the matrix every stage works on: a 2-axis array
    as it is, a 4-axis conv array (C_out, C_in, H, W) as (C_out, C_in*H*W)."""
    if a.ndim not in (2, 4):
        raise ShapeError(f"a layer has 2 or 4 axes, got {a.ndim}")
    return a.reshape(a.shape[0], -1)


@dataclass
class TensorArchive:
    """Ordered collection of uniquely named tensors."""

    entries: list[tuple[str, Tensor]] = field(default_factory=list)

    def __post_init__(self):
        # name -> position; a repeated name keeps its last position
        self._index = {n: i for i, (n, _) in enumerate(self.entries)}
        if len(self._index) != len(self.entries):
            dupes = sorted({n for i, (n, _) in enumerate(self.entries) if self._index[n] != i})
            raise DuplicateNameError(f"duplicate entry names: {dupes}")

    def names(self) -> list[str]:
        return [n for n, _ in self.entries]

    def get(self, name: str) -> Tensor:
        return self.entries[self._index[name]][1]

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __len__(self) -> int:
        return len(self.entries)


def _version(entries: list[tuple[str, Tensor]]) -> int:
    """The one version an archive of these entries has: 2 if an entry is a
    BitTensor, else 1."""
    return FORMAT_VERSION if any(isinstance(t, BitTensor) for _, t in entries) else 1


def _write(archive: TensorArchive, f) -> None:
    """Write the archive to the binary file f, entry by entry, in the version
    _version gives."""
    f.write(MAGIC)
    f.write(struct.pack("<II", _version(archive.entries), len(archive.entries)))
    for name, tensor in archive.entries:
        encoded = name.encode("utf-8")
        f.write(struct.pack("<I", len(encoded)))
        f.write(encoded)
        f.write(struct.pack("<I", len(tensor.shape)))
        for dim in tensor.shape:
            f.write(struct.pack("<Q", dim))
        if isinstance(tensor, BitTensor):
            f.write(struct.pack("<I", DTYPE_BITS))
            f.write(np.packbits(tensor.data, axis=None, bitorder="little"))
        else:
            f.write(struct.pack("<I", DTYPE_F32))
            # the C-contiguous array itself where f32 is already little-endian
            f.write(tensor.data.astype("<f4", copy=False))


def write_archive(archive: TensorArchive) -> bytes:
    """The archive's bytes, in the version _version gives."""
    buf = io.BytesIO()
    _write(archive, buf)
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
    if not 1 <= version <= FORMAT_VERSION:
        raise UnsupportedVersionError(f"unsupported format version {version}")
    count = r.u32()
    entries: list[tuple[str, Tensor]] = []
    for _ in range(count):
        try:
            name = r.take(r.u32()).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ArchiveError(f"entry name is not valid UTF-8: {exc}") from exc
        ndim = r.u32()
        shape = tuple(r.u64() for _ in range(ndim))
        if not shape or min(shape) < 1:
            raise ArchiveError(f"entry {name!r} has no axes or a dimension < 1: {shape}")
        dtype = r.u32()
        # Python ints: a dims product past 2**63 must not wrap before take checks it
        n_elems = math.prod(shape)
        if dtype == DTYPE_F32:
            data = np.frombuffer(r.take(4 * n_elems), dtype="<f4").reshape(shape)
            entries.append((name, DenseTensor(data)))
        elif dtype == DTYPE_BITS and version >= 2:
            packed = np.frombuffer(r.take((n_elems + 7) // 8), dtype=np.uint8)
            if n_elems % 8 and int(packed[-1]) >> n_elems % 8:
                raise ArchiveError(f"entry {name!r} has nonzero padding bits")
            data = np.unpackbits(packed, count=n_elems, bitorder="little").view(bool)
            entries.append((name, BitTensor(data.reshape(shape))))
        elif dtype == DTYPE_BITS:
            raise ArchiveError(f"entry {name!r} is bit-coded in a version-{version} file")
        else:
            raise ArchiveError(f"entry {name!r} has unknown dtype code {dtype}")
    if r.pos != len(raw):
        raise ArchiveError(f"{len(raw) - r.pos} bytes after the last entry")
    if version != _version(entries):  # a bit entry in version 1 failed above
        raise ArchiveError(
            f"version-{version} file has no bit-coded entry; it must be version {_version(entries)}"
        )
    return TensorArchive(entries=entries)  # raises DuplicateNameError


def save_archive(archive: TensorArchive, path) -> None:
    with open(path, "wb") as f:
        _write(archive, f)


def load_archive(path) -> TensorArchive:
    with open(path, "rb") as f:
        return read_archive(f.read())
