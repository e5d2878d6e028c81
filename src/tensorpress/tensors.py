"""Tensor containers and the QTNS binary archive format.

An archive entry is a Tensor, in row-major (C) order. The archive layout is:

    magic "QTNS" | version u32 | entry count u32
    per entry: name length u32 | UTF-8 name | axis count u32 |
               dims u64 each | dtype code u32 | payload

The dtype code says how the n elements that the dims give are stored. Each
code is one Tensor subclass, which holds the code, the first format version
that has it, the payload size and the codec; DTYPES maps code to class:

    0 = f32   DenseTensor, from version 1: 4n bytes, little-endian IEEE 754
    1 = bits  BitTensor, from version 2: ceil(n/8) bytes,
              np.packbits(..., bitorder="little"): element i is bit i % 8 of
              byte i // 8; the padding bits of the last byte must be 0, so a
              bit tensor has exactly one encoding

An archive's version is the highest first version among its entries, or 1
when it has none, so an archive of f32 tensors has the bytes it had before
version 2. read_archive reads every version up to FORMAT_VERSION, and rejects
an entry whose code is newer than the file and a file newer than its entries,
so every archive has one encoding. Everything on disk is little-endian, and
nothing may follow the last entry.
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


@dataclass(frozen=True, eq=False)
class Tensor:
    """An immutable array stored under one dtype code. Each subclass is one
    code, and holds:

        code                          the dtype code
        first_version                 the first format version that has it
        label                         its dtype in inspect's listing
        coded                         what reader messages call its entries
        payload_bytes(n)              the payload bytes of n elements
        encode()                      the payload
        decode(payload, shape, name)  the tensor back; ArchiveError naming the
                                      entry on a payload nothing encodes to
    """

    data: np.ndarray

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def nbytes(self) -> int:
        """Payload bytes in an archive."""
        return self.payload_bytes(self.size)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.shape == other.shape and np.array_equal(self.data, other.data)


@dataclass(frozen=True, eq=False)
class DenseTensor(Tensor):
    """Immutable dense tensor of 32-bit reals with shape metadata.

    A C-contiguous float32 array is kept as it is, without a copy, and frozen:
    the caller's array becomes read-only. Any other input is copied to one,
    and the caller's array stays writable."""

    code, first_version, label, coded = 0, 1, "f32", "f32"

    def __post_init__(self):
        if np.ndim(self.data) == 0:  # ascontiguousarray would make it shape (1,)
            raise ShapeError("tensor must have at least one axis")
        arr = np.ascontiguousarray(self.data, dtype=np.float32)
        if any(d < 1 for d in arr.shape):
            raise ShapeError(f"all dimensions must be >= 1, got {arr.shape}")
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)

    def reshape(self, shape) -> "DenseTensor":
        if int(np.prod(shape)) != self.size:
            raise ShapeError(f"cannot reshape {self.shape} to {tuple(shape)}")
        return DenseTensor(self.data.reshape(shape))

    @staticmethod
    def payload_bytes(n: int) -> int:
        return 4 * n

    def encode(self) -> np.ndarray:
        # the C-contiguous array itself where f32 is already little-endian
        return self.data.astype("<f4", copy=False)

    @classmethod
    def decode(cls, payload: bytes, shape: tuple[int, ...], name: str) -> "DenseTensor":
        return cls(np.frombuffer(payload, dtype="<f4").reshape(shape))


@dataclass(frozen=True, eq=False)
class BitTensor(Tensor):
    """Immutable tensor of bits, held as bool; an archive stores it bit-packed.
    A non-bool input must hold only 0 and 1. The input is always copied, so
    the caller's array stays writable."""

    code, first_version, label, coded = 1, 2, "bits", "bit-coded"

    def __post_init__(self):
        arr = np.asarray(self.data)
        if arr.ndim == 0 or any(d < 1 for d in arr.shape):
            raise ShapeError(f"a bit tensor needs axes all >= 1, got shape {arr.shape}")
        if arr.dtype != bool and not np.all((arr == 0) | (arr == 1)):
            raise ValueError("bit tensor values must be 0 or 1")
        arr = arr.astype(bool)  # a copy, so freezing it leaves the caller's array alone
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)

    @staticmethod
    def payload_bytes(n: int) -> int:
        return (n + 7) // 8

    def encode(self) -> np.ndarray:
        return np.packbits(self.data, axis=None, bitorder="little")

    @classmethod
    def decode(cls, payload: bytes, shape: tuple[int, ...], name: str) -> "BitTensor":
        n = math.prod(shape)
        packed = np.frombuffer(payload, dtype=np.uint8)
        if n % 8 and int(packed[-1]) >> n % 8:
            raise ArchiveError(f"entry {name!r} has nonzero padding bits")
        return cls(np.unpackbits(packed, count=n, bitorder="little").view(bool).reshape(shape))


DTYPES = {cls.code: cls for cls in (DenseTensor, BitTensor)}
FORMAT_VERSION = max(cls.first_version for cls in DTYPES.values())


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
    """The one version an archive of these entries has: the highest first
    version among their dtypes, or 1 when there are none."""
    return max((t.first_version for _, t in entries), default=1)


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
        f.write(struct.pack("<I", tensor.code))
        f.write(tensor.encode())


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
        code = r.u32()
        if code not in DTYPES:
            raise ArchiveError(f"entry {name!r} has unknown dtype code {code}")
        cls = DTYPES[code]
        if cls.first_version > version:
            raise ArchiveError(f"entry {name!r} is {cls.coded} in a version-{version} file")
        # Python ints: a dims product past 2**63 must not wrap before take checks it
        payload = r.take(cls.payload_bytes(math.prod(shape)))
        entries.append((name, cls.decode(payload, shape, name)))
    if r.pos != len(raw):
        raise ArchiveError(f"{len(raw) - r.pos} bytes after the last entry")
    need = _version(entries)
    if version != need:  # an entry newer than the file failed above
        newest = " or ".join(c.coded for c in DTYPES.values() if c.first_version == version)
        raise ArchiveError(
            f"version-{version} file has no {newest} entry; it must be version {need}")
    return TensorArchive(entries=entries)  # raises DuplicateNameError


def save_archive(archive: TensorArchive, path) -> None:
    with open(path, "wb") as f:
        _write(archive, f)


def load_archive(path) -> TensorArchive:
    with open(path, "rb") as f:
        return read_archive(f.read())
