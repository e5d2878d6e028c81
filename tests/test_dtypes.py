"""Each archive dtype is one Tensor subclass: its code, first version, payload
size and codec, checked against the bytes write_archive writes."""

import itertools
import struct

import numpy as np
import pytest

from tensorpress.tensors import (
    DTYPES,
    BitTensor,
    DenseTensor,
    Tensor,
    TensorArchive,
    _version,
    read_archive,
    write_archive,
)


def test_dense_tensor_keeps_a_c_contiguous_f32_array():
    a = np.zeros((2, 3), dtype=np.float32)
    t = DenseTensor(a)
    assert np.shares_memory(t.data, a) and not a.flags.writeable  # frozen, not copied
    with pytest.raises(ValueError):
        a[0, 0] = 1


@pytest.mark.parametrize("a", [
    np.zeros((2, 3)),  # float64
    np.zeros((3, 2), dtype=np.float32).T,  # not C-contiguous
    [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]],  # not an array
], ids=["float64", "transposed", "list"])
def test_dense_tensor_copies_any_other_input(a):
    t = DenseTensor(a)
    assert not np.shares_memory(t.data, a) and not t.data.flags.writeable
    if isinstance(a, np.ndarray):
        assert a.flags.writeable
        a[0, 0] = 1
        assert t.data[0, 0] == 0


@pytest.mark.parametrize("dtype", [bool, np.uint8, np.float32])
def test_bit_tensor_always_copies(dtype):
    a = np.zeros((2, 3), dtype=dtype)
    t = BitTensor(a)
    assert not np.shares_memory(t.data, a) and a.flags.writeable
    a[0, 0] = 1
    assert not t.data[0, 0]


def test_dtype_table():
    assert DTYPES[0] is DenseTensor and DTYPES[1] is BitTensor  # codes on disk
    for code, cls in DTYPES.items():
        assert issubclass(cls, Tensor) and cls.code == code


@pytest.mark.parametrize("n", range(1, 18))  # every remainder of n / 8
@pytest.mark.parametrize("cls", list(DTYPES.values()), ids=lambda c: c.label)
def test_one_entry_archive_per_dtype(cls, n):
    t = cls(np.random.default_rng(n).integers(0, 2, n))
    raw = write_archive(TensorArchive(entries=[("e", t)]))
    assert raw[4:8] == struct.pack("<I", cls.first_version)
    header = 12 + 4 + 1 + 4 + 8  # file, name length, "e", axis count, dim
    assert raw[header:header + 4] == struct.pack("<I", cls.code)
    assert len(raw) - header - 4 == cls.payload_bytes(n) == t.nbytes
    back = read_archive(raw).get("e")
    assert type(back) is cls and back == t


@pytest.mark.parametrize("k", range(len(DTYPES) + 1))
def test_version_is_the_highest_first_version(k):
    for classes in itertools.combinations(DTYPES.values(), k):
        entries = [(f"e{i}", cls(np.ones(3))) for i, cls in enumerate(classes)]
        version = max((cls.first_version for cls in classes), default=1)
        assert _version(entries) == version
        assert write_archive(TensorArchive(entries=entries))[4:8] == struct.pack("<I", version)
