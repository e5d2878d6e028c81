import struct

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from tensorpress.errors import (
    ArchiveError,
    BadMagicError,
    DuplicateNameError,
    ShapeError,
    TruncatedArchiveError,
    UnsupportedVersionError,
)
from tensorpress.tensors import (
    DenseTensor,
    TensorArchive,
    flatten_conv,
    read_archive,
    write_archive,
)


def test_dense_tensor_basics():
    t = DenseTensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert t.shape == (2, 2)
    assert t.size == 4
    assert t.data.dtype == np.float32
    with pytest.raises(ValueError):
        t.data[0, 0] = 9.0  # immutable


def test_dense_tensor_rejects_bad_shapes():
    with pytest.raises(ShapeError):
        DenseTensor(np.empty((2, 0), dtype=np.float32))
    with pytest.raises(ShapeError):
        DenseTensor(np.float32(1.0))


def test_flatten_conv_degenerate_spatial():
    w = DenseTensor(np.array([5.0, 7.0]).reshape(2, 1, 1, 1))
    out = flatten_conv(w)
    assert out.shape == (2, 1)
    assert out.data.ravel().tolist() == [5.0, 7.0]


def test_flatten_conv_row_major_identity():
    w = DenseTensor(np.arange(8, dtype=np.float32).reshape(1, 2, 2, 2))
    out = flatten_conv(w)
    assert out.shape == (1, 8)
    assert out.data.ravel().tolist() == list(range(8))


def test_flatten_conv_indexing_formula():
    rng = np.random.default_rng(3)
    w = DenseTensor(rng.standard_normal((4, 3, 2, 2)))
    out = flatten_conv(w)
    c_in, h, wd = 3, 2, 2
    for o in range(4):
        for c in range(c_in):
            for i in range(h):
                for j in range(wd):
                    assert out.data[o, c * h * wd + i * wd + j] == w.data[o, c, i, j]
    # inverse reshape is bit-exact
    back = out.reshape((4, 3, 2, 2))
    assert np.array_equal(back.data, w.data)


def test_flatten_conv_rejects_wrong_rank():
    with pytest.raises(ShapeError):
        flatten_conv(DenseTensor(np.ones((2, 3))))


def test_flatten_preserves_values_and_norm():
    rng = np.random.default_rng(11)
    w = DenseTensor(rng.standard_normal((5, 2, 3, 3)))
    out = flatten_conv(w)
    assert sorted(out.data.ravel().tolist()) == sorted(w.data.ravel().tolist())
    assert np.linalg.norm(out.data) == np.linalg.norm(w.data)


def test_empty_archive_round_trip():
    raw = write_archive(TensorArchive())
    back = read_archive(raw)
    assert len(back) == 0


def test_single_tensor_round_trip_bit_exact():
    t = DenseTensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
    raw = write_archive(TensorArchive(entries=[("a", t)]))
    back = read_archive(raw)
    assert back.names() == ["a"]
    assert np.array_equal(back.get("a").data, t.data)


def test_write_is_deterministic():
    t = DenseTensor(np.random.default_rng(0).standard_normal((3, 4)))
    arc = TensorArchive(entries=[("x", t)])
    assert write_archive(arc) == write_archive(arc)


def test_bad_magic():
    with pytest.raises(BadMagicError):
        read_archive(b"NOPE" + b"\x00" * 16)


def test_unsupported_version():
    raw = bytearray(write_archive(TensorArchive()))
    raw[4:8] = struct.pack("<I", 99)
    with pytest.raises(UnsupportedVersionError):
        read_archive(bytes(raw))


def test_truncated_payload():
    t = DenseTensor(np.ones((4, 4)))
    raw = write_archive(TensorArchive(entries=[("t", t)]))
    # declared 16 floats, keep only 8
    with pytest.raises(TruncatedArchiveError):
        read_archive(raw[: len(raw) - 8 * 4])


def test_zero_axis_entry_rejected():
    # one entry "w": 0 axes, dtype f32, 4 data bytes
    raw = b"QTNS" + struct.pack("<III", 1, 1, 1) + b"w" + struct.pack("<IIf", 0, 0, 1.0)
    with pytest.raises(ArchiveError, match="'w' has no axes"):
        read_archive(raw)


def test_duplicate_names_rejected():
    t = DenseTensor(np.ones((2,)))
    with pytest.raises(DuplicateNameError):
        TensorArchive(entries=[("a", t), ("a", t)])
    # also on read: splice the same entry twice into a valid file
    raw = write_archive(TensorArchive(entries=[("a", t)]))
    header, entry = raw[:12], raw[12:]
    doubled = header[:8] + struct.pack("<I", 2) + entry + entry
    with pytest.raises(DuplicateNameError):
        read_archive(doubled)


def test_lookup_by_name():
    t = [DenseTensor(np.full((2,), float(i))) for i in range(3)]
    arc = TensorArchive(entries=[("b", t[0]), ("a", t[1]), ("c", t[2])])
    assert arc.get("a") is t[1] and arc.get("c") is t[2]
    assert "b" in arc and "d" not in arc
    with pytest.raises(KeyError):
        arc.get("d")
    with pytest.raises(DuplicateNameError, match=r"\['a', 'b'\]"):
        TensorArchive(entries=[("b", t[0]), ("a", t[1]), ("b", t[2]), ("a", t[0]), ("a", t[1])])


@st.composite
def tensors(draw):
    shape = tuple(draw(st.lists(st.integers(1, 5), min_size=1, max_size=4)))
    n = int(np.prod(shape))
    data = draw(
        st.lists(
            st.floats(-1e6, 1e6, allow_nan=False, width=32), min_size=n, max_size=n
        )
    )
    return DenseTensor(np.array(data, dtype=np.float32).reshape(shape))


@settings(max_examples=60, deadline=None)
@given(st.lists(tensors(), max_size=4))
def test_archive_round_trip_property(tensor_list):
    entries = [(f"t{i}", t) for i, t in enumerate(tensor_list)]
    arc = TensorArchive(entries=entries)
    back = read_archive(write_archive(arc))
    assert back.names() == [n for n, _ in entries]
    for name, t in entries:
        got = back.get(name)
        assert got.shape == t.shape
        assert got.data.tobytes() == t.data.tobytes()
