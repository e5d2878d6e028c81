import os
import struct
import threading
import tracemalloc

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
from tensorpress.cli import main
from tensorpress.tensors import (
    BitTensor,
    DenseTensor,
    TensorArchive,
    as_matrix,
    load_archive,
    read_archive,
    write_archive,
)


def assert_rejected(raw, tmp_path, error, match=None):
    """Both readers reject raw with the same error: read_archive on the bytes
    and load_archive on a file holding them."""
    with pytest.raises(error, match=match) as from_bytes:
        read_archive(raw)
    path = tmp_path / "bad.qtns"
    path.write_bytes(raw)
    with pytest.raises(error, match=match) as from_file:
        load_archive(path)
    assert str(from_file.value) == str(from_bytes.value)


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


def test_as_matrix_degenerate_spatial():
    w = np.array([5.0, 7.0], dtype=np.float32).reshape(2, 1, 1, 1)
    out = as_matrix(w)
    assert out.shape == (2, 1)
    assert out.ravel().tolist() == [5.0, 7.0]


def test_as_matrix_row_major_identity():
    w = np.arange(8, dtype=np.float32).reshape(1, 2, 2, 2)
    out = as_matrix(w)
    assert out.shape == (1, 8)
    assert out.ravel().tolist() == list(range(8))


def test_as_matrix_indexing_formula():
    rng = np.random.default_rng(3)
    w = DenseTensor(rng.standard_normal((4, 3, 2, 2))).data
    out = as_matrix(w)
    c_in, h, wd = 3, 2, 2
    for o in range(4):
        for c in range(c_in):
            for i in range(h):
                for j in range(wd):
                    assert out[o, c * h * wd + i * wd + j] == w[o, c, i, j]
    # inverse reshape is bit-exact
    back = out.reshape((4, 3, 2, 2))
    assert np.array_equal(back, w)


def test_as_matrix_two_axes_is_the_same_shape_as_a_view():
    w = DenseTensor(np.arange(6.0).reshape(2, 3)).data
    out = as_matrix(w)
    assert out.shape == (2, 3)
    assert np.shares_memory(out, w)
    assert np.array_equal(out, w)


@pytest.mark.parametrize("shape", [(6,), (2, 3, 1)], ids=["1_axis", "3_axes"])
def test_as_matrix_rejects_other_axis_counts(shape):
    with pytest.raises(ShapeError, match=f"got {len(shape)}"):
        as_matrix(np.ones(shape, dtype=np.float32))


def test_as_matrix_preserves_values_and_norm():
    rng = np.random.default_rng(11)
    w = DenseTensor(rng.standard_normal((5, 2, 3, 3))).data
    out = as_matrix(w)
    assert sorted(out.ravel().tolist()) == sorted(w.ravel().tolist())
    assert np.linalg.norm(out) == np.linalg.norm(w)
    assert np.shares_memory(out, w)


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


def bit_entry_raw(bits):
    """A version-2 archive holding one bit tensor "m" of the given bits."""
    t = BitTensor(np.array(bits))
    return write_archive(TensorArchive(entries=[("m", t)]))


def test_bit_tensor_basics():
    t = BitTensor(np.array([[1, 0, 1], [0, 0, 1]]))
    assert t.shape == (2, 3) and t.size == 6 and t.nbytes == 1
    assert t.data.dtype == bool
    with pytest.raises(ValueError):
        t.data[0, 0] = 0  # immutable
    assert BitTensor(np.ones(9)).nbytes == 2
    assert t == BitTensor(t.data.astype(bool)) and t != DenseTensor(t.data)
    with pytest.raises(ValueError, match="0 or 1"):
        BitTensor(np.array([0.0, 1.5]))
    with pytest.raises(ShapeError):
        BitTensor(np.ones((2, 0)))
    with pytest.raises(ShapeError):
        BitTensor(np.uint8(1))


def test_bit_tensor_layout_and_round_trip():
    bits = [1, 0, 0, 0, 0, 0, 0, 1, 1, 1]  # element i is bit i % 8 of byte i // 8
    raw = bit_entry_raw(bits)
    assert raw[4:8] == struct.pack("<I", 2)
    header = 12 + 4 + 1 + 4 + 8 + 4  # file, name length, "m", axis count, dim, dtype
    assert raw[header - 4:header] == struct.pack("<I", 1)
    assert raw[header:] == bytes([0b10000001, 0b00000011])
    back = read_archive(raw).get("m")
    assert isinstance(back, BitTensor) and back.data.tolist() == bits


def test_version_1_without_bit_entries():
    dense = TensorArchive(entries=[("a", DenseTensor(np.ones((2, 2))))])
    assert write_archive(dense)[4:8] == struct.pack("<I", 1)
    mixed = TensorArchive(entries=dense.entries + [("m", BitTensor(np.ones(3)))])
    raw = write_archive(mixed)
    assert raw[4:8] == struct.pack("<I", 2)
    # a version-2 file reads back, and its f32 entry has its version-1 bytes
    assert read_archive(raw).entries == mixed.entries
    assert raw[12:].startswith(write_archive(dense)[12:])


@pytest.mark.parametrize("n", [1, 7, 9, 15, 17])
def test_nonzero_padding_bits_rejected(n, tmp_path):
    raw = bit_entry_raw(np.ones(n))
    for bit in range(n % 8, 8):
        assert_rejected(raw[:-1] + bytes([raw[-1] | 1 << bit]), tmp_path, ArchiveError,
                        "'m' has nonzero padding bits")


def test_bit_entry_in_version_1_rejected():
    raw = bit_entry_raw([1, 0])
    with pytest.raises(ArchiveError, match="'m' is bit-coded in a version-1 file"):
        read_archive(raw[:4] + struct.pack("<I", 1) + raw[8:])


@pytest.mark.parametrize("entries", [[], [("a", DenseTensor(np.ones((2, 2))))]])
def test_version_2_without_bit_entries_rejected(entries):
    raw = write_archive(TensorArchive(entries=entries))
    with pytest.raises(ArchiveError, match="version-2 file has no bit-coded entry"):
        read_archive(raw[:4] + struct.pack("<I", 2) + raw[8:])


def test_truncated_bit_payload(tmp_path):
    raw = bit_entry_raw(np.ones(17))  # 3 bytes
    assert_rejected(raw[:-1], tmp_path, TruncatedArchiveError,
                    "need 3 bytes at offset 33, only 2 left")


def test_bad_magic(tmp_path):
    assert_rejected(b"NOPE" + b"\x00" * 16, tmp_path, BadMagicError)


def test_unsupported_version():
    raw = bytearray(write_archive(TensorArchive()))
    raw[4:8] = struct.pack("<I", 99)
    with pytest.raises(UnsupportedVersionError):
        read_archive(bytes(raw))


def test_truncated_payload(tmp_path):
    t = DenseTensor(np.ones((4, 4)))
    raw = write_archive(TensorArchive(entries=[("t", t)]))
    # declared 16 floats, keep only 8
    assert_rejected(raw[: len(raw) - 8 * 4], tmp_path, TruncatedArchiveError,
                    "need 64 bytes at offset 41, only 32 left")


def test_trailing_bytes_rejected(tmp_path):
    raw = write_archive(TensorArchive(entries=[("t", DenseTensor(np.ones(2)))]))
    assert_rejected(raw + b"junk", tmp_path, ArchiveError, "^4 bytes after the last entry$")


def test_huge_declared_entry_allocates_nothing(tmp_path, capsys):
    # one f32 entry "w" declaring 2**20 x 2**20 elements (4 TiB), with 19 bytes of payload
    header = b"QTNS" + struct.pack("<II", 1, 1)
    entry = struct.pack("<I", 1) + b"w" + struct.pack("<IQQI", 2, 2**20, 2**20, 0)
    path = tmp_path / "huge.qtns"
    path.write_bytes(header + entry + bytes(19))
    assert path.stat().st_size == 60
    tracemalloc.start()
    try:
        with pytest.raises(TruncatedArchiveError, match="need 4398046511104 bytes"):
            load_archive(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert main(["inspect", str(path)]) == 3
    assert "need 4398046511104 bytes at offset 41, only 19 left" in capsys.readouterr().err


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_load_archive_from_a_pipe(tmp_path):
    arc = TensorArchive(entries=[("a", DenseTensor(np.arange(6.0).reshape(2, 3)))])
    fifo = tmp_path / "pipe.qtns"
    os.mkfifo(fifo)

    def feed():
        with open(fifo, "wb") as w:
            w.write(write_archive(arc))

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    try:
        assert load_archive(fifo).entries == arc.entries
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()


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
