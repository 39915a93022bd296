import struct
import tracemalloc

import numpy as np
import pytest

from evcoref.errors import ParseError
from evcoref.matio import MATRIX_MAGIC, read_matrix, write_matrix


def test_matrix_roundtrip(tmp_path, rng):
    x = rng.normal(size=(17, 33))
    path = tmp_path / "x.mat"
    write_matrix(path, x)
    assert np.array_equal(read_matrix(path), x)


def test_vector_becomes_single_row(tmp_path):
    path = tmp_path / "v.mat"
    write_matrix(path, np.arange(5.0))
    out = read_matrix(path)
    assert out.shape == (1, 5)


def test_empty_matrix(tmp_path):
    path = tmp_path / "e.mat"
    write_matrix(path, np.zeros((0, 7)))
    assert read_matrix(path).shape == (0, 7)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.mat"
    path.write_bytes(b"garbage here")
    with pytest.raises(ParseError, match="magic"):
        read_matrix(path)


@pytest.mark.parametrize("keep", [0, 8, 15], ids=["no-header", "rows-only", "one-byte-short"])
def test_truncated_header_rejected(tmp_path, keep):
    path = tmp_path / "t.mat"
    path.write_bytes(MATRIX_MAGIC + bytes(keep))
    with pytest.raises(ParseError, match="truncated matrix header"):
        read_matrix(path)


def test_truncated_payload_rejected(tmp_path, rng):
    path = tmp_path / "t.mat"
    write_matrix(path, rng.normal(size=(4, 4)))
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(ParseError, match="expected"):
        read_matrix(path)


@pytest.mark.parametrize("cut", [1, 3, 7, 9, 128])
def test_payload_of_any_wrong_length_rejected(tmp_path, rng, cut):
    path = tmp_path / "t.mat"
    write_matrix(path, rng.normal(size=(4, 4)))
    data = path.read_bytes()
    path.write_bytes(data[:-cut])
    with pytest.raises(ParseError, match="expected 16 values"):
        read_matrix(path)
    path.write_bytes(data + bytes(cut))
    with pytest.raises(ParseError, match="expected 16 values"):
        read_matrix(path)


def test_corrupt_dims_rejected_before_allocating(tmp_path):
    path = tmp_path / "big.mat"
    write_matrix(path, np.zeros((2, 2)))
    data = bytearray(path.read_bytes())
    data[14:30] = (1 << 40).to_bytes(8, "little") * 2  # a 2^80-value header
    path.write_bytes(bytes(data))
    with pytest.raises(ParseError, match="expected"):
        read_matrix(path)


@pytest.mark.parametrize(
    "rows, cols", [(1 << 63, 0), (0, 1 << 63), (1 << 60, 0), (0, 1 << 60), ((1 << 64) - 1, 0)],
    ids=["2^63-rows", "2^63-cols", "2^60-rows", "2^60-cols", "u64-max-rows"],
)
def test_header_dimension_numpy_cannot_allocate_rejected(tmp_path, rows, cols):
    # an empty payload matches any header with a zero dimension, so the size
    # check alone lets these through to numpy
    path = tmp_path / "huge.mat"
    path.write_bytes(MATRIX_MAGIC + struct.pack("<QQ", rows, cols))
    with pytest.raises(ParseError, match=r"header dimension \d+ is not below 2\^60"):
        read_matrix(path)


def test_largest_header_dimension_numpy_allocates_is_read(tmp_path):
    path = tmp_path / "wide.mat"
    path.write_bytes(MATRIX_MAGIC + struct.pack("<QQ", 0, (1 << 60) - 1))
    assert read_matrix(path).shape == (0, (1 << 60) - 1)


def test_file_bytes_are_the_header_and_the_c_order_buffer(tmp_path, rng):
    x = rng.normal(size=(5, 3))
    path = tmp_path / "x.mat"
    write_matrix(path, x)
    assert path.read_bytes() == b"EVCOREF.MAT.1\n" + (5).to_bytes(8, "little") + (
        3
    ).to_bytes(8, "little") + x.astype("<f8").tobytes(order="C")
    write_matrix(path, np.asfortranarray(x))
    assert np.array_equal(read_matrix(path), x)


def test_write_matrix_copies_no_array(tmp_path, rng):
    x = rng.normal(size=(500, 400))
    tracemalloc.start()
    try:
        write_matrix(tmp_path / "x.mat", x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < x.nbytes / 4


def test_read_matrix_allocates_the_array_once(tmp_path, rng):
    x = rng.normal(size=(500, 400))
    write_matrix(tmp_path / "x.mat", x)
    tracemalloc.start()
    try:
        out = read_matrix(tmp_path / "x.mat")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(out, x)
    assert peak <= 1.1 * x.nbytes


def test_writes_are_deterministic(tmp_path, rng):
    x = rng.normal(size=(6, 6))
    a, b = tmp_path / "a.mat", tmp_path / "b.mat"
    write_matrix(a, x)
    write_matrix(b, x)
    assert a.read_bytes() == b.read_bytes()
