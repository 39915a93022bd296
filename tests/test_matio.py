import os
import struct
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from evcoref import matio
from evcoref.errors import ParseError
from evcoref.matio import HEADER_BYTES, MATRIX_MAGIC, MatrixReader, MatrixWriter, read_matrix, write_matrix


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


# ---------------------------------------------------------------------------
# Row blocks: the same bytes as the one-block case
# ---------------------------------------------------------------------------

matrices = st.tuples(st.integers(0, 12), st.integers(0, 5)).flatmap(
    lambda shape: hnp.arrays(np.float64, shape, elements=st.floats(width=64))
)
in_tmp = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


def row_blocks(x, cuts):
    bounds = [0, *sorted(c % (len(x) + 1) for c in cuts), len(x)]
    return [x[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


@in_tmp
@given(matrices, st.lists(st.integers(0, 12), max_size=5))
def test_row_block_writer_writes_the_bytes_of_write_matrix(tmp_path, x, cuts):
    write_matrix(tmp_path / "whole.mat", x)
    with MatrixWriter(tmp_path / "blocks.mat", *x.shape) as writer:
        for block in row_blocks(x, cuts):
            writer.write(block)
    assert len(writer) == len(x)
    assert (tmp_path / "blocks.mat").read_bytes() == (tmp_path / "whole.mat").read_bytes()


@in_tmp
@given(matrices, st.integers(1, 200))
def test_row_block_reader_blocks_concatenate_to_read_matrix(tmp_path, x, block_bytes):
    path = tmp_path / "x.mat"
    write_matrix(path, x)
    with mock.patch.object(matio, "BLOCK_BYTES", block_bytes), MatrixReader(path) as reader:
        assert (reader.rows, reader.cols) == x.shape
        for _ in range(2):  # each pass starts again at the first row
            blocks = [b.copy() for b in reader.blocks()]  # each block is valid until the next
            if x.shape[1]:  # every block but the last is BLOCK_BYTES of rows, or one row
                step = max(1, block_bytes // (8 * x.shape[1]))
                assert [len(b) for b in blocks[:-1]] == [step] * (len(blocks) - 1)
            whole = np.concatenate(blocks) if blocks else np.empty((0, x.shape[1]))
            assert whole.shape == x.shape and whole.tobytes() == read_matrix(path).tobytes()


def test_every_row_block_of_a_pass_is_read_into_one_buffer(tmp_path, rng):
    path = tmp_path / "x.mat"
    x = rng.normal(size=(7, 4))
    write_matrix(path, x)
    with mock.patch.object(matio, "BLOCK_BYTES", 2 * 4 * 8), MatrixReader(path) as reader:
        for _ in range(2):
            first, *rest = reader.blocks()  # each one read over the last
            assert [len(b) for b in (first, *rest)] == [2, 2, 2, 1]
            assert all(np.shares_memory(first, b) for b in rest)
            assert rest[-1].tobytes() == x[6:].tobytes()


@pytest.mark.parametrize("cols", [2, 4])
def test_row_block_writer_refuses_a_block_of_another_width_and_leaves_no_file(tmp_path, rng, cols):
    path = tmp_path / "x.mat"
    with pytest.raises(ValueError, match="3 columns"):
        with MatrixWriter(path, 4, 3) as writer:
            writer.write(rng.normal(size=(2, 3)))
            writer.write(rng.normal(size=(2, cols)))
    assert writer.written == 2 and not path.exists()


@pytest.mark.parametrize("rows", [[2, 1], [2, 3], [6], [0]], ids=["short", "long", "long-at-once", "none"])
def test_row_block_writer_refuses_a_row_count_other_than_declared_and_leaves_no_file(tmp_path, rng, rows):
    path = tmp_path / "x.mat"
    with pytest.raises(ValueError, match="rows"):
        with MatrixWriter(path, 4, 3) as writer:
            for k in rows:
                writer.write(rng.normal(size=(k, 3)))
    assert writer.written <= 4 and not path.exists()


def test_a_file_cut_between_the_row_block_passes_is_refused(tmp_path, rng):
    path = tmp_path / "x.mat"
    write_matrix(path, rng.normal(size=(6, 4)))
    with mock.patch.object(matio, "BLOCK_BYTES", 2 * 4 * 8), MatrixReader(path) as reader:
        assert len(list(reader.blocks())) == 3
        os.truncate(path, HEADER_BYTES + 3 * 4 * 8)
        with pytest.raises(ParseError, match="changed while being read"):
            list(reader.blocks())
