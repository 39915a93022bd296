"""Binary matrix file: magic, row count, column count, row-major float64 LE.

The rows follow the header in C order, so a matrix can be written and read
a block of rows at a time with the same bytes on disk: `MatrixWriter` and
`MatrixReader` do that, and `write_matrix` and `read_matrix` are their
one-block case.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from .errors import ParseError

MATRIX_MAGIC = b"EVCOREF.MAT.1\n"
HEADER_BYTES = len(MATRIX_MAGIC) + 16
BLOCK_BYTES = 1 << 22  # MatrixReader.blocks reads this much at a time (one row at least)


class MatrixWriter:
    """A `rows` x `cols` matrix file written a block of rows at a time: the
    header, which declares `rows`, goes first, and `write` appends blocks of
    `cols` columns. A block of another width, or one that would pass the
    declared row count, is refused before any of it is written. Leaving
    the `with` block with fewer rows than declared, or on an error, removes
    the file, so no file is left whose header misstates its payload.
    `len()` is the declared row count."""

    def __init__(self, path, rows: int, cols: int):
        self.path, self.rows, self.cols = path, rows, cols
        self.written = 0
        self._file = open(path, "wb")
        self._file.write(MATRIX_MAGIC + struct.pack("<QQ", rows, cols))

    def __len__(self) -> int:
        return self.rows

    def write(self, block: np.ndarray) -> None:
        block = np.ascontiguousarray(block, dtype="<f8")
        if block.ndim != 2 or block.shape[1] != self.cols:
            raise ValueError(f"a block of shape {block.shape} for a matrix of {self.cols} columns")
        if self.written + len(block) > self.rows:
            raise ValueError(f"{self.written + len(block)} rows for a matrix of {self.rows} rows")
        # the array's own buffer, not a tobytes() copy of it
        self._file.write(block.data)
        self.written += len(block)

    def __enter__(self) -> "MatrixWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._file.close()
        if exc_type is not None or self.written != self.rows:
            os.remove(self.path)
        if exc_type is None and self.written != self.rows:
            raise ValueError(f"{self.written} of the {self.rows} rows written; {self.path} removed")


class MatrixReader:
    """A matrix file read a block of rows at a time, inside a `with` block.
    Opening it reads the header and refuses, as a ParseError and before
    allocating, a bad magic, a truncated header, a dimension numpy cannot
    allocate (2^60 or more, whose float64 bytes pass 2^63 - 1) and a
    payload shorter or longer than the header's row and column counts
    imply."""

    def __init__(self, path):
        self.path = path
        self._file = open(path, "rb")
        try:
            self.rows, self.cols = self._header()
        except BaseException:
            self._file.close()
            raise

    def _header(self) -> tuple[int, int]:
        if self._file.read(len(MATRIX_MAGIC)) != MATRIX_MAGIC:
            raise ParseError(self.path, 1, "not a matrix file (bad magic)")
        header = self._file.read(16)
        if len(header) != 16:
            raise ParseError(self.path, 1, "truncated matrix header")
        rows, cols = struct.unpack("<QQ", header)
        if max(rows, cols) >= 1 << 60:
            raise ParseError(self.path, 1, f"header dimension {max(rows, cols)} is not below 2^60")
        payload = os.fstat(self._file.fileno()).st_size - HEADER_BYTES
        if payload != 8 * rows * cols:
            expected = f"expected {rows * cols} values ({8 * rows * cols} bytes)"
            raise ParseError(self.path, 1, f"{expected}, found {payload} bytes")
        return rows, cols

    def read(self, rows: int) -> np.ndarray:
        """The next `rows` rows, as one new array."""
        data = np.empty((rows, self.cols), dtype="<f8")
        if self._file.readinto(data) != data.nbytes:
            raise ParseError(self.path, 1, "matrix file changed while being read")
        return data

    def blocks(self):
        """Every row from the first, BLOCK_BYTES at a time, each block a new
        array; each call starts again at the first row."""
        self._file.seek(HEADER_BYTES)
        step = max(1, BLOCK_BYTES // (8 * self.cols) if self.cols else self.rows)
        for start in range(0, self.rows, step):
            yield self.read(min(step, self.rows - start))

    def __enter__(self) -> "MatrixReader":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._file.close()


def write_matrix(path, arr: np.ndarray) -> None:
    arr = np.asarray(arr, dtype="<f8")
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise ValueError("write_matrix expects a 1- or 2-d array")
    with MatrixWriter(path, *arr.shape) as writer:
        writer.write(arr)


def read_matrix(path) -> np.ndarray:
    """The whole matrix of a file, allocated once; MatrixReader's refusals."""
    with MatrixReader(path) as reader:
        return reader.read(reader.rows)
