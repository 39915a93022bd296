"""Binary matrix file: magic, row count, column count, row-major float64 LE."""

from __future__ import annotations

import os
import struct

import numpy as np

from .errors import ParseError

MATRIX_MAGIC = b"EVCOREF.MAT.1\n"


def write_matrix(path, arr: np.ndarray) -> None:
    arr = np.ascontiguousarray(arr, dtype="<f8")
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise ValueError("write_matrix expects a 1- or 2-d array")
    with open(path, "wb") as out:
        out.write(MATRIX_MAGIC)
        out.write(struct.pack("<QQ", arr.shape[0], arr.shape[1]))
        # the array's own buffer, not a tobytes() copy of it
        out.write(arr.data)


def read_matrix(path) -> np.ndarray:
    """Read a matrix file; a header dimension numpy cannot allocate (2^60
    or more, whose float64 bytes pass 2^63 - 1) or a payload shorter or
    longer than the header's row and column counts imply is a ParseError,
    found before allocating."""
    with open(path, "rb") as handle:
        magic = handle.read(len(MATRIX_MAGIC))
        if magic != MATRIX_MAGIC:
            raise ParseError(path, 1, "not a matrix file (bad magic)")
        header = handle.read(16)
        if len(header) != 16:
            raise ParseError(path, 1, "truncated matrix header")
        rows, cols = struct.unpack("<QQ", header)
        if max(rows, cols) >= 1 << 60:
            raise ParseError(path, 1, f"header dimension {max(rows, cols)} is not below 2^60")
        payload = os.fstat(handle.fileno()).st_size - handle.tell()
        if payload != 8 * rows * cols:
            expected = f"expected {rows * cols} values ({8 * rows * cols} bytes)"
            raise ParseError(path, 1, f"{expected}, found {payload} bytes")
        data = np.empty((rows, cols), dtype="<f8")
        if handle.readinto(data) != data.nbytes:
            raise ParseError(path, 1, "matrix file changed while being read")
    return data
