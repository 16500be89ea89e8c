"""Bit-exact binary tensor files.

Layout (all integers little-endian):

    bytes 0..7    magic tag b"BRTENSR1"
    bytes 8..11   rank, u32
    then          rank x u64 axis lengths
    then          dtype code, u32 (0 = real64, 1 = complex128)
    then          payload: little-endian float64 samples, complex stored
                  as interleaved (re, im) pairs

The payload byte length must equal prod(dims) * itemsize exactly; trailing
or missing bytes are format errors.  write_tensor followed by read_tensor
reproduces the array bit for bit.
"""

import math
import os

import numpy as np

from .errors import FormatError, InvalidArgumentError

MAGIC = b"BRTENSR1"

DTYPE_REAL64 = 0
DTYPE_COMPLEX128 = 1

_CODE_TO_DTYPE = {DTYPE_REAL64: "<f8", DTYPE_COMPLEX128: "<c16"}
_MAX_RANK = 32


def write_tensor(path: str | os.PathLike, tensor: np.ndarray) -> None:
    """Write a float64 or complex128 tensor; other dtypes are promoted."""
    arr = np.asarray(tensor)
    if arr.ndim < 1:
        raise InvalidArgumentError("tensor rank must be >= 1")
    if arr.ndim > _MAX_RANK:
        raise InvalidArgumentError(f"tensor rank {arr.ndim} exceeds {_MAX_RANK}")
    if np.iscomplexobj(arr):
        arr = arr.astype("<c16")
        code = DTYPE_COMPLEX128
    else:
        arr = arr.astype("<f8")
        code = DTYPE_REAL64

    header = bytearray()
    header += MAGIC
    header += np.uint32(arr.ndim).tobytes()
    header += np.asarray(arr.shape, dtype="<u8").tobytes()
    header += np.uint32(code).tobytes()
    with open(path, "wb") as fh:
        fh.write(bytes(header))
        fh.write(np.ascontiguousarray(arr).tobytes())


def read_tensor(path: str | os.PathLike) -> np.ndarray:
    """Read a tensor written by write_tensor, validating the full layout."""
    with open(path, "rb") as fh:
        blob = fh.read()

    if len(blob) < len(MAGIC) or blob[: len(MAGIC)] != MAGIC:
        raise FormatError(f"bad magic, expected {MAGIC!r}", offset=0)
    off = len(MAGIC)

    if len(blob) < off + 4:
        raise FormatError("truncated header: missing rank", offset=off)
    rank = int(np.frombuffer(blob, dtype="<u4", count=1, offset=off)[0])
    off += 4
    if rank < 1 or rank > _MAX_RANK:
        raise FormatError(f"unsupported rank {rank}", offset=off - 4)

    if len(blob) < off + 8 * rank:
        raise FormatError("truncated header: missing axis lengths", offset=off)
    dims_off = off
    # Python ints, so the element count cannot wrap before it is checked
    dims = tuple(int(d) for d in np.frombuffer(blob, dtype="<u8", count=rank, offset=off))
    off += 8 * rank

    if len(blob) < off + 4:
        raise FormatError("truncated header: missing dtype code", offset=off)
    code = int(np.frombuffer(blob, dtype="<u4", count=1, offset=off)[0])
    off += 4
    if code not in _CODE_TO_DTYPE:
        raise FormatError(f"unknown dtype code {code}", offset=off - 4)

    dtype = np.dtype(_CODE_TO_DTYPE[code])
    # numpy refuses shapes whose nonzero axis lengths span more bytes than it can index
    if math.prod(d for d in dims if d) * dtype.itemsize > np.iinfo(np.intp).max:
        raise FormatError(f"axis lengths {dims} exceed the addressable size", offset=dims_off)
    count = math.prod(dims)
    expected = count * dtype.itemsize
    actual = len(blob) - off
    if actual != expected:
        kind = "truncated" if actual < expected else "oversized"
        raise FormatError(
            f"{kind} payload: expected {expected} bytes, found {actual}", offset=off
        )

    data = np.frombuffer(blob, dtype=dtype, count=count, offset=off)
    native = np.complex128 if code == DTYPE_COMPLEX128 else np.float64
    return data.astype(native).reshape(dims)
