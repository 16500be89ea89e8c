import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from mricalib import read_tensor, write_tensor
from mricalib.errors import FormatError, InvalidArgumentError
from mricalib.tensorio import MAGIC


def test_complex_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    arr = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    path = tmp_path / "t.bt"
    write_tensor(path, arr)
    back = read_tensor(path)
    assert back.dtype == np.complex128
    assert back.tobytes() == arr.tobytes()


def test_real_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(1)
    arr = rng.standard_normal((4, 5, 6))
    path = tmp_path / "t.bt"
    write_tensor(path, arr)
    back = read_tensor(path)
    assert back.dtype == np.float64
    assert back.tobytes() == arr.tobytes()


def test_bad_magic_rejected_with_offset(tmp_path):
    path = tmp_path / "t.bt"
    write_tensor(path, np.ones(3))
    blob = bytearray(path.read_bytes())
    blob[:8] = b"XXXXXXX0"
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError) as err:
        read_tensor(path)
    assert err.value.offset == 0


def test_truncated_payload_rejected(tmp_path):
    path = tmp_path / "t.bt"
    write_tensor(path, np.ones((2, 2)))
    blob = path.read_bytes()
    path.write_bytes(blob[:-8])
    with pytest.raises(FormatError, match="truncated payload"):
        read_tensor(path)


def test_zero_dims_with_payload_rejected(tmp_path):
    # rank 1, dims [0], dtype real64, then 8 stray payload bytes
    blob = MAGIC + np.uint32(1).tobytes() + np.uint64(0).tobytes() + np.uint32(0).tobytes()
    blob += b"\x00" * 8
    path = tmp_path / "t.bt"
    path.write_bytes(blob)
    with pytest.raises(FormatError, match="oversized payload"):
        read_tensor(path)


def _header(dims, code=0):
    blob = MAGIC + np.uint32(len(dims)).tobytes() + np.asarray(dims, dtype="<u8").tobytes()
    return blob + np.uint32(code).tobytes()


def test_overflowing_element_count_rejected(tmp_path):
    # 2^32 * 2^32 wraps to 0 in 64-bit arithmetic; the empty payload must not pass
    path = tmp_path / "t.bt"
    path.write_bytes(_header([2**32, 2**32]))
    with pytest.raises(FormatError, match="addressable"):
        read_tensor(path)


def test_axis_length_beyond_int64_rejected(tmp_path):
    path = tmp_path / "t.bt"
    path.write_bytes(_header([2**63]) + b"\x00" * 8)
    with pytest.raises(FormatError, match="addressable") as err:
        read_tensor(path)
    assert err.value.offset == len(MAGIC) + 4


def test_huge_axis_next_to_empty_axis_rejected(tmp_path):
    # zero elements, so the payload length matches, but numpy cannot shape it
    path = tmp_path / "t.bt"
    path.write_bytes(_header([0, 2**62], code=1))
    with pytest.raises(FormatError, match="addressable"):
        read_tensor(path)


def test_unknown_dtype_code_rejected(tmp_path):
    blob = MAGIC + np.uint32(1).tobytes() + np.uint64(2).tobytes() + np.uint32(9).tobytes()
    blob += b"\x00" * 16
    path = tmp_path / "t.bt"
    path.write_bytes(blob)
    with pytest.raises(FormatError, match="dtype code"):
        read_tensor(path)


def test_scalar_rejected(tmp_path):
    with pytest.raises(InvalidArgumentError):
        write_tensor(tmp_path / "t.bt", np.float64(3.0))


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    shape=st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=3),
    complex_valued=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_roundtrip_property(tmp_path, shape, complex_valued, seed):
    rng = np.random.default_rng(seed)
    arr = rng.standard_normal(shape)
    if complex_valued:
        arr = arr + 1j * rng.standard_normal(shape)
    path = tmp_path / f"t_{seed}.bt"
    write_tensor(path, arr)
    back = read_tensor(path)
    assert back.shape == tuple(shape)
    assert back.tobytes() == np.asarray(arr).tobytes()
