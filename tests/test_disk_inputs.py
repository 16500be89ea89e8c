"""Whatever bytes sit on disk, a reader returns or raises FormatError, never anything else."""

import dataclasses
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mricalib import read_tensor, write_tensor
from mricalib.cli import main
from mricalib.errors import FormatError
from mricalib.forward import load_mask
from mricalib.pipeline import StepRecord
from mricalib.tensorio import MAGIC
from mricalib.unet import UNetArch, init_weights, load_weights, save_weights

WEIGHTS = init_weights(UNetArch(widths=(2,), bottleneck=2, emb_steps=3), seed=0)


def _sidecar_text(save, obj, suffix):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "x.bt")
        save(path, obj)
        with open(path + suffix) as fh:
            return fh.read()


# a tensor header with random rank, axis lengths and dtype code, then a short payload
headers = st.builds(
    lambda rank, dims, code, payload: (MAGIC + np.uint32(rank).tobytes()
                                       + np.asarray(dims[:rank], dtype="<u8").tobytes()
                                       + np.uint32(code).tobytes() + payload),
    st.integers(0, 40), st.lists(st.integers(0, 2**64 - 1), min_size=40, max_size=40),
    st.integers(0, 3), st.binary(max_size=64),
)
tensor_bytes = st.one_of(st.binary(max_size=200), st.binary(max_size=200).map(MAGIC.__add__), headers)

# key=value lines over known keys, with values that are numbers, lists or junk
values = st.one_of(
    st.text(max_size=12),
    st.integers(-3, 40).map(str),
    st.sampled_from(["nan", "inf", "-inf", "1e999", "0.5", "2.0", "1e-3", "0", "2", "3,4", "9" * 30]),
)


def _key_value_bytes(text):
    """Arbitrary bytes, or the key=value lines of text with some values replaced."""
    base = dict(line.split("=", 1) for line in text.splitlines())
    return st.one_of(
        st.binary(max_size=200),
        st.dictionaries(st.sampled_from(sorted(base)), values).map(
            lambda d: "".join(f"{k}={v}\n" for k, v in {**base, **d}.items())
            .encode("utf-8", "surrogatepass")
        ),
    )


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)
RECORD_KEYS = [f.name for f in dataclasses.fields(StepRecord)]
reports = st.one_of(
    st.binary(max_size=200),
    json_values.map(lambda v: json.dumps(v).encode()),
    st.lists(st.fixed_dictionaries({k: json_values for k in RECORD_KEYS}), max_size=2).map(
        lambda recs: json.dumps({"stopped_at": None, "records": recs}).encode()
    ),
)


@pytest.fixture(scope="module")
def disk_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("disk")


def _returns_or_format_error(read, *args):
    try:
        read(*args)
    except FormatError:
        pass


@settings(max_examples=150, deadline=None)
@given(blob=tensor_bytes)
def test_read_tensor_on_arbitrary_bytes(disk_dir, blob):
    path = disk_dir / "t.bt"
    path.write_bytes(blob)
    _returns_or_format_error(read_tensor, path)


# well-formed real tensors whose values are anything a float64 holds, 0/1 masks among them
float_tensors = st.one_of(
    st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=16),
    st.lists(st.sampled_from([0.0, 1.0]), min_size=1, max_size=16),
).map(lambda vals: np.asarray(vals).reshape(1, -1))


@settings(max_examples=100, deadline=None)
@given(blob=tensor_bytes, values=float_tensors)
def test_load_mask_on_arbitrary_bytes(disk_dir, blob, values):
    path = disk_dir / "m.bt"
    path.write_bytes(blob)
    _returns_or_format_error(load_mask, path)
    write_tensor(path, values)
    try:
        mask = load_mask(path)
    except FormatError:
        assert not np.all((values == 0) | (values == 1))
    else:
        assert np.array_equal(mask.bits, values)


@settings(max_examples=100, deadline=None)
@given(blob=tensor_bytes, arch=_key_value_bytes(_sidecar_text(save_weights, WEIGHTS, ".arch")))
def test_load_weights_on_arbitrary_bytes(disk_dir, blob, arch):
    path = disk_dir / "w.bt"
    save_weights(path, WEIGHTS)
    (disk_dir / "w.bt.arch").write_bytes(arch)
    _returns_or_format_error(load_weights, path)
    save_weights(path, WEIGHTS)
    path.write_bytes(blob)
    _returns_or_format_error(load_weights, path)


@settings(max_examples=150, deadline=None)
@given(blob=reports)
@example(blob=b"[" * 100_000)  # nesting beyond the JSON decoder's recursion limit
@example(blob=json.dumps({"stopped_at": None, "records": [dict.fromkeys(RECORD_KEYS, 10**400)]})
         .encode())  # an integer no float holds
def test_traces_report_on_arbitrary_bytes(disk_dir, blob):
    path = disk_dir / "report.json"
    path.write_bytes(blob)
    assert main(["traces", "--report", str(path), "--out", str(disk_dir / "t.txt")]) in (0, 4)
