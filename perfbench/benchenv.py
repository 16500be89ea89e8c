"""Process environment shared by every benchmark process.

Importing this module, before numpy is imported anywhere, pins the BLAS
and OpenMP pools to one thread (on a 2-core box one thread measured as
fast as two for the U-Net forward and for AᴴA, and it removes the pool's
scheduling noise) and puts the checkout's own `src/` first on the path.
The package must come from that `src/`: an installed copy elsewhere
would benchmark the wrong code, so that is refused.
"""

from __future__ import annotations

import hashlib
import os
import sys

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

if "numpy" in sys.modules:
    raise RuntimeError("benchenv must be imported before numpy so the BLAS pin takes effect")

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

FIXTURE_DIR = os.path.join(BENCH_DIR, "fixture")
FIXTURE_WEIGHTS = os.path.join(FIXTURE_DIR, "unet_c8.bt")
FIXTURE_SUMS = os.path.join(FIXTURE_DIR, "SHA256SUMS")

sys.path.insert(0, SRC)
import mricalib  # noqa: E402

if os.path.dirname(os.path.dirname(os.path.abspath(mricalib.__file__))) != SRC:
    raise RuntimeError(f"mricalib imported from {mricalib.__file__}, not from {SRC}")


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def fixture_files() -> list[str]:
    return [FIXTURE_WEIGHTS, FIXTURE_WEIGHTS + ".arch"]


def verify_fixture() -> None:
    """Raise unless every fixture file matches its recorded SHA-256."""
    expected = {}
    with open(FIXTURE_SUMS) as fh:
        for line in fh:
            if line.strip():
                digest, name = line.split()
                expected[name] = digest
    for path in fixture_files():
        name = os.path.basename(path)
        actual = sha256_file(path)
        if expected.get(name) != actual:
            raise RuntimeError(
                f"fixture {name} has SHA-256 {actual}, expected {expected.get(name)}; "
                "regenerate it with perfbench/make_fixture.py and commit the result"
            )
