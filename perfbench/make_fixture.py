#!/usr/bin/env python3
"""Regenerate the U-Net prior fixture the benchmark reconstructs with.

Trains the acceptance-criterion-8 prior (widths 8/16, bottleneck 32,
25-level ladder; 24 phantoms of 64x64, 120 epochs, batch 4, lr 0.3,
seed 0) and writes `fixture/unet_c8.bt` plus its `.arch` descriptor and
`fixture/SHA256SUMS`.  Training is seeded, so the run is deterministic;
it takes about two minutes on one core.  The benchmark never calls this:
it verifies the committed files against SHA256SUMS and refuses to run on
a mismatch, so both sides of a comparison use the same prior.

Run from the repository root:  python3 perfbench/make_fixture.py
"""

from __future__ import annotations

import os
import sys
import time

import benchenv  # pins BLAS threads before numpy loads

from mricalib.phantom import PhantomSpec, make_phantom
from mricalib.unet import save_weights, train_toy_denoiser
from workloads import C8_ARCH, TRAIN_KINDS


def main() -> int:
    train = [
        make_phantom(PhantomSpec(size=64, seed=s, kind=k))
        for s in range(12)
        for k in TRAIN_KINDS
    ]
    started = time.perf_counter()
    weights = train_toy_denoiser(train, epochs=120, seed=0, arch=C8_ARCH, lr=0.3, batch_size=4)
    elapsed = time.perf_counter() - started
    save_weights(benchenv.FIXTURE_WEIGHTS, weights)
    lines = [
        f"{benchenv.sha256_file(path)}  {os.path.basename(path)}"
        for path in benchenv.fixture_files()
    ]
    with open(benchenv.FIXTURE_SUMS, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"trained fixture prior in {elapsed:.1f} s")
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
