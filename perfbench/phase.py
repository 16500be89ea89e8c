#!/usr/bin/env python3
"""One measured phase of one workload, in a process of its own.

`run.py` starts this script; it is not meant to be run by hand.  The
phase sets the workload up `SETUPS` times (the median is `setup_s`),
then runs operations back to back, one client, closed loop, until
`--seconds` have passed (at least `MIN_OPS` operations) or, with `--ops`,
for exactly that many operations.  With `--trace` it installs the span
tracer first.  It writes its measurements, checks and provenance as JSON
to `--result`.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback

import benchenv
import numpy as np
import scipy

import workloads

SETUPS = 9
MIN_OPS = 5


def _blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS library numpy loaded, if it can be found."""
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _caches() -> dict[str, str]:
    out = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            with open(os.path.join(index, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(index, "type")) as fh:
                kind = fh.read().strip()
            with open(os.path.join(index, "size")) as fh:
                out[f"L{level}-{kind}"] = fh.read().strip()
        except OSError:
            continue
    return out


def provenance(seed: int) -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
        "thread_env": {v: os.environ.get(v) for v in benchenv.THREAD_VARS},
        "caches": _caches(),
        "workload_seed": seed,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--ops", type=int, default=0, help="run exactly this many operations")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--result", required=True)
    args = ap.parse_args()
    wl = workloads.WORKLOADS[args.workload]

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(extra_modules=[workloads])

    workroot = os.path.join(benchenv.OUT_DIR, f"work-{wl.name}-{os.getpid()}")
    try:
        setup_s = []
        for k in range(SETUPS):
            shutil.rmtree(workroot, ignore_errors=True)
            os.makedirs(workroot)
            if tracer:
                tracer.op_id = -1 - k
            with workloads.Stopwatch() as sw:
                state = wl.setup(args.seed, workroot)
            setup_s.append(sw.cpu)

        ops = []
        started = time.perf_counter()
        deadline = started + args.seconds
        while True:
            i = len(ops)
            rec = {"i": i, "ok": False}
            if tracer:
                tracer.op_id = i
            try:
                raw, sw, rec["units"] = wl.call(state, i)
                rec.update(work_s=sw.wall, work_cpu_s=sw.cpu, work_sys_s=sw.sys, minor_faults=sw.minflt)
                if tracer:
                    tracer.op_id = None
                rec.update(wl.check(state, i, raw))
                rec["ok"] = True
            except Exception:  # an operation that fails is counted, and the loop goes on
                rec["error"] = traceback.format_exc(limit=4)
                print(rec["error"], file=sys.stderr)
            if tracer:
                tracer.op_id = None
            ops.append(rec)
            if args.ops:
                if len(ops) >= args.ops:
                    break
            elif len(ops) >= MIN_OPS and time.perf_counter() >= deadline:
                break
        wall_s = time.perf_counter() - started
    finally:
        shutil.rmtree(workroot, ignore_errors=True)

    result = {
        "workload": wl.name,
        "seed": args.seed,
        "traced": args.trace,
        "setup_s": setup_s,
        "min_ops": MIN_OPS,
        "ops": ops,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "provenance": provenance(args.seed),
    }
    if tracer:
        spans_path = os.path.splitext(args.result)[0] + "-spans.json"
        tracer.dump(spans_path)
        result["spans_file"] = os.path.relpath(spans_path, benchenv.ROOT)
        result["layers"] = tracer.summary(len(ops), SETUPS, wl.steps_per_op)
    with open(args.result, "w") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
