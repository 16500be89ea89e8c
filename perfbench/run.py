#!/usr/bin/env python3
"""mricalib benchmark: one workload, one run, one JSON line of results.

    python3 perfbench/run.py --workload unet-selfcal --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from its
`src/`.  With `--trace 0` one untraced phase measures the end-to-end
metrics.  With `--trace 1` an untraced phase and then a traced phase run
the same operations on the same inputs, each in its own process; the
traced phase gives the per-layer metrics, the two phases' output digests
must be identical, and their time ratio is `trace.overhead_frac`.  The
last line of standard output is the result object; the full record,
with provenance and digests, goes to `.bench_out/`.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("unet-selfcal", "oracle-fidelity", "train-prior")
BUDGET_S = 175.0  # the whole run, both phases included, must end within 180 s

END_TO_END_UNITS = {
    "op_s": "s",
    "psnr_db": "dB",
    "ssim": "1",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _fail(message: str) -> int:
    print(f"benchmark error: {message}", file=sys.stderr)
    return 1


def _run_phase(args, traced: bool, seconds: float, ops: int, deadline: float) -> dict:
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{'traced' if traced else 'plain'}"
    result_path = os.path.join(OUT_DIR, f"{tag}.json")
    if os.path.exists(result_path):
        os.remove(result_path)
    cmd = [sys.executable, os.path.join(BENCH_DIR, "phase.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds), "--result", result_path]
    if ops:
        cmd += ["--ops", str(ops)]
    if traced:
        cmd.append("--trace")
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=sys.stderr)
    try:
        code = proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"{tag} phase ran past the time budget") from None
    if code != 0:
        raise RuntimeError(f"{tag} phase exited with code {code}")
    with open(result_path) as fh:
        return json.load(fh)


def _source_identity() -> dict:
    """Commit id when the checkout is a git repository, and a hash of the package sources."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in sorted(os.walk(src)):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(f for f in filenames if f.endswith(".py")):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode() + b"\0")
            with open(path, "rb") as fh:
                digest.update(fh.read())
    commit = "unavailable (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10).stdout.split()
    except (OSError, subprocess.TimeoutExpired):
        out = []
    if len(out) == 2 and os.path.realpath(out[0]) == os.path.realpath(ROOT):
        commit = out[1]
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def _end_to_end(phase: dict) -> tuple[dict, dict]:
    """(the metrics of the result object, the per-workload view printed for people)."""
    ok = [op for op in phase["ops"] if op["ok"]]
    if not ok:
        raise RuntimeError("no operation succeeded")
    per_unit = [op["work_cpu_s"] / op["units"] for op in ok]
    wall_per_unit = [op["work_s"] / op["units"] for op in ok]
    per_min = 60.0 * sum(op["units"] for op in ok) / phase["wall_s"]
    # quality over the first operations, which every run completes, so it is fixed by the seed
    first = [op for op in phase["ops"][: phase["min_ops"]] if op["ok"]]
    metrics = {
        "op_s": statistics.median(per_unit),
        "psnr_db": statistics.fmean(op["psnr"] for op in first),
        "ssim": statistics.fmean(op["ssim"] for op in first),
        "setup_s": statistics.median(phase["setup_s"]),
        "peak_rss_mb": phase["peak_rss_mb"],
    }
    attempted = len(phase["ops"])
    named = {"failed_frac": ((attempted - len(ok)) / attempted, "frac")}
    if phase["workload"] == "train-prior":
        named["train_epoch_s"] = (metrics["op_s"], "s (CPU)")
        named["train_epoch_wall_s"] = (statistics.median(wall_per_unit), "s")
        named["epochs_per_min"] = (per_min, "1/min")
        named["train_dsm_loss"] = (statistics.fmean(op["dsm_loss"] for op in first), "1")
        named["denoise_psnr_db"] = (metrics["psnr_db"], "dB")
        named["denoise_ssim"] = (metrics["ssim"], "1")
    else:
        named["recon_s"] = (metrics["op_s"], "s (CPU)")
        named["recon_samples"] = (len(per_unit), "count")
        named["recon_wall_s"] = (statistics.median(wall_per_unit), "s")
        named["recon_per_min"] = (per_min, "1/min")
        named["psnr_db"] = (metrics["psnr_db"], "dB")
        named["ssim"] = (metrics["ssim"], "1")
        named["stopped_at"] = ([op["stopped_at"] for op in first], "step")
    named["setup_s"] = (metrics["setup_s"], "s (CPU)")
    named["peak_rss_mb"] = (metrics["peak_rss_mb"], "MB")
    return metrics, named


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        return _fail("--seconds must be positive")
    deadline = time.monotonic() + BUDGET_S
    if not os.path.isfile(os.path.join(ROOT, "src", "mricalib", "__init__.py")):
        return _fail(f"no package source under {os.path.join(ROOT, 'src')}; run from a full checkout")
    os.makedirs(OUT_DIR, exist_ok=True)

    try:
        if args.trace:
            plain = _run_phase(args, False, args.seconds / 2, 0, deadline)
            traced = _run_phase(args, True, 0, len(plain["ops"]), deadline)
            phases = [plain, traced]
        else:
            phases = [_run_phase(args, False, args.seconds, 0, deadline)]
        metrics, named = _end_to_end(phases[0])
        if args.trace:
            plain_s = statistics.median(op["work_cpu_s"] for op in phases[0]["ops"] if op["ok"])
            traced_s = statistics.median(op["work_cpu_s"] for op in phases[1]["ops"] if op["ok"])
    except (RuntimeError, OSError, KeyError, ValueError) as exc:
        return _fail(str(exc))

    attempted = sum(len(p["ops"]) for p in phases)
    failed = sum(not op["ok"] for p in phases for op in p["ops"])
    digests = [[op.get("digests") for op in p["ops"]] for p in phases]
    digests_match = len(phases) == 1 or digests[0] == digests[1]
    correct = failed == 0 and digests_match

    if args.trace:
        layers = dict(phases[1]["layers"])
        traced_ok = [op for op in phases[1]["ops"] if op["ok"]]
        layers["process.sys_s"] = (statistics.fmean(op["work_sys_s"] for op in traced_ok), "s")
        layers["process.minor_faults"] = (statistics.fmean(op["minor_faults"] for op in traced_ok), "count")
        layers["trace.overhead_frac"] = (traced_s / plain_s - 1.0, "frac")
        report = {name: {"value": value, "unit": unit} for name, (value, unit) in layers.items()}
    else:
        report = {name: {"value": value, "unit": END_TO_END_UNITS[name]} for name, value in metrics.items()}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "source": _source_identity(),
        "provenance": phases[0]["provenance"],
        "end_to_end_named": {name: {"value": v, "unit": u} for name, (v, u) in named.items()},
        "digests": digests,
        "digests_match": digests_match,
        "errors": [op["error"] for p in phases for op in p["ops"] if not op["ok"]],
        "metrics": report,
    }
    record_path = os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record_path, "w") as fh:
        json.dump(record, fh, indent=1)

    for name, (value, unit) in named.items():
        print(f"{args.workload:>16} {name:<18} {value} {unit}")
    print(f"{args.workload:>16} {'digests_match':<18} {digests_match}  "
          f"(full record: {os.path.relpath(record_path, ROOT)})")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
