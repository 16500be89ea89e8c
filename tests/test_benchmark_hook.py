"""The benchmark harness under perfbench/ reaches into the package by name.

`tracer.py` rebinds package functions and `workloads.py` builds configs,
architectures, phantom specs and priors by keyword, so a rename in the
package breaks the benchmark.  This test runs each workload once, traced,
in a fresh process from the checkout root, as the harness does.
"""

from __future__ import annotations

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = """
import sys
sys.path.insert(0, "perfbench")
import benchenv  # first: it pins the BLAS threads before numpy loads
import workloads
import tracer

tracer.Tracer().install(extra_modules=[workloads])
for name, wl in workloads.WORKLOADS.items():
    workdir = sys.argv[1] + "/" + name
    state = wl.setup(1, workdir)
    raw, _, _ = wl.call(state, 0)
    print(name, wl.check(state, 0, raw)["psnr"])
"""


def test_every_workload_runs_traced_once(tmp_path):
    for name in ("unet-selfcal", "oracle-fidelity", "train-prior"):
        (tmp_path / name).mkdir()
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}  # leave no __pycache__ in perfbench/
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert [line.split()[0] for line in proc.stdout.splitlines()] == [
        "unet-selfcal", "oracle-fidelity", "train-prior"]
