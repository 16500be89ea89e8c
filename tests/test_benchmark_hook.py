"""The benchmark harness under perfbench/ reaches into the package by name.

`tracer.py` rebinds package functions and `workloads.py` builds configs,
architectures, phantom specs and priors by keyword, so a rename in the
package breaks the benchmark.  This test runs each workload once, traced,
in a fresh process from the checkout root, as the harness does.  A loop
that stops calling a traced name would silently zero that name's
per-layer metrics, so the test also checks that the walks' names record
spans during the traced call.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = """
import json
import sys
from collections import Counter
sys.path.insert(0, "perfbench")
import benchenv  # first: it pins the BLAS threads before numpy loads
import workloads
import tracer

trace = tracer.Tracer()
trace.install(extra_modules=[workloads])
for name, wl in workloads.WORKLOADS.items():
    workdir = sys.argv[1] + "/" + name
    state = wl.setup(1, workdir)
    first = len(trace.spans)
    raw, _, _ = wl.call(state, 0)
    calls = Counter(trace.names[span[0]] for span in trace.spans[first:])
    print(name, wl.check(state, 0, raw)["psnr"], json.dumps(calls))
"""

# the traced names each workload's call must reach
WALK_NAMES = {
    "unet-selfcal": ["regularization.update_gamma", "regularization.sure_loss",
                     "calibration.update_delta", "calibration.ssl_loss",
                     "unet.unet_forward", "unet.low_band"],
    "oracle-fidelity": ["regularization.update_gamma"],
    "train-prior": [],
}


def test_every_workload_runs_traced_once(tmp_path):
    for name in WALK_NAMES:
        (tmp_path / name).mkdir()
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}  # leave no __pycache__ in perfbench/
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = [line.split(maxsplit=2) for line in proc.stdout.splitlines()]
    assert [name for name, _, _ in lines] == list(WALK_NAMES)
    for name, _, calls in lines:
        calls = json.loads(calls)
        for traced in WALK_NAMES[name]:
            assert calls.get(traced, 0) > 0, f"{name} records no {traced} span: {calls}"
