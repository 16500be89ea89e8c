"""In-memory span tracing around the package's layer functions.

`Tracer.install()` rebinds each traced function in every loaded
`mricalib` module that imported it (`from .forward import apply_forward`
makes a second binding in `cg`, `calibration`, `pipeline`, ...) and in
the benchmark modules it is given, so calls between layers pass through
a wrapper without any change to the package.  Each wrapper records one span: name, start, end, the span that
was open when it started (its parent) and the current operation id.
Spans stay in memory until `dump()`; `summary()` turns them into
per-operation counts and self times, where self time is a span's duration
minus the time covered by its direct children (calls are single-threaded,
so children nest strictly inside their parent).

Only a traced benchmark process installs the tracer; untraced runs never
import this module.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np

from mricalib import (
    calibration, cg, cli, forward, fourier, metrics, phantom, pipeline, priors, regularization,
    sampler, tensorio, unet,
)

BYTES_C128 = 16


def _op_arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # (name id, start ns, end ns, parent span index, operation id, measured value)
        self.spans: list[tuple | None] = []
        self.stack: list[int] = []
        self.op_id: int | None = None  # None: not attributed to any operation
        self._mask_kind: dict[int, tuple[np.ndarray, str]] = {}

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _wrap(self, name, fn, tag=None, measure=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        fixed = self._name_id(name) if tag is None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nid = fixed if tag is None else self._name_id(name + tag(args, kwargs))
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (nid, t0, t1, parent, self.op_id, None)
            if measure is not None:
                spans[idx] = (nid, t0, t1, parent, self.op_id, measure(args, kwargs, result))
            return result

        return wrapper

    def _mask_tag(self, args, kwargs):
        """'.col' when the operator samples whole k-space columns, else '.2d'."""
        bits = _op_arg(args, kwargs, 1, "op").mask.bits
        hit = self._mask_kind.get(id(bits))
        if hit is None or hit[0] is not bits:
            columns = bool(np.all(bits.min(axis=0) == bits.max(axis=0)))
            hit = self._mask_kind[id(bits)] = (bits, ".col" if columns else ".2d")
        return hit[1]

    @staticmethod
    def _solve_measure(args, kwargs, result):
        """(iterations, hit max_iters above tol, normal-operator applications, bytes computed)."""
        op = _op_arg(args, kwargs, 2, "op")
        gamma = _op_arg(args, kwargs, 3, "gamma")
        cfg = _op_arg(args, kwargs, 4, "cfg")
        maxed = bool(result.iters >= cfg.max_iters and result.residual > cfg.tol)
        applications = result.iters + 1 if gamma > 0 else 0
        return (result.iters, maxed, applications, applications * normal_op_bytes(op.coils, *op.shape))

    @staticmethod
    def _file_bytes(args, kwargs, result):
        return os.path.getsize(_op_arg(args, kwargs, 0, "path"))

    # -- installing --------------------------------------------------------

    def install(self, extra_modules=()) -> None:
        """Rebind every traced function in the package and in `extra_modules`."""
        mask_tag, solve, nbytes = self._mask_tag, self._solve_measure, self._file_bytes
        targets = [
            (fourier.fft2c, None, None),
            (fourier.ifft2c, None, None),
            (forward.apply_forward, mask_tag, None),
            (forward.apply_adjoint, mask_tag, None),
            (cg.solve_p3, None, solve),
            (unet.unet_forward, None, None),
            (unet.low_band, None, None),
            (unet.train_toy_denoiser, None, None),
            (unet.dsm_loss, None, None),
            (calibration.update_delta, None, None),
            (calibration.ssl_loss, None, None),
            (calibration.partition_mask, None, None),
            (regularization.update_gamma, None, None),
            (regularization.sure_loss, None, None),
            (sampler.tweedie_denoise, None, None),
            (sampler.renoise, None, None),
            (pipeline.reconstruct, None, None),
            (metrics.psnr, None, None),
            (metrics.ssim, None, None),
            (tensorio.read_tensor, None, nbytes),
            (tensorio.write_tensor, None, nbytes),
            (cli.main, None, None),
            (phantom.make_phantom, None, None),
        ]
        modules = [m for n, m in sys.modules.items() if n == "mricalib" or n.startswith("mricalib.")]
        modules += list(extra_modules)
        for original, tag, measure in targets:
            name = f"{original.__module__.rsplit('.', 1)[1]}.{original.__name__}"
            wrapper = self._wrap(name, original, tag, measure)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
        for cls in (priors.GaussianPrior, unet.UNetScorePrior):
            cls.evaluate = self._wrap("priors.evaluate", cls.__dict__["evaluate"])

    # -- output ------------------------------------------------------------

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": [list(s) for s in self.spans]}, fh)

    def summary(self, n_ops: int, n_setups: int, steps_per_op: int) -> dict[str, tuple[float, str]]:
        """Per-operation layer metrics as {name: (value, unit)}; see README.md for their meaning."""
        child_ns = defaultdict(int)
        for nid, t0, t1, parent, _, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
        calls = defaultdict(int)
        incl = defaultdict(int)
        self_ns = defaultdict(int)
        values = defaultdict(list)
        setup_self_ns = defaultdict(int)
        for idx, (nid, t0, t1, _, op, value) in enumerate(self.spans):
            name = self.names[nid]
            own = t1 - t0 - child_ns[idx]
            if op is not None and op < 0:
                setup_self_ns[name] += own
            if op is None or op < 0:
                continue
            calls[name] += 1
            incl[name] += t1 - t0
            self_ns[name] += own
            if value is not None:
                values[name].append(value)

        per_op = 1.0 / n_ops
        steps = steps_per_op * n_ops
        out: dict[str, tuple[float, str]] = {}

        def ratio(num, den):
            return num / den if den else 0.0

        def layer(name, *, count=True, self_s=True, total=False):
            if count:
                out[f"{name}.calls"] = (calls[name] * per_op, "count")
            if self_s:
                out[f"{name}.self_s"] = (self_ns[name] * 1e-9 * per_op, "s")
            if total:
                out[f"{name}.total_s"] = (incl[name] * 1e-9 * per_op, "s")

        for name in ("fourier.fft2c", "fourier.ifft2c"):
            layer(name)
        for fn in ("apply_forward", "apply_adjoint"):
            for kind in ("col", "2d"):
                layer(f"forward.{fn}.{kind}")

        solves = values["cg.solve_p3"]
        iters = sum(s[0] for s in solves)
        out["forward.normal_op.calls"] = (sum(s[2] for s in solves) * per_op, "count")
        out["forward.normal_op.bytes_computed"] = (sum(s[3] for s in solves) * per_op, "B")
        layer("cg.solve_p3")
        out["cg.iters"] = (iters * per_op, "count")
        out["cg.iters_per_solve"] = (ratio(iters, len(solves)), "count")
        out["cg.maxed_frac"] = (ratio(sum(s[1] for s in solves), len(solves)), "frac")

        layer("unet.unet_forward")
        out["unet.unet_forward.call_ms"] = (
            ratio(incl["unet.unet_forward"] * 1e-6, calls["unet.unet_forward"]), "ms")
        layer("unet.low_band")
        out["unet.band_share"] = (ratio(incl["unet.low_band"], incl["unet.unet_forward"]), "frac")
        layer("unet.train_toy_denoiser", count=False)
        layer("unet.dsm_loss", count=False)

        layer("calibration.update_delta", self_s=False, total=True)
        layer("calibration.ssl_loss", self_s=False)
        layer("calibration.partition_mask", count=False)
        out["pipeline.prior_evals_per_step"] = (ratio(calls["priors.evaluate"], steps), "count")
        out["pipeline.cg_solves_per_step"] = (ratio(calls["cg.solve_p3"], steps), "count")

        layer("regularization.update_gamma", self_s=False, total=True)
        layer("regularization.sure_loss", self_s=False)
        out["regularization.active_steps_frac"] = (
            ratio(calls["regularization.update_gamma"], steps), "frac")

        layer("priors.evaluate")
        layer("sampler.tweedie_denoise", count=False)
        layer("sampler.renoise", count=False)
        layer("pipeline.reconstruct", count=False)
        layer("metrics.psnr", count=False)
        layer("metrics.ssim", count=False)
        for name in ("tensorio.read_tensor", "tensorio.write_tensor"):
            layer(name)
            out[f"{name}.bytes"] = (sum(values[name]) * per_op, "B")
        layer("cli.main", count=False)
        out["phantom.make_phantom.self_s"] = (setup_self_ns["phantom.make_phantom"] * 1e-9 / n_setups, "s")
        return out


def normal_op_bytes(coils: int, height: int, width: int) -> int:
    """Bytes one AᴴA application reads and writes, computed from array sizes.

    Counts every full-array pass of the current implementation: forward
    (coil product, ifftshift, FFT, fftshift, mask) and adjoint (mask,
    ifftshift, inverse FFT, fftshift, conj, coil product, coil sum), each
    pass reading its inputs and writing its output once; the uint8 mask
    is one byte a pixel.  Cache reuse is ignored, so this is an upper
    bound on memory traffic, not a measurement.
    """
    n = height * width
    stack = coils * n * BYTES_C128
    image = n * BYTES_C128
    fwd = (2 * stack + image) + 3 * (2 * stack) + (2 * stack + n)
    adj = (2 * stack + n) + 3 * (2 * stack) + 2 * stack + 3 * stack + (stack + image)
    return fwd + adj
