"""The three benchmark workloads, built only from the package's public API.

Each workload has a `setup(seed, workdir)` that makes every input from
the workload seed (the program sees only the generated arrays and files),
a `call(state, i)` that runs one operation and returns
`(raw, stopwatch, work_units)` where the `Stopwatch` times exactly the
API call the workload is about, and a `check(state, i, raw)` that decides whether the
operation succeeded and returns its outputs' digests and quality.
Operations cycle through `CASES` pre-built inputs.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import resource
import time
from contextlib import redirect_stdout

import numpy as np

import benchenv
import mricalib.cli
import mricalib.pipeline
import mricalib.unet
from mricalib.cg import CGConfig
from mricalib.forward import ForwardOperator, add_noise, apply_forward, generate_mask, save_mask, synth_coil_maps
from mricalib.fourier import fft2c
from mricalib.metrics import psnr, ssim
from mricalib.phantom import PhantomSpec, make_phantom
from mricalib.sampler import tweedie_denoise
from mricalib.tensorio import read_tensor, write_tensor

CASES = 8
TRAIN_KINDS = ("ellipse-phantom", "piecewise-smooth")
C8_ARCH = mricalib.unet.UNetArch(widths=(8, 16), bottleneck=32, emb_steps=25, sigma_min=0.01, sigma_max=1.0)
C8_CONFIG = mricalib.pipeline.ReconConfig(
    steps=25, sigma_max=0.5, sigma_min=0.01, gamma_init=1.0, tau_reg=0.001, window=5,
    renoise_mode="stochastic", gamma_step=0.3, delta_step=0.05, tau_ssl=1.0,
    cg=CGConfig(max_iters=20, tol=1e-8),
)
ORACLE_STEPS = 25
TRAIN_EPOCHS = 3
DENOISE_SIGMA = 0.1


class OpFailed(Exception):
    """An operation produced an output that fails its correctness check."""


class Stopwatch:
    """Wall seconds, process CPU seconds, kernel CPU seconds and minor page faults of a block."""

    def __enter__(self):
        self._usage = resource.getrusage(resource.RUSAGE_SELF)
        self._wall, self._cpu = time.perf_counter(), time.process_time()
        return self

    def __exit__(self, *exc):
        self.wall = time.perf_counter() - self._wall
        self.cpu = time.process_time() - self._cpu
        usage = resource.getrusage(resource.RUSAGE_SELF)
        self.sys = usage.ru_stime - self._usage.ru_stime
        self.minflt = usage.ru_minflt - self._usage.ru_minflt


def digest(arr: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


def _seeds(seed: int, i: int) -> dict[str, int]:
    base = 100_000 + 1_000 * seed + 10 * i
    return {"phantom": base, "mask": base + 1, "coils": base + 2, "noise": base + 3}


def _training_set(seed: int, size: int) -> list[np.ndarray]:
    return [
        make_phantom(PhantomSpec(size=size, seed=50_000 + 100 * seed + s, kind=k))
        for s in range(12)
        for k in TRAIN_KINDS
    ]


def _image_ok(img: np.ndarray, shape: tuple[int, int]) -> None:
    if img.shape != shape:
        raise OpFailed(f"image shape {img.shape}, expected {shape}")
    if not np.all(np.isfinite(img.view(np.float64))):
        raise OpFailed("image has non-finite values")


class UNetSelfCal:
    """`reconstruct` with calibration and the risk walk on, criterion-8 U-Net prior."""

    name = "unet-selfcal"
    steps_per_op = C8_CONFIG.steps
    size, coils, accel, noise = 64, 2, 4.0, 0.01

    def setup(self, seed: int, workdir: str):
        benchenv.verify_fixture()
        weights = mricalib.unet.load_weights(benchenv.FIXTURE_WEIGHTS)
        if weights.arch != C8_ARCH:
            raise RuntimeError(f"fixture architecture {weights.arch} is not the criterion-8 one")
        prior = mricalib.unet.UNetScorePrior(weights)
        cases = []
        for i in range(CASES):
            s = _seeds(seed, i)
            ref = make_phantom(PhantomSpec(size=self.size, seed=s["phantom"],
                                           contrast_exponent=1.5, bias_amplitude=0.3))
            mask = generate_mask("Gaussian1D", self.size, self.size, self.accel, 0.08, seed=s["mask"])
            op = ForwardOperator(mask, synth_coil_maps(self.coils, self.size, self.size, seed=s["coils"]))
            y = add_noise(apply_forward(ref, op), mask, self.noise, seed=s["noise"])
            cases.append((y, op, ref))
        return {"prior": prior, "cases": cases}

    def call(self, state, i):
        y, op, ref = state["cases"][i % CASES]
        with Stopwatch() as sw:
            image, report = mricalib.pipeline.reconstruct(y, op, state["prior"], C8_CONFIG, reference=ref)
        return (image, report), sw, 1

    def check(self, state, i, raw):
        image, report = raw
        _image_ok(image, (self.size, self.size))
        if len(report.records) < C8_CONFIG.steps:
            raise OpFailed(f"report has {len(report.records)} records, expected {C8_CONFIG.steps}")
        return {"psnr": report.psnr, "ssim": report.ssim, "digests": [digest(image)],
                "stopped_at": report.stopped_at}


class OracleFidelity:
    """`mricalib reconstruct --prior gaussian` through `cli.main`, tensors written at set-up."""

    name = "oracle-fidelity"
    steps_per_op = ORACLE_STEPS
    size, coils, accel, noise = 96, 8, 4.0, 0.01

    def setup(self, seed: int, workdir: str):
        train = _training_set(seed, self.size)
        mean = np.mean(train, axis=0)
        spectrum = np.mean([np.abs(fft2c(p - mean)) ** 2 for p in train], axis=0) + 1e-4
        write_tensor(os.path.join(workdir, "prior_mean.bt"), mean)
        write_tensor(os.path.join(workdir, "prior_spectrum.bt"), spectrum)
        cases = []
        for i in range(CASES):
            s = _seeds(seed, i)
            ref = make_phantom(PhantomSpec(size=self.size, seed=s["phantom"], kind=TRAIN_KINDS[i % 2]))
            mask = generate_mask("Gaussian1D", self.size, self.size, self.accel, 0.08, seed=s["mask"])
            sens = synth_coil_maps(self.coils, self.size, self.size, seed=s["coils"])
            y = add_noise(apply_forward(ref, ForwardOperator(mask, sens)), mask, self.noise, seed=s["noise"])
            case_dir = os.path.join(workdir, f"case{i}")
            os.makedirs(case_dir)
            write_tensor(os.path.join(case_dir, "kspace.bt"), y)
            write_tensor(os.path.join(case_dir, "sens.bt"), sens)
            write_tensor(os.path.join(case_dir, "reference.bt"), ref)
            save_mask(os.path.join(case_dir, "mask.bt"), mask)
            cases.append(case_dir)
        return {"workdir": workdir, "cases": cases}

    def call(self, state, i):
        case_dir = state["cases"][i % CASES]
        out_dir = os.path.join(state["workdir"], f"out{i}")
        argv = [
            "reconstruct",
            "--kspace", os.path.join(case_dir, "kspace.bt"),
            "--mask", os.path.join(case_dir, "mask.bt"),
            "--sens", os.path.join(case_dir, "sens.bt"),
            "--reference", os.path.join(case_dir, "reference.bt"),
            "--out-dir", out_dir,
            "--prior", "gaussian",
            "--prior-mean", os.path.join(state["workdir"], "prior_mean.bt"),
            "--prior-spectrum", os.path.join(state["workdir"], "prior_spectrum.bt"),
            "--steps", str(ORACLE_STEPS),
            "--disable-fpc",
        ]
        with redirect_stdout(io.StringIO()), Stopwatch() as sw:
            code = mricalib.cli.main(argv)
        return (code, out_dir), sw, 1

    def check(self, state, i, raw):
        code, out_dir = raw
        if code != 0:
            raise OpFailed(f"cli exit code {code}")
        image = read_tensor(os.path.join(out_dir, "recon.bt"))
        _image_ok(image, (self.size, self.size))
        with open(os.path.join(out_dir, "report.json")) as fh:
            report = json.load(fh)
        if len(report["records"]) < ORACLE_STEPS:
            raise OpFailed(f"report has {len(report['records'])} records, expected {ORACLE_STEPS}")
        return {"psnr": report["psnr"], "ssim": report["ssim"], "digests": [digest(image)],
                "stopped_at": report["stopped_at"]}


class TrainPrior:
    """`train_toy_denoiser` with the criterion-8 recipe, then held-out `dsm_loss`.

    Quality is the trained network's one-step posterior-mean denoise of
    held-out phantoms at a fixed noise level, so it is measured in the
    same units (PSNR, SSIM) as the reconstruction workloads.
    """

    name = "train-prior"
    steps_per_op = 0
    size = 64

    def setup(self, seed: int, workdir: str):
        heldout = [
            make_phantom(PhantomSpec(size=self.size, seed=_seeds(seed, i)["phantom"], kind=TRAIN_KINDS[i % 2]))
            for i in range(4)
        ]
        rng = np.random.default_rng(_seeds(seed, 0)["noise"])
        noisy = [
            h + DENOISE_SIGMA * (rng.standard_normal(h.shape) + 1j * rng.standard_normal(h.shape))
            for h in heldout
        ]
        return {"train": _training_set(seed, self.size), "heldout": heldout, "noisy": noisy,
                "dsm_seed": _seeds(seed, 0)["mask"]}

    def call(self, state, i):
        with Stopwatch() as sw:
            weights = mricalib.unet.train_toy_denoiser(
                state["train"], epochs=TRAIN_EPOCHS, seed=0, arch=C8_ARCH, lr=0.3, batch_size=4,
            )
        loss = mricalib.unet.dsm_loss(weights, state["heldout"], seed=state["dsm_seed"])
        return (weights, loss), sw, TRAIN_EPOCHS

    def check(self, state, i, raw):
        weights, loss = raw
        if not np.isfinite(loss):
            raise OpFailed(f"held-out DSM loss {loss}")
        flat = np.concatenate([weights.params[k].ravel() for k in C8_ARCH.param_shapes()])
        if not np.all(np.isfinite(flat)):
            raise OpFailed("trained weights have non-finite values")
        prior = mricalib.unet.UNetScorePrior(weights, calibratable=False)
        denoised = [tweedie_denoise(x, DENOISE_SIGMA, prior) for x in state["noisy"]]
        for d in denoised:
            _image_ok(d, (self.size, self.size))
        return {
            "psnr": float(np.mean([psnr(d, h) for d, h in zip(denoised, state["heldout"])])),
            "ssim": float(np.mean([ssim(d, h) for d, h in zip(denoised, state["heldout"])])),
            "digests": [digest(flat)] + [digest(d) for d in denoised],
            "dsm_loss": loss,
        }


WORKLOADS = {w.name: w for w in (UNetSelfCal(), OracleFidelity(), TrainPrior())}
