"""Alternating reconstruction loop, ablation harness, and report output.

Each reverse step runs, in order:

1. the calibration update (when enabled): one exact-gradient step from the
   reconstruction-set-only iterate described below;
2. that iterate's own step (when calibration is enabled): the one-step
   reconstruction the calibration objective scored, that is the denoise
   step at the step's incoming calibration vector and a data-fidelity
   solve against the reconstruction-set measurements only;
3. the main iterate's denoise step with the updated calibration vector and
   its data-fidelity solve against all measurements at the current weight
   gamma;
4. the regularization-weight update with its sliding-window stop (when
   enabled);
5. the transition of both iterates to the next noise level, with the
   same renoise seed.

`reconstruct` issues every denoise and data-fidelity solve of a step: the
calibration's one-step reconstruction x_hat = M⁻¹(gamma Aᴴy + denoise) on
the reconstruction set, M = gamma AᴴA + I, which `ssl_loss` scores and
which is also the reconstruction-set step, its adjoint solve M⁻¹(tau g),
the main step and the risk probes.  So a calibrated step solves on the
reconstruction set twice and evaluates the prior there once, and the
calibration gradient reuses that evaluation's decoder walk.  Steps 3 and 4
denoise at one (sigma, delta), so a step denoises each of their inputs
once and the solves share the result.  The main step and the risk probes
solve against all measurements, so each of their images is solved once for
all the step's weights, from one CG sequence: x for gamma and the two
probe weights, x + eps mu for the probes.  With the walk stopped or off
the family is gamma alone, and the solve is the single-weight one.  Each
solve reads a measurement set through Aᴴy, computed once before the loop.

The reconstruction-set-only iterate keeps the held-out k-space out of
the calibration input at no extra prior evaluation or solve: its step is
the one the objective scored, at the calibration vector the step came in
with, one update behind the main iterate's.  With calibration off it is
never advanced and the main iterate's path is unchanged.

For a circulant-Gaussian prior the per-level fixed point of denoise + solve
obeys  (gamma AᴴA + sigma^2 (Sigma + sigma^2 I)^(-1)) x = gamma Aᴴy,
so at a terminal level of 1 the loop lands on the closed-form MAP
solution  (gamma AᴴA + (Sigma + sigma_min^2 I)^(-1))^(-1) gamma Aᴴy,
which the oracle tests pin down.

All randomness is seeded, so a full run is bit-reproducible within one
OpenBLAS kernel family (SkylakeX, Haswell/Zen, ...).
"""

from __future__ import annotations

import dataclasses
import os
import time
from dataclasses import dataclass

import numpy as np

from .calibration import (
    DeltaOptState,
    delta_penalty,
    partition_mask,
    ssl_loss,
    update_delta,
)
from .cg import CGConfig, solve_p3, solve_p3_family
from .errors import InvalidArgumentError, NumericError
from .forward import (
    ForwardOperator,
    add_noise,
    apply_adjoint,
    apply_forward,
    generate_mask,
    synth_coil_maps,
)
from .metrics import psnr, ssim
from .phantom import PhantomSpec, make_phantom
from .priors import ScorePrior, identity_delta
from .sampler import RENOISE_MODES, build_schedule, renoise, tweedie_denoise
from .regularization import (
    RegAdaptState,
    convergence_criterion,
    probe_weights,
    sure_loss,
    update_gamma,
)
from .settings import COUNT, NON_NEGATIVE, POSITIVE, SEED, check_settings, one_of, setting

SURE_EPS_SCALE = 1e-3  # risk probe size relative to max |x| of the iterate
HOLDOUT_FRACTION = 0.2  # share of sampled k-space held out for calibration


@dataclass
class ReconConfig:
    """Every run setting; the command line and the report derive from these fields."""

    steps: int = setting(100, "reverse steps on the noise ladder", COUNT)
    sigma_max: float = setting(1.0, "noise level of the first step", POSITIVE)
    sigma_min: float = setting(0.01, "noise level of the last step", POSITIVE)
    gamma_init: float = setting(1.0, "initial data-fidelity weight (0 turns fidelity off)",
                                NON_NEGATIVE)
    tau_reg: float = setting(0.001, "early-stop threshold of the weight walk", NON_NEGATIVE)
    window: int = setting(5, "sliding-window length of the early stop", COUNT)
    cg: CGConfig = setting(help="data-fidelity solver", default_factory=CGConfig)
    tau_ssl: float = setting(1.0, "weight of the held-out loss", POSITIVE)
    enable_fpc: bool = setting(True, "prior calibration (the flag turns it off)",
                               flag="--disable-fpc")
    enable_rpa: bool = setting(True, "regularization-weight walk (the flag turns it off)",
                               flag="--disable-rpa")
    seed_init: int = setting(0, "seed of the initial noise image", SEED)
    seed_partition: int = setting(0, "seed of the k-space holdout split", SEED)
    seed_mc: int = setting(0, "seed of the risk estimate's probes", SEED)
    seed_noise: int = setting(0, "seed of the renoise transitions", SEED)
    renoise_mode: str = setting("deterministic", "transition to the next noise level",
                                one_of(*RENOISE_MODES))
    delta_step: float = setting(0.05, "calibration step size", POSITIVE)
    gamma_step: float = setting(0.1, "weight-walk step size in log gamma", POSITIVE)

    def __post_init__(self):
        check_settings(self)
        if not self.sigma_max > self.sigma_min:
            raise InvalidArgumentError("sigma_max must exceed sigma_min")
        if self.gamma_init == 0 and self.enable_rpa:
            raise InvalidArgumentError("gamma_init = 0 (fidelity off) requires enable_rpa = False")


@dataclass
class StepRecord:
    """One reverse step; report.json and traces.txt carry every field in this order."""

    t: int
    sigma: float
    delta: np.ndarray
    gamma: float
    # walk objectives, not a plain held-out error or risk:
    loss_ssl: float | None  # tau * held-out error + delta penalty at the step's incoming delta
    loss_reg: float | None  # mean risk estimate at the two gamma probes
    conv_metric: float | None
    cg_residual: float
    cg_iters: int


@dataclass
class ReconReport:
    """What a run reports, in the key order of report.json (after the config)."""

    stopped_at: int | None  # 1-based step index at which gamma froze
    psnr: float | None
    ssim: float | None
    wall_clock: float
    records: list[StepRecord]


def reconstruct(
    y: np.ndarray,
    op: ForwardOperator,
    prior: ScorePrior,
    cfg: ReconConfig,
    reference: np.ndarray | None = None,
) -> tuple[np.ndarray, ReconReport]:
    """Run the full alternating reconstruction; returns (image, report).

    The report always carries exactly `steps` records; an early stop only
    freezes the regularization weight, it never truncates the loop.
    Non-finite k-space, sensitivities or reference raise NumericError naming
    which, as do sensitivities whose pixelwise sum_c |S_c|^2 exceeds 1 (+1e-6):
    the operator assumes normalized maps, and maps below 1 stay legal.  A
    reference of another shape or with a zero peak raises InvalidArgumentError.
    """
    started = time.perf_counter()
    y = np.asarray(y, dtype=np.complex128)
    if y.shape != (op.coils, *op.shape):
        raise InvalidArgumentError(f"k-space shape {y.shape} does not match operator")
    if reference is not None and np.shape(reference) != op.shape:
        raise InvalidArgumentError(f"reference shape {np.shape(reference)} is not {op.shape}")
    for name, data in (("k-space", y), ("sensitivities", op.sens), ("reference", reference)):
        if data is not None and not np.all(np.isfinite(data)):
            raise NumericError(f"{name} contains non-finite values")
    sens_power = float(np.max(np.sum(np.abs(op.sens) ** 2, axis=0)))
    if sens_power > 1 + 1e-6:
        raise NumericError(f"sensitivities exceed sum_c |S_c|^2 = 1 (max {sens_power:.6g})")
    if reference is not None and not np.abs(reference).max() > 0:
        raise InvalidArgumentError("reference maximum must be positive")  # psnr's rule

    sigmas = build_schedule(cfg.steps, cfg.sigma_max, cfg.sigma_min)
    run_fpc = cfg.enable_fpc and prior.layer_count > 0
    delta_state = DeltaOptState(identity_delta(prior.layer_count))
    reg_state = RegAdaptState(cfg.gamma_init) if cfg.enable_rpa else None
    gamma = cfg.gamma_init

    if run_fpc:
        part = partition_mask(op.mask, HOLDOUT_FRACTION, cfg.seed_partition)
        op_l, op_g = op.with_mask(part.lambda_bits), op.with_mask(part.gamma_bits)
        x_zf_l, y_g = apply_adjoint(y, op_l), y * part.gamma_bits[None]
    x_zf = apply_adjoint(y, op)

    rng = np.random.default_rng(cfg.seed_init)
    x = sigmas[-1] * (rng.standard_normal(op.shape) + 1j * rng.standard_normal(op.shape))
    x_lambda = x  # reconstruction-set-only iterate, advanced only when calibrating

    records: list[StepRecord] = []
    stopped_at: int | None = None

    for t in range(cfg.steps, 0, -1):
        sigma = float(sigmas[t - 1])

        loss_ssl = None
        if run_fpc:
            scored: dict[bytes, np.ndarray] = {}  # x_hat by the vector it was built at

            def objective(d):
                x_hat = scored[d.tobytes()] = solve_p3(
                    tweedie_denoise(x_lambda, sigma, prior, d), x_zf_l, op_l, gamma, cfg.cg).x
                loss, g = ssl_loss(x_hat, y_g, op_g)
                q = solve_p3(cfg.tau_ssl * g, np.zeros_like(g), op_l, gamma, cfg.cg).x
                return (cfg.tau_ssl * loss + delta_penalty(d),
                        sigma**2 * prior.delta_vjp(x_lambda, sigma, d, q) + (d - 1))

            delta_in = delta_state.delta
            delta_state = update_delta(delta_state, objective, cfg.delta_step)
            loss_ssl = delta_state.loss_history[-1]
            x_lambda_hat = scored[delta_in.tobytes()]  # the step the objective scored

        denoised: dict[bytes, np.ndarray] = {}  # x, x + eps mu; sigma, delta fixed

        def denoise(v):
            key = v.tobytes()
            if key not in denoised:
                denoised[key] = tweedie_denoise(v, sigma, prior, delta_state.delta)
            return denoised[key]

        walk = cfg.enable_rpa and not reg_state.stopped
        probes = probe_weights(gamma) if walk else ()
        solved: dict[bytes, dict] = {}  # x: gamma and the probes; x + eps mu: the probes

        def fidelity(v, weights):
            key = v.tobytes()
            if key not in solved:
                family = solve_p3_family(denoise(v), x_zf, op, weights, cfg.cg)
                solved[key] = dict(zip(weights, family))
            return solved[key]

        p3 = fidelity(x, (gamma, *probes))[gamma]

        loss_reg = None
        conv = None
        if walk:
            eps = max(SURE_EPS_SCALE * float(np.max(np.abs(x))), 1e-12)

            def composite(g, v):
                return fidelity(v, probes)[g].x

            def loss_fn(g):
                return sure_loss(g, x, x_zf, composite, eps, (cfg.seed_mc, t))

            reg_state = update_gamma(reg_state, loss_fn, cfg.gamma_step)
            gamma = reg_state.gamma
            loss_reg = reg_state.loss_history[-1]
            conv = convergence_criterion(reg_state.loss_history, cfg.window)
            if conv is not None and conv < cfg.tau_reg:
                reg_state.stopped = True
                stopped_at = t

        sigma_next = float(sigmas[t - 2]) if t >= 2 else 0.0
        if run_fpc:
            x_lambda = renoise(x_lambda_hat, x_lambda, sigma_next, sigma, cfg.renoise_mode,
                               seed=(cfg.seed_noise, t))
        x = renoise(p3.x, x, sigma_next, sigma, cfg.renoise_mode, seed=(cfg.seed_noise, t))

        records.append(
            StepRecord(
                t=t,
                sigma=sigma,
                delta=delta_state.delta.copy(),
                gamma=gamma,
                loss_ssl=loss_ssl,
                loss_reg=loss_reg,
                conv_metric=conv,
                cg_residual=p3.residual,
                cg_iters=p3.iters,
            )
        )

    return x, ReconReport(
        stopped_at=stopped_at,
        psnr=None if reference is None else psnr(x, reference),
        ssim=None if reference is None else ssim(x, reference),
        wall_clock=time.perf_counter() - started,
        records=records,
    )


# ---------------------------------------------------------------------------
# ablation harness
# ---------------------------------------------------------------------------

ABLATION_ROWS = (
    ("Baseline", False, False),
    ("w/o RPA", True, False),  # calibration only
    ("w/o FPC", False, True),  # weight adaptation only
    ("Ours", True, True),
)


def shifted_cases(
    count: int,
    spec: PhantomSpec,
    coils: int,
    kind: str = "Gaussian1D",
    accel: float = 4.0,
    acs_fraction: float = 0.08,
    noise_std: float = 0.0,
    seed_mask: int = 0,
    seed_coils: int = 0,
    seed_noise: int = 0,
) -> list[dict]:
    """Simulated (y, op, reference) cases for run_ablation.

    Case i draws its phantom from spec with seed spec.seed + i, and its
    mask, coil maps and measurement noise from seed_mask + i,
    seed_coils + i and seed_noise + i.
    """
    cases = []
    for i in range(count):
        phantom = make_phantom(dataclasses.replace(spec, seed=spec.seed + i))
        mask = generate_mask(kind, spec.size, spec.size, accel, acs_fraction, seed_mask + i)
        op = ForwardOperator(mask, synth_coil_maps(coils, spec.size, spec.size, seed_coils + i))
        y = add_noise(apply_forward(phantom, op), mask, noise_std, seed_noise + i)
        cases.append({"y": y, "op": op, "reference": phantom})
    return cases


def run_ablation(
    cases: list[dict],
    prior: ScorePrior,
    cfg: ReconConfig,
) -> list[dict]:
    """Run the four toggle combinations over (y, op, reference) cases.

    Returns one row per combination with the per-case PSNRs and the
    mean/std PSNR and SSIM; deterministic for fixed seeds.
    """
    if not cases:
        raise InvalidArgumentError("need at least one case")
    table = []
    for label, fpc, rpa in ABLATION_ROWS:
        row_cfg = dataclasses.replace(cfg, enable_fpc=fpc, enable_rpa=rpa)
        psnrs, ssims = [], []
        for case in cases:
            _, report = reconstruct(case["y"], case["op"], prior, row_cfg,
                                    reference=case["reference"])
            psnrs.append(report.psnr)
            ssims.append(report.ssim)
        table.append(
            {
                "label": label,
                "enable_fpc": fpc,
                "enable_rpa": rpa,
                "psnr_cases": psnrs,
                "psnr_mean": float(np.mean(psnrs)),
                "psnr_std": float(np.std(psnrs)),
                "ssim_mean": float(np.mean(ssims)),
                "ssim_std": float(np.std(ssims)),
            }
        )
    return table


def paired_gain(ours: dict, row: dict) -> tuple[float, int]:
    """Mean per-case PSNR of `ours` minus `row`, and the cases where `ours` is higher."""
    diff = np.subtract(ours["psnr_cases"], row["psnr_cases"])
    return float(np.mean(diff)), int(np.sum(diff > 0))


def format_ablation_table(table: list[dict]) -> str:
    """Mean±std per row; rows other than Ours add the paired Ours − row gain and wins."""
    ours = next(row for row in table if row["label"] == "Ours")
    lines = [f"{'Method':<10} {'PSNR (dB)':>18} {'SSIM':>18} {'Ours − row (dB)':>16} "
             f"{'wins':>7}"]
    for row in table:
        line = (
            f"{row['label']:<10} "
            f"{row['psnr_mean']:>9.3f}±{row['psnr_std']:<8.3f} "
            f"{row['ssim_mean']:>9.4f}±{row['ssim_std']:<8.4f}"
        )
        if row is not ours:
            gain, wins = paired_gain(ours, row)
            won = f"{wins}/{len(row['psnr_cases'])}"
            line += f" {gain:>+16.3f} {won:>7}"
        lines.append(line)
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# report output
# ---------------------------------------------------------------------------


def _write_pgm(path: str, image: np.ndarray, peak: float | None = None) -> None:
    """8-bit binary portable graymap scaled by the image (or given) peak."""
    mag = np.abs(np.asarray(image))
    peak = float(mag.max()) if peak is None else float(peak)
    scale = 255.0 / peak if peak > 0 else 0.0
    data = np.clip(np.round(mag * scale), 0, 255).astype(np.uint8)
    h, w = data.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode())
        fh.write(data.tobytes())


def trace_columns(records: list[StepRecord]) -> str:
    """One row per step, one .8g column per StepRecord field (None as nan), delta spread last."""
    names = [f.name for f in dataclasses.fields(StepRecord) if f.name != "delta"]
    n_delta = records[0].delta.size if records else 0
    lines = ["# " + " ".join(names + [f"delta_{i}" for i in range(n_delta)])]
    for rec in records:
        values = [getattr(rec, name) for name in names] + list(rec.delta)
        lines.append(" ".join("nan" if v is None else f"{v:.8g}" for v in values))
    return "\n".join(lines) + "\n"


def emit_images(image: np.ndarray, reference: np.ndarray | None,
                out_dir: str | os.PathLike) -> None:
    """Write the graymaps: reconstruction, and with a reference also reference and error."""
    out_dir = os.fspath(out_dir)
    os.makedirs(out_dir, exist_ok=True)
    _write_pgm(os.path.join(out_dir, "recon.pgm"), image)
    if reference is not None:
        peak = float(np.abs(reference).max())
        _write_pgm(os.path.join(out_dir, "reference.pgm"), reference)
        error = np.abs(np.abs(image) - np.abs(reference))
        _write_pgm(os.path.join(out_dir, "error.pgm"), error, peak=peak)
