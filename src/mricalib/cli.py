"""Command-line surface.

Subcommands:
    simulate     phantom -> k-space / mask / sensitivities tensor files
    reconstruct  k-space + prior -> image, report, traces
    ablate       toggle-grid run over shifted phantoms -> table
    traces       saved report JSON -> plain-text trace columns

Exit codes: 0 success, 2 argument error, 3 numeric error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from .cg import CGConfig
from .errors import FormatError, InvalidArgumentError, NumericError
from .forward import (
    ForwardOperator,
    add_noise,
    apply_forward,
    generate_mask,
    load_mask,
    save_mask,
    synth_coil_maps,
)
from .phantom import PhantomSpec, make_phantom
from .pipeline import (
    ReconConfig,
    ReconReport,
    StepRecord,
    emit_images,
    format_ablation_table,
    reconstruct,
    run_ablation,
    trace_columns,
)
from .priors import GaussianPrior, white_prior
from .tensorio import read_tensor, write_tensor
from .unet import UNetScorePrior, load_weights


def _add_recon_flags(p: argparse.ArgumentParser) -> None:
    d = ReconConfig()
    p.add_argument("--steps", type=int, default=d.steps)
    p.add_argument("--sigma-max", type=float, default=d.sigma_max)
    p.add_argument("--sigma-min", type=float, default=d.sigma_min)
    p.add_argument("--gamma-init", type=float, default=d.gamma_init)
    p.add_argument("--delta-init", type=float, default=d.delta_init)
    p.add_argument("--tau-reg", type=float, default=d.tau_reg)
    p.add_argument("--window", type=int, default=d.window)
    p.add_argument("--cg-iters", type=int, default=CGConfig().max_iters)
    p.add_argument("--cg-tol", type=float, default=CGConfig().tol)
    p.add_argument("--holdout-fraction", type=float, default=d.holdout_fraction)
    p.add_argument("--tau-ssl", type=float, default=d.tau_ssl)
    p.add_argument("--band-cutoff", type=float, default=None,
                   help="override the low/high split radius stored with the weights")
    p.add_argument("--disable-fpc", action="store_true")
    p.add_argument("--disable-rpa", action="store_true")
    p.add_argument("--seed-init", type=int, default=d.seed_init)
    p.add_argument("--seed-partition", type=int, default=d.seed_partition)
    p.add_argument("--seed-mc", type=int, default=d.seed_mc)
    p.add_argument("--seed-noise", type=int, default=d.seed_noise)
    p.add_argument("--renoise-mode", choices=("deterministic", "stochastic"),
                   default=d.renoise_mode)
    p.add_argument("--redraw-partition", action="store_true")
    p.add_argument("--sure-form", choices=("product", "additive"), default=d.sure_form)
    p.add_argument("--sure-eps-scale", type=float, default=d.sure_eps_scale)
    p.add_argument("--delta-step", type=float, default=d.delta_step)
    p.add_argument("--delta-fd-step", type=float, default=d.delta_fd_step)
    p.add_argument("--delta-method", choices=("cd", "spsa"), default=d.delta_method)
    p.add_argument("--gamma-step", type=float, default=d.gamma_step)
    p.add_argument("--gamma-fd-step", type=float, default=d.gamma_fd_step)


def _config_from_args(args: argparse.Namespace) -> ReconConfig:
    return ReconConfig(
        steps=args.steps,
        sigma_max=args.sigma_max,
        sigma_min=args.sigma_min,
        gamma_init=args.gamma_init,
        delta_init=args.delta_init,
        tau_reg=args.tau_reg,
        window=args.window,
        cg=CGConfig(max_iters=args.cg_iters, tol=args.cg_tol),
        holdout_fraction=args.holdout_fraction,
        tau_ssl=args.tau_ssl,
        enable_fpc=not args.disable_fpc,
        enable_rpa=not args.disable_rpa,
        seed_init=args.seed_init,
        seed_partition=args.seed_partition,
        seed_mc=args.seed_mc,
        seed_noise=args.seed_noise,
        renoise_mode=args.renoise_mode,
        redraw_partition=args.redraw_partition,
        sure_form=args.sure_form,
        sure_eps_scale=args.sure_eps_scale,
        delta_step=args.delta_step,
        delta_fd_step=args.delta_fd_step,
        delta_method=args.delta_method,
        gamma_step=args.gamma_step,
        gamma_fd_step=args.gamma_fd_step,
    )


def _build_prior(args: argparse.Namespace, shape: tuple[int, int]):
    if args.prior == "white":
        return white_prior(*shape)
    if args.prior == "gaussian":
        if not (args.prior_mean and args.prior_spectrum):
            raise InvalidArgumentError("--prior gaussian needs --prior-mean and --prior-spectrum")
        return GaussianPrior(read_tensor(args.prior_mean), read_tensor(args.prior_spectrum))
    if args.prior == "unet":
        if not args.weights:
            raise InvalidArgumentError("--prior unet needs --weights")
        weights = load_weights(args.weights)
        if getattr(args, "band_cutoff", None) is not None:
            weights.arch = dataclasses.replace(weights.arch, band_cutoff=args.band_cutoff)
        return UNetScorePrior(weights, calibratable=not args.uncalibrated)
    raise InvalidArgumentError(f"unknown prior {args.prior!r}")


def _report_to_json(report: ReconReport, cfg: ReconConfig) -> dict:
    return {
        "config": {
            k: (dataclasses.asdict(v) if dataclasses.is_dataclass(v) else v)
            for k, v in dataclasses.asdict(cfg).items()
        },
        "stopped_at": report.stopped_at,
        "psnr": report.psnr,
        "ssim": report.ssim,
        "wall_clock": report.wall_clock,
        "records": [
            {
                "t": r.t,
                "sigma": r.sigma,
                "delta": [float(d) for d in r.delta],
                "gamma": r.gamma,
                "loss_ssl": r.loss_ssl,
                "loss_reg": r.loss_reg,
                "conv_metric": r.conv_metric,
                "cg_residual": r.cg_residual,
                "cg_iters": r.cg_iters,
            }
            for r in report.records
        ],
    }


def _cmd_simulate(args: argparse.Namespace) -> int:
    spec = PhantomSpec(
        kind=args.phantom_kind,
        size=args.size,
        contrast_exponent=args.contrast,
        bias_amplitude=args.bias_amplitude,
        resolution_scale=args.resolution_scale,
        seed=args.seed_phantom,
    )
    phantom = make_phantom(spec)
    mask = generate_mask(args.kind, args.size, args.size, args.accel,
                         args.acs_fraction, args.seed_mask)
    sens = synth_coil_maps(args.coils, args.size, args.size, args.seed_coils)
    op = ForwardOperator(mask, sens)
    y = apply_forward(phantom, op)
    if args.noise_std > 0:
        y = add_noise(y, mask, args.noise_std, args.seed_noise)

    os.makedirs(args.out_dir, exist_ok=True)
    write_tensor(os.path.join(args.out_dir, "kspace.bt"), y)
    write_tensor(os.path.join(args.out_dir, "sens.bt"), sens)
    write_tensor(os.path.join(args.out_dir, "reference.bt"), phantom)
    save_mask(os.path.join(args.out_dir, "mask.bt"), mask)
    print(f"wrote kspace/sens/mask/reference under {args.out_dir}")
    return 0


def _cmd_reconstruct(args: argparse.Namespace) -> int:
    y = read_tensor(args.kspace)
    mask = load_mask(args.mask)
    sens = read_tensor(args.sens)
    op = ForwardOperator(mask, sens)
    cfg = _config_from_args(args)
    prior = _build_prior(args, op.shape)
    reference = read_tensor(args.reference) if args.reference else None

    image, report = reconstruct(y, op, prior, cfg, reference=reference)

    os.makedirs(args.out_dir, exist_ok=True)
    write_tensor(os.path.join(args.out_dir, "recon.bt"), image)
    with open(os.path.join(args.out_dir, "report.json"), "w") as fh:
        json.dump(_report_to_json(report, cfg), fh, indent=1)
    with open(os.path.join(args.out_dir, "traces.txt"), "w") as fh:
        fh.write(trace_columns(report))
    if args.emit_images:
        emit_images(report, args.out_dir)
    if report.psnr is not None:
        print(f"PSNR {report.psnr:.3f} dB  SSIM {report.ssim:.4f}")
    print(f"wrote recon.bt / report.json / traces.txt under {args.out_dir}")
    return 0


def _cmd_ablate(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    prior = _build_prior(args, (args.size, args.size))
    cases = []
    for i in range(args.cases):
        spec = PhantomSpec(
            kind=args.phantom_kind,
            size=args.size,
            contrast_exponent=args.contrast,
            bias_amplitude=args.bias_amplitude,
            resolution_scale=args.resolution_scale,
            seed=args.seed_phantom + i,
        )
        phantom = make_phantom(spec)
        mask = generate_mask(args.kind, args.size, args.size, args.accel,
                             args.acs_fraction, args.seed_mask + i)
        sens = synth_coil_maps(args.coils, args.size, args.size, args.seed_coils + i)
        op = ForwardOperator(mask, sens)
        y = apply_forward(phantom, op)
        if args.noise_std > 0:
            y = add_noise(y, mask, args.noise_std, args.seed_noise + i)
        cases.append({"y": y, "op": op, "reference": phantom})

    table = run_ablation(cases, prior, cfg)
    text = format_ablation_table(table)
    os.makedirs(args.out_dir, exist_ok=True)
    with open(os.path.join(args.out_dir, "table.json"), "w") as fh:
        json.dump(table, fh, indent=1)
    with open(os.path.join(args.out_dir, "table.txt"), "w") as fh:
        fh.write(text + "\n")
    print(text)
    return 0


def _cmd_traces(args: argparse.Namespace) -> int:
    with open(args.report) as fh:
        data = json.load(fh)
    records = [
        StepRecord(
            t=r["t"],
            sigma=r["sigma"],
            delta=np.asarray(r["delta"], dtype=np.float64),
            gamma=r["gamma"],
            loss_ssl=r["loss_ssl"],
            loss_reg=r["loss_reg"],
            conv_metric=r["conv_metric"],
            cg_residual=r["cg_residual"],
            cg_iters=r["cg_iters"],
        )
        for r in data["records"]
    ]
    report = ReconReport(records=records, final_image=np.zeros((1, 1)), stopped_at=data["stopped_at"])
    text = trace_columns(report)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mricalib")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="phantom -> k-space tensor files")
    sim.add_argument("--out-dir", required=True)
    sim.add_argument("--size", type=int, default=64)
    sim.add_argument("--coils", type=int, default=4)
    sim.add_argument("--kind", choices=("Gaussian1D", "Uniform1D", "Gaussian2D"),
                     default="Gaussian1D")
    sim.add_argument("--accel", type=float, default=4.0)
    sim.add_argument("--acs-fraction", type=float, default=0.08)
    sim.add_argument("--noise-std", type=float, default=0.0)
    sim.add_argument("--phantom-kind",
                     choices=("ellipse-phantom", "piecewise-smooth", "texture-mix"),
                     default="ellipse-phantom")
    sim.add_argument("--contrast", type=float, default=1.0)
    sim.add_argument("--bias-amplitude", type=float, default=0.0)
    sim.add_argument("--resolution-scale", type=float, default=1.0)
    sim.add_argument("--seed-phantom", type=int, default=0)
    sim.add_argument("--seed-mask", type=int, default=0)
    sim.add_argument("--seed-coils", type=int, default=0)
    sim.add_argument("--seed-noise", type=int, default=0)
    sim.set_defaults(func=_cmd_simulate)

    rec = sub.add_parser("reconstruct", help="k-space -> image + report")
    rec.add_argument("--kspace", required=True)
    rec.add_argument("--mask", required=True)
    rec.add_argument("--sens", required=True)
    rec.add_argument("--out-dir", required=True)
    rec.add_argument("--prior", choices=("white", "gaussian", "unet"), default="white")
    rec.add_argument("--prior-mean")
    rec.add_argument("--prior-spectrum")
    rec.add_argument("--weights")
    rec.add_argument("--uncalibrated", action="store_true",
                     help="run the network prior without calibration hooks")
    rec.add_argument("--reference")
    rec.add_argument("--emit-images", action="store_true")
    _add_recon_flags(rec)
    rec.set_defaults(func=_cmd_reconstruct)

    abl = sub.add_parser("ablate", help="toggle-grid ablation over shifted phantoms")
    abl.add_argument("--out-dir", required=True)
    abl.add_argument("--cases", type=int, default=4)
    abl.add_argument("--size", type=int, default=64)
    abl.add_argument("--coils", type=int, default=2)
    abl.add_argument("--kind", choices=("Gaussian1D", "Uniform1D", "Gaussian2D"),
                     default="Gaussian1D")
    abl.add_argument("--accel", type=float, default=4.0)
    abl.add_argument("--acs-fraction", type=float, default=0.08)
    abl.add_argument("--noise-std", type=float, default=0.0)
    abl.add_argument("--phantom-kind",
                     choices=("ellipse-phantom", "piecewise-smooth", "texture-mix"),
                     default="ellipse-phantom")
    abl.add_argument("--contrast", type=float, default=1.5)
    abl.add_argument("--bias-amplitude", type=float, default=0.3)
    abl.add_argument("--resolution-scale", type=float, default=1.0)
    abl.add_argument("--seed-phantom", type=int, default=1000)
    abl.add_argument("--seed-mask", type=int, default=2000)
    abl.add_argument("--seed-coils", type=int, default=3000)
    abl.add_argument("--prior", choices=("white", "gaussian", "unet"), default="unet")
    abl.add_argument("--prior-mean")
    abl.add_argument("--prior-spectrum")
    abl.add_argument("--weights")
    abl.add_argument("--uncalibrated", action="store_true")
    _add_recon_flags(abl)
    abl.set_defaults(func=_cmd_ablate)

    trc = sub.add_parser("traces", help="report JSON -> plain-text trace columns")
    trc.add_argument("--report", required=True)
    trc.add_argument("--out")
    trc.set_defaults(func=_cmd_traces)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvalidArgumentError as exc:
        print(f"argument error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except (FormatError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
