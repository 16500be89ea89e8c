"""Command-line surface.

Subcommands:
    simulate     phantom -> k-space / mask / sensitivities tensor files
    reconstruct  k-space + prior -> image, report, traces
    ablate       toggle-grid run over shifted phantoms -> table
    traces       saved report JSON -> plain-text trace columns
    train        synthetic phantoms -> toy denoising prior weights

Flags are generated from declared settings (see settings.py): the
run-setting flags of reconstruct and ablate from ReconConfig and its
nested CGConfig, the phantom flags of simulate and ablate from
PhantomSpec, and the architecture flags of train from UNetArch.

Exit codes: 0 success, 2 argument error, 3 numeric error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import typing

import numpy as np

from .errors import FormatError, InvalidArgumentError, NumericError
from .forward import MASK_KINDS, ForwardOperator, load_mask, save_mask
from .phantom import PHANTOM_KINDS, PhantomSpec, make_phantom
from .pipeline import (
    ReconConfig,
    StepRecord,
    emit_images,
    format_ablation_table,
    reconstruct,
    run_ablation,
    shifted_cases,
    trace_columns,
)
from .priors import GaussianPrior, white_prior
from .tensorio import read_tensor, write_tensor
from .unet import UNetArch, UNetScorePrior, load_weights, save_weights, train_toy_denoiser


def _add_setting_flags(p: argparse.ArgumentParser, cls: type = ReconConfig, prefix: str = "") -> None:
    """One flag per declared field of cls; nested settings dataclasses are flattened, and a
    tuple[int, ...] field takes one or more values."""
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        kind, dest, meta = hints[f.name], prefix + f.name, f.metadata
        if dataclasses.is_dataclass(kind):
            _add_setting_flags(p, kind, dest + ".")
            continue
        flag = meta["flag"] or "--" + f.name.replace("_", "-")
        if kind is bool:
            p.add_argument(flag, dest=dest, action="store_false" if f.default else "store_true",
                           help=meta["help"])
        else:
            many = typing.get_origin(kind) is tuple
            p.add_argument(flag, dest=dest, type=typing.get_args(kind)[0] if many else kind,
                           nargs="+" if many else None, default=f.default,
                           choices=meta["rule"].choices if meta["rule"] else None,
                           help=f"{meta['help']} (default: %(default)s)")


def _config_from_args(args: argparse.Namespace, cls: type = ReconConfig, prefix: str = ""):
    hints = typing.get_type_hints(cls)
    values = {
        f.name: (_config_from_args(args, hints[f.name], f"{prefix}{f.name}.")
                 if dataclasses.is_dataclass(hints[f.name]) else getattr(args, prefix + f.name))
        for f in dataclasses.fields(cls)
    }  # a nargs flag parses to a list; its field holds a tuple
    return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in values.items()})


def _add_prior_flags(p: argparse.ArgumentParser, default: str) -> None:
    p.add_argument("--prior", choices=("white", "gaussian", "unet"), default=default)
    p.add_argument("--prior-mean", help="mean image tensor of --prior gaussian")
    p.add_argument("--prior-spectrum", help="power spectrum tensor of --prior gaussian")
    p.add_argument("--weights", help="weights file of --prior unet (its .arch sets the band cutoff)")


def _add_case_flags(p: argparse.ArgumentParser) -> None:
    _add_setting_flags(p, PhantomSpec)
    p.add_argument("--coils", type=int, default=4)
    p.add_argument("--kind", dest="mask_kind", choices=MASK_KINDS, default="Gaussian1D")
    p.add_argument("--accel", type=float, default=4.0)
    p.add_argument("--acs-fraction", type=float, default=0.08)
    p.add_argument("--noise-std", type=float, default=0.0)
    p.add_argument("--seed-mask", type=int, default=0)
    p.add_argument("--seed-coils", type=int, default=0)


def _cases_from_args(args: argparse.Namespace, count: int) -> list[dict]:
    return shifted_cases(count, _config_from_args(args, PhantomSpec), args.coils, args.mask_kind,
                         args.accel, args.acs_fraction, args.noise_std, args.seed_mask,
                         args.seed_coils, args.seed_noise)


def _build_prior(args: argparse.Namespace, shape: tuple[int, int]):
    if args.prior == "white":
        return white_prior(*shape)
    if args.prior == "gaussian":
        if not (args.prior_mean and args.prior_spectrum):
            raise InvalidArgumentError("--prior gaussian needs --prior-mean and --prior-spectrum")
        mean, spectrum = read_tensor(args.prior_mean), read_tensor(args.prior_spectrum)
        if mean.shape != shape:
            raise FormatError(f"prior mean {args.prior_mean}: shape {mean.shape} is not {shape}")
        try:
            return GaussianPrior(mean, spectrum)
        except InvalidArgumentError as exc:
            raise FormatError(f"prior {args.prior_mean}, {args.prior_spectrum}: {exc}") from exc
    # "unet", the parser's last choice
    if not args.weights:
        raise InvalidArgumentError("--prior unet needs --weights")
    weights = load_weights(args.weights)
    side = 1 << weights.arch.layer_count
    if shape[0] % side or shape[1] % side:
        raise FormatError(f"weights {args.weights}: image sides {shape} not divisible by {side}")
    try:
        return UNetScorePrior(weights)
    except InvalidArgumentError as exc:
        raise FormatError(f"weights {args.weights}: {exc}") from exc


def _cmd_simulate(args: argparse.Namespace) -> int:
    case = _cases_from_args(args, 1)[0]
    os.makedirs(args.out_dir, exist_ok=True)
    write_tensor(os.path.join(args.out_dir, "kspace.bt"), case["y"])
    write_tensor(os.path.join(args.out_dir, "sens.bt"), case["op"].sens)
    write_tensor(os.path.join(args.out_dir, "reference.bt"), case["reference"])
    save_mask(os.path.join(args.out_dir, "mask.bt"), case["op"].mask)
    print(f"wrote kspace/sens/mask/reference under {args.out_dir}")
    return 0


def _cmd_reconstruct(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    y = read_tensor(args.kspace)
    mask = load_mask(args.mask)
    sens = read_tensor(args.sens)
    if sens.ndim != 3 or sens.shape[1:] != mask.shape:
        raise FormatError(f"sensitivities {args.sens}: shape {sens.shape} is not "
                          f"(coils, {mask.shape[0]}, {mask.shape[1]})")
    if y.shape != sens.shape:
        raise FormatError(f"k-space {args.kspace}: shape {y.shape} is not {sens.shape}, "
                          f"the sensitivities' shape")
    op = ForwardOperator(mask, sens)
    prior = _build_prior(args, op.shape)
    reference = read_tensor(args.reference) if args.reference else None
    if reference is not None and reference.shape != mask.shape:
        raise FormatError(f"reference {args.reference}: shape {reference.shape} is not "
                          f"{mask.shape}")

    image, report = reconstruct(y, op, prior, cfg, reference=reference)

    os.makedirs(args.out_dir, exist_ok=True)
    write_tensor(os.path.join(args.out_dir, "recon.bt"), image)
    with open(os.path.join(args.out_dir, "report.json"), "w") as fh:
        json.dump({"config": dataclasses.asdict(cfg), **dataclasses.asdict(report)}, fh, indent=1,
                  default=np.ndarray.tolist)
    with open(os.path.join(args.out_dir, "traces.txt"), "w") as fh:
        fh.write(trace_columns(report.records))
    if args.emit_images:
        emit_images(image, reference, args.out_dir)
    if report.psnr is not None:
        print(f"PSNR {report.psnr:.3f} dB  SSIM {report.ssim:.4f}")
    print(f"wrote recon.bt / report.json / traces.txt under {args.out_dir}")
    return 0


def _cmd_ablate(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    prior = _build_prior(args, (args.size, args.size))
    table = run_ablation(_cases_from_args(args, args.cases), prior, cfg)
    text = format_ablation_table(table)
    os.makedirs(args.out_dir, exist_ok=True)
    with open(os.path.join(args.out_dir, "table.json"), "w") as fh:
        json.dump(table, fh, indent=1)
    with open(os.path.join(args.out_dir, "table.txt"), "w") as fh:
        fh.write(text + "\n")
    print(text)
    return 0


def _cmd_traces(args: argparse.Namespace) -> int:
    try:  # any malformed part, down to a field trace_columns cannot format; OSError passes
        with open(args.report) as fh:
            data = json.load(fh)
        text = trace_columns([StepRecord(**{**r, "delta": np.asarray(r["delta"], dtype=np.float64)})
                              for r in data["records"]])
    except (ValueError, KeyError, TypeError, OverflowError, RecursionError) as exc:
        raise FormatError(f"malformed report {args.report}: {exc!r}") from exc
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    arch = _config_from_args(args, UNetArch)
    images = [
        make_phantom(PhantomSpec(size=args.size, seed=s, kind=k))
        for s in range(args.images)
        for k in args.kinds
    ]
    weights = train_toy_denoiser(
        images, epochs=args.epochs, seed=args.seed, arch=arch,
        lr=args.lr, batch_size=args.batch_size,
    )
    save_weights(args.out, weights)
    print(f"saved weights for {arch.layer_count}-skip network to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mricalib")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="phantom -> k-space tensor files")
    sim.add_argument("--out-dir", required=True)
    _add_case_flags(sim)
    sim.add_argument("--seed-noise", type=int, default=0)
    sim.set_defaults(func=_cmd_simulate)

    rec = sub.add_parser("reconstruct", help="k-space -> image + report")
    rec.add_argument("--kspace", required=True)
    rec.add_argument("--mask", required=True)
    rec.add_argument("--sens", required=True)
    rec.add_argument("--out-dir", required=True)
    _add_prior_flags(rec, default="white")
    rec.add_argument("--reference")
    rec.add_argument("--emit-images", action="store_true")
    _add_setting_flags(rec)
    rec.set_defaults(func=_cmd_reconstruct)

    abl = sub.add_parser("ablate", help="toggle-grid ablation over shifted phantoms")
    abl.add_argument("--out-dir", required=True)
    abl.add_argument("--cases", type=int, default=4)
    _add_case_flags(abl)
    abl.set_defaults(coils=2, contrast_exponent=1.5, bias_amplitude=0.3, seed=1000, seed_mask=2000,
                     seed_coils=3000)  # shifted away from simulate's phantoms
    _add_prior_flags(abl, default="unet")
    _add_setting_flags(abl)  # its --seed-noise also seeds case i's measurement noise (+ i)
    abl.set_defaults(func=_cmd_ablate)

    trc = sub.add_parser("traces", help="report JSON -> plain-text trace columns")
    trc.add_argument("--report", required=True)
    trc.add_argument("--out")
    trc.set_defaults(func=_cmd_traces)

    trn = sub.add_parser("train", help="synthetic phantoms -> toy denoising prior weights")
    trn.add_argument("--out", required=True, help="weights path (.bt + .bt.arch)")
    trn.add_argument("--size", type=int, default=64)
    trn.add_argument("--images", type=int, default=12, help="images per phantom kind")
    trn.add_argument("--kinds", nargs="+", choices=PHANTOM_KINDS,
                     default=["ellipse-phantom", "piecewise-smooth"])
    trn.add_argument("--epochs", type=int, default=120)
    trn.add_argument("--lr", type=float, default=0.3)
    trn.add_argument("--batch-size", type=int, default=4)
    trn.add_argument("--seed", type=int, default=0)
    _add_setting_flags(trn, UNetArch)
    trn.set_defaults(func=_cmd_train)

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
