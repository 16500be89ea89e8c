import dataclasses
import json
import subprocess
import sys

import numpy as np
import pytest

from mricalib import CGConfig, ReconConfig, read_tensor, write_tensor
from mricalib.cli import _config_from_args, build_parser, main
from mricalib.tensorio import MAGIC


def _run(args):
    return main(args)


def test_simulate_then_reconstruct(tmp_path):
    sim_dir = tmp_path / "sim"
    assert _run([
        "simulate", "--out-dir", str(sim_dir), "--size", "32", "--coils", "2",
        "--accel", "4", "--seed-phantom", "1",
    ]) == 0
    for name in ("kspace.bt", "sens.bt", "mask.bt", "reference.bt"):
        assert (sim_dir / name).exists()
    assert not (sim_dir / "mask.bt.meta").exists()

    out_dir = tmp_path / "rec"
    assert _run([
        "reconstruct",
        "--kspace", str(sim_dir / "kspace.bt"),
        "--mask", str(sim_dir / "mask.bt"),
        "--sens", str(sim_dir / "sens.bt"),
        "--reference", str(sim_dir / "reference.bt"),
        "--out-dir", str(out_dir),
        "--prior", "white", "--steps", "6", "--disable-fpc",
        "--cg-iters", "10", "--emit-images",
    ]) == 0
    assert (out_dir / "recon.bt").exists()
    report = json.loads((out_dir / "report.json").read_text())
    assert len(report["records"]) == 6
    assert report["psnr"] is not None
    recon = read_tensor(out_dir / "recon.bt")
    assert recon.shape == (32, 32)
    trace_lines = [
        ln for ln in (out_dir / "traces.txt").read_text().strip().splitlines()
        if not ln.startswith("#")
    ]
    assert len(trace_lines) == 6
    assert (out_dir / "recon.pgm").exists()


def test_traces_subcommand(tmp_path):
    sim_dir, out_dir = tmp_path / "sim", tmp_path / "rec"
    _run(["simulate", "--out-dir", str(sim_dir), "--size", "16", "--coils", "1"])
    _run([
        "reconstruct", "--kspace", str(sim_dir / "kspace.bt"), "--mask", str(sim_dir / "mask.bt"),
        "--sens", str(sim_dir / "sens.bt"), "--out-dir", str(out_dir),
        "--steps", "4", "--disable-fpc", "--disable-rpa",
    ])
    trace_out = tmp_path / "cols.txt"
    assert _run(["traces", "--report", str(out_dir / "report.json"), "--out", str(trace_out)]) == 0
    lines = [ln for ln in trace_out.read_text().strip().splitlines() if not ln.startswith("#")]
    assert len(lines) == 4


def test_missing_file_exits_4(tmp_path):
    code = _run([
        "reconstruct", "--kspace", str(tmp_path / "nope.bt"),
        "--mask", str(tmp_path / "m.bt"), "--sens", str(tmp_path / "s.bt"),
        "--out-dir", str(tmp_path / "o"),
    ])
    assert code == 4


def test_overflowing_tensor_header_exits_4(tmp_path):
    sim_dir = tmp_path / "sim"
    _run(["simulate", "--out-dir", str(sim_dir), "--size", "16", "--coils", "1"])
    header = MAGIC + np.uint32(2).tobytes() + np.asarray([2**32, 2**32], dtype="<u8").tobytes()
    (sim_dir / "kspace.bt").write_bytes(header + np.uint32(1).tobytes())
    code = _run([
        "reconstruct", "--kspace", str(sim_dir / "kspace.bt"), "--mask", str(sim_dir / "mask.bt"),
        "--sens", str(sim_dir / "sens.bt"), "--out-dir", str(tmp_path / "o"),
    ])
    assert code == 4


def _reconstruct_sim(sim_dir, out_dir):
    return _run([
        "reconstruct", "--kspace", str(sim_dir / "kspace.bt"), "--mask", str(sim_dir / "mask.bt"),
        "--sens", str(sim_dir / "sens.bt"), "--out-dir", str(out_dir),
    ])


def test_rank_one_mask_exits_4(tmp_path, capsys):
    sim_dir = tmp_path / "sim"
    _run(["simulate", "--out-dir", str(sim_dir), "--size", "16", "--coils", "1"])
    bits = read_tensor(sim_dir / "mask.bt")
    write_tensor(sim_dir / "mask.bt", bits[0])
    assert _reconstruct_sim(sim_dir, tmp_path / "o") == 4
    assert "rank 2" in capsys.readouterr().err


@pytest.mark.parametrize("shape", [(0, 0), (8, 0)], ids=["0x0", "8x0"])
def test_zero_size_mask_exits_4(tmp_path, capsys, shape):
    """A mask with an empty axis is a format error that names the file, even when the
    k-space and coil maps match its shape."""
    write_tensor(tmp_path / "kspace.bt", np.zeros((1, *shape), complex))
    write_tensor(tmp_path / "sens.bt", np.ones((1, *shape), complex))
    write_tensor(tmp_path / "mask.bt", np.zeros(shape))
    assert _reconstruct_sim(tmp_path, tmp_path / "o") == 4
    err = capsys.readouterr().err
    assert "empty axis" in err and str(tmp_path / "mask.bt") in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("value", [np.nan, 0.5, 2.0, 1j], ids=["nan", "half", "two", "complex"])
def test_mask_values_other_than_0_and_1_exit_4(tmp_path, capsys, sim16, value):
    """A mask is a real 0/1 tensor; any other entry is a format error, never a sampled entry."""
    bits = read_tensor(sim16 / "mask.bt")
    if value == 1j:
        bits = bits.astype(np.complex128)  # the same 0/1 pattern, stored complex
    else:
        bits[0, 0] = value
    write_tensor(tmp_path / "mask.bt", bits)
    code = _run([
        "reconstruct", "--kspace", str(sim16 / "kspace.bt"), "--mask", str(tmp_path / "mask.bt"),
        "--sens", str(sim16 / "sens.bt"), "--out-dir", str(tmp_path / "o"), "--steps", "3",
    ])
    assert code == 4
    assert "real 0s and 1s" in capsys.readouterr().err


def test_stale_mask_meta_is_ignored(tmp_path, sim16):
    """A garbage mask.bt.meta next to a valid mask changes nothing: the tensor is the whole mask."""
    recons = []
    for name, meta in (("plain", None), ("meta", b"\xff\xfeaccel=abc\nheight=3\nwidth=nan\n")):
        case_dir = tmp_path / name
        case_dir.mkdir()
        (case_dir / "mask.bt").write_bytes((sim16 / "mask.bt").read_bytes())
        if meta is not None:
            (case_dir / "mask.bt.meta").write_bytes(meta)
        assert _run([
            "reconstruct", "--kspace", str(sim16 / "kspace.bt"), "--mask", str(case_dir / "mask.bt"),
            "--sens", str(sim16 / "sens.bt"), "--out-dir", str(case_dir / "o"), "--steps", "3",
        ]) == 0
        recons.append((case_dir / "o" / "recon.bt").read_bytes())
    assert recons[0] == recons[1]


def test_reconstruct_with_real_sensitivities(tmp_path):
    """A real64 sensitivity file reconstructs exactly like the same maps stored as complex."""
    sim_dir = tmp_path / "sim"
    _run(["simulate", "--out-dir", str(sim_dir), "--size", "16", "--coils", "2"])
    sens = read_tensor(sim_dir / "sens.bt")
    write_tensor(sim_dir / "sens.bt", np.abs(sens))
    write_tensor(sim_dir / "sens_c.bt", np.abs(sens).astype(np.complex128))
    recons = []
    for name in ("sens.bt", "sens_c.bt"):
        out_dir = tmp_path / name
        assert _run([
            "reconstruct", "--kspace", str(sim_dir / "kspace.bt"), "--mask", str(sim_dir / "mask.bt"),
            "--sens", str(sim_dir / name), "--out-dir", str(out_dir), "--steps", "4",
        ]) == 0
        recons.append(read_tensor(out_dir / "recon.bt"))
    assert np.array_equal(recons[0], recons[1])


def test_bad_argument_exits_2(tmp_path):
    sim_dir = tmp_path / "sim"
    _run(["simulate", "--out-dir", str(sim_dir), "--size", "16", "--coils", "1"])
    code = _run([
        "reconstruct", "--kspace", str(sim_dir / "kspace.bt"), "--mask", str(sim_dir / "mask.bt"),
        "--sens", str(sim_dir / "sens.bt"), "--out-dir", str(tmp_path / "o"),
        "--prior", "gaussian",  # missing mean/spectrum tensors
    ])
    assert code == 2


def test_cli_entrypoint_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "mricalib", "simulate", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "--out-dir" in proc.stdout


def test_reconstruct_with_network_prior(tmp_path):
    from mricalib import ForwardOperator, load_mask, reconstruct
    from mricalib.phantom import PhantomSpec, make_phantom
    from mricalib.unet import UNetArch, UNetScorePrior, load_weights, save_weights, train_toy_denoiser

    sim_dir = tmp_path / "sim"
    _run(["simulate", "--out-dir", str(sim_dir), "--size", "32", "--coils", "2"])
    arch = UNetArch(widths=(4, 8), bottleneck=8, emb_steps=6)
    data = [make_phantom(PhantomSpec(size=32, seed=s)) for s in range(4)]
    weights = train_toy_denoiser(data, epochs=2, seed=0, arch=arch)
    wpath = tmp_path / "w.bt"
    save_weights(wpath, weights)

    out = tmp_path / "rec"
    code = _run([
        "reconstruct", "--kspace", str(sim_dir / "kspace.bt"), "--mask", str(sim_dir / "mask.bt"),
        "--sens", str(sim_dir / "sens.bt"), "--out-dir", str(out),
        "--prior", "unet", "--weights", str(wpath), "--steps", "4", "--cg-iters", "8",
    ])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert len(report["records"][0]["delta"]) == 4

    out2 = tmp_path / "rec2"
    code = _run([
        "reconstruct", "--kspace", str(sim_dir / "kspace.bt"), "--mask", str(sim_dir / "mask.bt"),
        "--sens", str(sim_dir / "sens.bt"), "--out-dir", str(out2),
        "--prior", "unet", "--weights", str(wpath), "--steps", "4",
        "--disable-fpc", "--cg-iters", "8",
    ])
    assert code == 0
    report2 = json.loads((out2 / "report.json").read_text())
    assert report2["records"][0]["delta"] == [1.0] * 4
    # calibration off runs the uncalibrated network bit for bit
    y = read_tensor(sim_dir / "kspace.bt")
    op = ForwardOperator(load_mask(sim_dir / "mask.bt"), read_tensor(sim_dir / "sens.bt"))
    cfg = ReconConfig(steps=4, cg=CGConfig(max_iters=8), enable_fpc=False)
    x_raw, _ = reconstruct(y, op, UNetScorePrior(load_weights(wpath), calibratable=False), cfg)
    assert read_tensor(out2 / "recon.bt").tobytes() == x_raw.tobytes()


@pytest.mark.parametrize("extra", [
    ["--uncalibrated"],
    ["--band-cutoff", "0.3"],
    ["--delta-init", "1.5"],
    ["--sure-form", "additive"],
    ["--holdout-fraction", "0.3"],
], ids=lambda extra: " ".join(extra))
def test_removed_flag_is_rejected(tmp_path, sim16, extra):
    """Calibration is switched off only by --disable-fpc; the band cutoff comes from the weights;
    the holdout share is a constant."""
    with pytest.raises(SystemExit) as exc:
        _run([
            "reconstruct", "--kspace", str(sim16 / "kspace.bt"), "--mask", str(sim16 / "mask.bt"),
            "--sens", str(sim16 / "sens.bt"), "--out-dir", str(tmp_path / "o"), "--steps", "3",
        ] + extra)
    assert exc.value.code == 2
    assert not (tmp_path / "o").exists()


def test_numeric_error_exits_3(tmp_path):
    from mricalib import read_tensor, write_tensor

    sim_dir = tmp_path / "sim"
    _run(["simulate", "--out-dir", str(sim_dir), "--size", "16", "--coils", "1"])
    y = read_tensor(sim_dir / "kspace.bt")
    y[0, 0, 0] = np.nan + 1j * np.nan
    write_tensor(sim_dir / "kspace.bt", y)
    code = _run([
        "reconstruct", "--kspace", str(sim_dir / "kspace.bt"), "--mask", str(sim_dir / "mask.bt"),
        "--sens", str(sim_dir / "sens.bt"), "--out-dir", str(tmp_path / "o"),
        "--steps", "3", "--disable-fpc", "--disable-rpa",
    ])
    assert code == 3


def test_ablate_smoke(tmp_path):
    out = tmp_path / "abl"
    code = _run([
        "ablate", "--out-dir", str(out), "--cases", "1", "--size", "16", "--coils", "1",
        "--prior", "white", "--steps", "3", "--cg-iters", "5",
    ])
    assert code == 0
    table = json.loads((out / "table.json").read_text())
    assert [row["label"] for row in table] == ["Baseline", "w/o RPA", "w/o FPC", "Ours"]
    assert (out / "table.txt").exists()


MINIMAL_RECONSTRUCT = ["reconstruct", "--kspace", "k.bt", "--mask", "m.bt", "--sens", "s.bt",
                       "--out-dir", "o"]


def _parsed_config(extra):
    return _config_from_args(build_parser().parse_args(MINIMAL_RECONSTRUCT + extra))


def test_minimal_reconstruct_argv_gives_default_config():
    assert _parsed_config([]) == ReconConfig()


# flag, its non-default value, and the field it must land in
SETTING_FLAGS = [
    (["--steps", "7"], "steps", 7),
    (["--sigma-max", "0.8"], "sigma_max", 0.8),
    (["--sigma-min", "0.02"], "sigma_min", 0.02),
    (["--gamma-init", "2.5"], "gamma_init", 2.5),
    (["--tau-reg", "0.01"], "tau_reg", 0.01),
    (["--window", "3"], "window", 3),
    (["--cg-iters", "9"], "cg.max_iters", 9),
    (["--cg-tol", "1e-9"], "cg.tol", 1e-9),
    (["--tau-ssl", "2.0"], "tau_ssl", 2.0),
    (["--disable-fpc"], "enable_fpc", False),
    (["--disable-rpa"], "enable_rpa", False),
    (["--seed-init", "4"], "seed_init", 4),
    (["--seed-partition", "5"], "seed_partition", 5),
    (["--seed-mc", "6"], "seed_mc", 6),
    (["--seed-noise", "7"], "seed_noise", 7),
    (["--renoise-mode", "stochastic"], "renoise_mode", "stochastic"),
    (["--delta-step", "0.1"], "delta_step", 0.1),
    (["--gamma-step", "0.3"], "gamma_step", 0.3),
]


def test_setting_flags_cover_every_field():
    fields = {f.name for f in dataclasses.fields(ReconConfig)} - {"cg"}
    fields |= {f"cg.{f.name}" for f in dataclasses.fields(CGConfig)}
    assert sorted(path for _, path, _ in SETTING_FLAGS) == sorted(fields)


@pytest.mark.parametrize("extra, path, value", SETTING_FLAGS, ids=[a[0] for a, _, _ in SETTING_FLAGS])
def test_setting_flag_lands_in_its_field(extra, path, value):
    if path.startswith("cg."):
        expected = ReconConfig(cg=dataclasses.replace(CGConfig(), **{path[3:]: value}))
    else:
        expected = dataclasses.replace(ReconConfig(), **{path: value})
    assert expected != ReconConfig()
    assert _parsed_config(extra) == expected


@pytest.fixture(scope="module")
def sim16(tmp_path_factory):
    sim_dir = tmp_path_factory.mktemp("sim16")
    assert _run(["simulate", "--out-dir", str(sim_dir), "--size", "16", "--coils", "1"]) == 0
    return sim_dir


@pytest.mark.parametrize("extra", [
    ["--cg-tol", "nan"],
    ["--tau-reg", "nan"],
    ["--gamma-step", "-0.3"],
    ["--delta-step", "nan"],
    ["--tau-ssl", "nan"],
    ["--seed-init", "-1"],
    ["--seed-mc", "-1"],
], ids=lambda extra: " ".join(extra))
def test_bad_run_setting_exits_2(tmp_path, capsys, sim16, extra):
    code = _run([
        "reconstruct", "--kspace", str(sim16 / "kspace.bt"), "--mask", str(sim16 / "mask.bt"),
        "--sens", str(sim16 / "sens.bt"), "--out-dir", str(tmp_path / "o"), "--steps", "3",
    ] + extra)
    assert code == 2
    assert "argument error" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_simulate_nan_accel_exits_2(tmp_path):
    assert _run(["simulate", "--out-dir", str(tmp_path / "sim"), "--size", "16",
                 "--accel", "nan"]) == 2


BAD_SIMULATE_INPUTS = [
    ("--contrast", "nan"), ("--bias-amplitude", "nan"), ("--contrast", "inf"),
    ("--resolution-scale", "1e-300"),
    ("--resolution-scale", "0.05"),  # blur width 1/scale - 1 = 19 exceeds --size 16
    ("--noise-std", "inf"),
]


@pytest.mark.parametrize("flag, value", BAD_SIMULATE_INPUTS,
                         ids=[f if v == "nan" else f"{f} {v}" for f, v in BAD_SIMULATE_INPUTS])
def test_simulate_nan_phantom_shift_exits_2(tmp_path, capsys, flag, value):
    assert _run(["simulate", "--out-dir", str(tmp_path / "sim"), "--size", "16", flag, value]) == 2
    assert "argument error" in capsys.readouterr().err
    assert not (tmp_path / "sim").exists()


NEGATIVE_SEEDS = [
    ["simulate", "--seed-mask", "-1"], ["simulate", "--seed-coils", "-1"],
    ["simulate", "--seed-phantom", "-1"], ["simulate", "--seed-noise", "-1", "--noise-std", "0.01"],
    ["ablate", "--seed-mask", "-1"], ["ablate", "--seed-coils", "-1"],
    ["ablate", "--seed-phantom", "-1"], ["train", "--seed", "-1"],
]
SMALL_RUN = {
    "simulate": ["--size", "16"],
    "ablate": ["--size", "16", "--cases", "1", "--coils", "1", "--prior", "white", "--steps", "3"],
    "train": ["--size", "16", "--images", "1", "--epochs", "1", "--widths", "2", "--bottleneck", "2"],
}


@pytest.mark.parametrize("argv", NEGATIVE_SEEDS, ids=lambda argv: " ".join(argv))
def test_negative_seed_exits_2(tmp_path, capsys, argv):
    command, *extra = argv
    out = ["--out", str(tmp_path / "w.bt")] if command == "train" else ["--out-dir", str(tmp_path / "o")]
    assert _run([command, *out, *SMALL_RUN[command], *extra]) == 2
    assert "argument error" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_generated_phantom_and_arch_flags_keep_their_spellings_and_defaults():
    from mricalib.phantom import PhantomSpec
    from mricalib.unet import UNetArch

    parse = build_parser().parse_args
    assert _config_from_args(parse(["train", "--out", "w"]), UNetArch) == UNetArch(
        widths=(8, 16), bottleneck=32, emb_steps=25, sigma_min=0.01, sigma_max=1.0, band_cutoff=0.25)
    assert _config_from_args(parse(["simulate", "--out-dir", "o"]), PhantomSpec) == PhantomSpec()
    ablate = parse(["ablate", "--out-dir", "o"])
    spec = _config_from_args(ablate, PhantomSpec)
    assert (spec.contrast_exponent, spec.bias_amplitude, spec.seed) == (1.5, 0.3, 1000)
    assert (ablate.coils, ablate.seed_mask, ablate.seed_coils) == (2, 2000, 3000)

    args = parse(["simulate", "--out-dir", "o", "--phantom-kind", "texture-mix", "--contrast", "2",
                  "--seed-phantom", "5", "--kind", "Uniform1D"])
    assert _config_from_args(args, PhantomSpec) == PhantomSpec(kind="texture-mix",
                                                                contrast_exponent=2.0, seed=5)
    assert args.mask_kind == "Uniform1D"
    widths = _config_from_args(parse(["train", "--out", "w", "--widths", "4", "8"]), UNetArch).widths
    assert widths == (4, 8)


VALID_RECORD = {"t": 1, "sigma": 0.1, "delta": [1.0, 0.5], "gamma": 1.0, "loss_ssl": None,
                "loss_reg": 0.2, "conv_metric": None, "cg_residual": 1e-3, "cg_iters": 4}


def test_malformed_report_exits_4(tmp_path, capsys):
    report = tmp_path / "report.json"
    report.write_text(json.dumps({"stopped_at": None, "records": [VALID_RECORD]}))
    assert _run(["traces", "--report", str(report), "--out", str(tmp_path / "t.txt")]) == 0
    missing = {k: v for k, v in VALID_RECORD.items() if k != "sigma"}
    malformed = [
        "{\"records\": [",  # truncated JSON
        json.dumps({"stopped_at": None}),  # no records
        json.dumps({"stopped_at": None, "records": [missing]}),
        json.dumps({"stopped_at": None, "records": [{**VALID_RECORD, "extra": 1}]}),
        json.dumps({"stopped_at": None, "records": [{**VALID_RECORD, "sigma": "x"}]}),
        json.dumps({"stopped_at": None, "records": [[1, 2]]}),
        json.dumps([]),
    ]
    for text in malformed:
        report.write_text(text)
        assert _run(["traces", "--report", str(report)]) == 4, text
        assert "malformed report" in capsys.readouterr().err
    report.write_bytes(b"\xff\xfe{")
    assert _run(["traces", "--report", str(report)]) == 4


def test_ragged_report_exits_4(tmp_path, capsys):
    """Records whose calibration vectors differ in length have no one header: exit 4."""
    report = tmp_path / "report.json"
    records = [VALID_RECORD, {**VALID_RECORD, "t": 2, "delta": [1.0, 0.5, 1.5, 2.0]}]
    report.write_text(json.dumps({"stopped_at": None, "records": records}))
    out = tmp_path / "t.txt"
    assert _run(["traces", "--report", str(report), "--out", str(out)]) == 4
    assert "malformed report" in capsys.readouterr().err
    assert not out.exists()


def test_train_subcommand_matches_library_training(tmp_path):
    from mricalib.phantom import PhantomSpec, make_phantom
    from mricalib.unet import UNetArch, save_weights, train_toy_denoiser

    assert _run(["train", "--out", str(tmp_path / "cli.bt"), "--size", "16", "--images", "1",
                 "--epochs", "1", "--widths", "4", "8", "--bottleneck", "8"]) == 0
    arch = UNetArch(widths=(4, 8), bottleneck=8, emb_steps=25, sigma_min=0.01, sigma_max=1.0,
                    band_cutoff=0.25)
    images = [make_phantom(PhantomSpec(size=16, seed=0, kind=k))
              for k in ("ellipse-phantom", "piecewise-smooth")]
    save_weights(tmp_path / "lib.bt", train_toy_denoiser(images, epochs=1, seed=0, arch=arch,
                                                         lr=0.3, batch_size=4))
    for suffix in (".bt", ".bt.arch"):
        assert (tmp_path / f"cli{suffix}").read_bytes() == (tmp_path / f"lib{suffix}").read_bytes()


@pytest.fixture(scope="module")
def tiny_weights(tmp_path_factory):
    from mricalib.unet import UNetArch, init_weights, save_weights

    path = tmp_path_factory.mktemp("weights") / "w.bt"
    save_weights(path, init_weights(UNetArch(widths=(2,), bottleneck=2, emb_steps=3), seed=0))
    return path


@pytest.mark.parametrize("damage", [
    lambda text: b"\xff\xfe" + text.encode(),  # undecodable
    lambda text: text.replace("sigma_min=0.01", "sigma_min=2.0").encode(),  # above sigma_max
    lambda text: text.replace("sigma_min=0.01", "sigma_min=nan").encode(),
    lambda text: text.replace("emb_steps=3", "emb_steps=0").encode(),
    lambda text: text.replace("in_channels=2", "in_channels=3").encode(),  # not a (re, im) net
], ids=["undecodable", "sigma_min above sigma_max", "sigma_min nan", "emb_steps 0", "in_channels 3"])
def test_bad_weight_descriptor_exits_4(tmp_path, capsys, sim16, tiny_weights, damage):
    weights = tmp_path / "w.bt"
    weights.write_bytes(tiny_weights.read_bytes())
    arch = tmp_path / "w.bt.arch"
    text = (tiny_weights.parent / "w.bt.arch").read_text()
    arch.write_bytes(damage(text))
    assert arch.read_bytes() != text.encode()
    code = _run([
        "reconstruct", "--kspace", str(sim16 / "kspace.bt"), "--mask", str(sim16 / "mask.bt"),
        "--sens", str(sim16 / "sens.bt"), "--out-dir", str(tmp_path / "o"), "--steps", "3",
        "--prior", "unet", "--weights", str(weights),
    ])
    assert code == 4
    assert "architecture descriptor" in capsys.readouterr().err


@pytest.mark.parametrize("value", [np.nan, np.inf, 1e39])
def test_bad_weight_value_exits_4(tmp_path, capsys, sim16, tiny_weights, value):
    """A non-finite weight, or one beyond the float32 range inference casts to, is a format
    error naming the weights file."""
    weights = tmp_path / "w.bt"
    flat = read_tensor(tiny_weights)
    flat[3] = value
    write_tensor(weights, flat)
    (tmp_path / "w.bt.arch").write_bytes((tiny_weights.parent / "w.bt.arch").read_bytes())
    out = tmp_path / "o"
    code = _run([
        "reconstruct", "--kspace", str(sim16 / "kspace.bt"), "--mask", str(sim16 / "mask.bt"),
        "--sens", str(sim16 / "sens.bt"), "--out-dir", str(out), "--steps", "3",
        "--prior", "unet", "--weights", str(weights),
    ])
    assert code == 4
    assert str(weights) in capsys.readouterr().err
    assert not (out / "recon.bt").exists()


def test_weights_deeper_than_the_grid_exit_4(tmp_path, capsys):
    """A 3-level net needs image sides divisible by 8; on a 36 x 36 grid the weights file is
    a format error, in reconstruct and ablate alike, and nothing is written."""
    from mricalib.unet import UNetArch, init_weights, save_weights

    weights = tmp_path / "w.bt"
    save_weights(weights, init_weights(UNetArch(widths=(2, 2, 2), bottleneck=2, emb_steps=3)))
    sim = tmp_path / "sim"
    assert _run(["simulate", "--out-dir", str(sim), "--size", "36", "--coils", "1"]) == 0
    capsys.readouterr()
    runs = {
        "reconstruct": ["--kspace", str(sim / "kspace.bt"), "--mask", str(sim / "mask.bt"),
                        "--sens", str(sim / "sens.bt")],
        "ablate": ["--cases", "1", "--size", "36", "--coils", "1"],
    }
    for command, inputs in runs.items():
        out = tmp_path / command
        code = _run([command, *inputs, "--out-dir", str(out), "--steps", "3",
                     "--prior", "unet", "--weights", str(weights)])
        assert code == 4, command
        err = capsys.readouterr().err
        assert "i/o error: " in err and str(weights) in err, err
        assert not out.exists()


@pytest.mark.parametrize("extra", [
    ["--lr", "nan"], ["--lr", "inf"], ["--lr", "0"], ["--batch-size", "0"], ["--epochs", "-1"],
], ids=lambda extra: " ".join(extra))
def test_train_bad_number_exits_2(tmp_path, capsys, extra):
    out = tmp_path / "w.bt"
    code = _run(["train", "--out", str(out), "--size", "16", "--images", "1", "--epochs", "1",
                 "--widths", "2", "--bottleneck", "2"] + extra)
    assert code == 2
    assert "argument error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("name, label", [("kspace.bt", "k-space"), ("sens.bt", "sensitivities")])
def test_non_finite_input_is_named(tmp_path, capsys, sim16, name, label):
    data = read_tensor(sim16 / name)
    data[0, 0, 0] = np.nan
    write_tensor(tmp_path / name, data)
    files = {n: str(tmp_path / n if n == name else sim16 / n) for n in ("kspace.bt", "sens.bt")}
    code = _run([
        "reconstruct", "--kspace", files["kspace.bt"], "--mask", str(sim16 / "mask.bt"),
        "--sens", files["sens.bt"], "--out-dir", str(tmp_path / "o"), "--steps", "3",
    ])
    assert code == 3
    assert f"numeric error: {label} contains non-finite values" in capsys.readouterr().err


@pytest.mark.parametrize("name, data", [
    ("sens.bt", np.ones((16, 16), complex) / 2),
    ("sens.bt", np.ones((2, 8, 8), complex) / 2),
    ("kspace.bt", np.zeros((1, 16, 16), complex)),
    ("kspace.bt", np.zeros((16, 16), complex)),
    ("reference.bt", np.zeros((8, 16))),
], ids=["rank-2 sens", "8x8 sens", "1-coil kspace", "rank-2 kspace", "8x16 reference"])
def test_misshapen_input_tensor_exits_4(tmp_path, capsys, name, data):
    """Tensors that disagree with the 16 x 16 mask or with the 2-coil maps are format errors
    naming the file, and nothing is written."""
    sim = tmp_path / "sim"
    assert _run(["simulate", "--out-dir", str(sim), "--size", "16", "--coils", "2"]) == 0
    write_tensor(sim / name, data)
    out = tmp_path / "o"
    code = _run([
        "reconstruct", "--kspace", str(sim / "kspace.bt"), "--mask", str(sim / "mask.bt"),
        "--sens", str(sim / "sens.bt"), "--reference", str(sim / "reference.bt"),
        "--out-dir", str(out), "--steps", "3",
    ])
    assert code == 4
    err = capsys.readouterr().err
    assert "i/o error: " in err and name in err
    assert not out.exists()


def test_oversized_sensitivities_exit_3(tmp_path, capsys, sim16):
    """Maps scaled x10 break sum_c |S_c|^2 = 1, which the operator assumes."""
    write_tensor(tmp_path / "sens.bt", 10 * read_tensor(sim16 / "sens.bt"))
    code = _run([
        "reconstruct", "--kspace", str(sim16 / "kspace.bt"), "--mask", str(sim16 / "mask.bt"),
        "--sens", str(tmp_path / "sens.bt"), "--out-dir", str(tmp_path / "o"), "--steps", "3",
    ])
    assert code == 3
    assert "numeric error: sensitivities exceed" in capsys.readouterr().err


def test_traces_rerenders_the_written_traces(tmp_path, sim16, tiny_weights):
    """traces.txt and the re-render of report.json derive from StepRecord, byte for byte."""
    out = tmp_path / "o"
    assert _run([
        "reconstruct", "--kspace", str(sim16 / "kspace.bt"), "--mask", str(sim16 / "mask.bt"),
        "--sens", str(sim16 / "sens.bt"), "--out-dir", str(out), "--steps", "8", "--window", "2",
        "--prior", "unet", "--weights", str(tiny_weights),
    ]) == 0
    rerender = tmp_path / "t.txt"
    assert _run(["traces", "--report", str(out / "report.json"), "--out", str(rerender)]) == 0
    written = (out / "traces.txt").read_text()
    assert rerender.read_text() == written
    header, *rows = written.splitlines()
    assert "cg_iters" in header.split()
    columns = zip(*(row.split() for row in rows))
    assert all(any(v != "nan" for v in column) for column in columns)  # both walks on


@pytest.mark.parametrize("damage", [
    lambda t: ("spectrum", t["spectrum"].astype(np.complex128)),
    lambda t: ("mean", np.where(np.eye(16) > 0, np.inf, t["mean"])),
    lambda t: ("spectrum", np.where(np.eye(16) > 0, np.nan, t["spectrum"])),
    lambda t: ("mean", np.zeros((16, 8))),
], ids=["complex spectrum", "inf mean", "nan spectrum", "mean shape"])
def test_bad_prior_tensor_exits_4(tmp_path, capsys, sim16, damage):
    """A valid 16x16 Gaussian prior with one tensor damaged is a format error naming the file."""
    tensors = {"mean": np.zeros((16, 16)), "spectrum": np.ones((16, 16))}
    name, value = damage(tensors)
    for key, data in {**tensors, name: value}.items():
        write_tensor(tmp_path / f"{key}.bt", data)
    out = tmp_path / "o"
    code = _run([
        "reconstruct", "--kspace", str(sim16 / "kspace.bt"), "--mask", str(sim16 / "mask.bt"),
        "--sens", str(sim16 / "sens.bt"), "--out-dir", str(out), "--steps", "3",
        "--prior", "gaussian", "--prior-mean", str(tmp_path / "mean.bt"),
        "--prior-spectrum", str(tmp_path / "spectrum.bt"),
    ])
    assert code == 4
    assert "mean.bt" in capsys.readouterr().err
    assert not (out / "recon.bt").exists()
