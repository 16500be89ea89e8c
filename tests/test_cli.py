import json
import subprocess
import sys

import numpy as np
import pytest

from mricalib import read_tensor, write_tensor
from mricalib.cli import main
from mricalib.tensorio import MAGIC


def _run(args):
    return main(args)


def test_simulate_then_reconstruct(tmp_path):
    sim_dir = tmp_path / "sim"
    assert _run([
        "simulate", "--out-dir", str(sim_dir), "--size", "32", "--coils", "2",
        "--accel", "4", "--seed-phantom", "1",
    ]) == 0
    for name in ("kspace.bt", "sens.bt", "mask.bt", "mask.bt.meta", "reference.bt"):
        assert (sim_dir / name).exists()

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


def test_bad_mask_sidecar_exits_4(tmp_path, capsys):
    sim_dir = tmp_path / "sim"
    _run(["simulate", "--out-dir", str(sim_dir), "--size", "16", "--coils", "1"])
    meta = sim_dir / "mask.bt.meta"
    meta.write_text(meta.read_text().replace("accel=", "accel=abc", 1))
    code = _run([
        "reconstruct", "--kspace", str(sim_dir / "kspace.bt"), "--mask", str(sim_dir / "mask.bt"),
        "--sens", str(sim_dir / "sens.bt"), "--out-dir", str(tmp_path / "o"),
    ])
    assert code == 4
    assert "mask sidecar" in capsys.readouterr().err


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


@pytest.mark.parametrize("old, new", [
    ("height=16", "height=15"),
    ("width=16", "width=32"),
    ("accel=4.0", "accel=-5"),
    ("accel=4.0", "accel=nan"),
    ("accel=4.0", "accel=inf"),
    ("acs_fraction=0.08", "acs_fraction=1.5"),
])
def test_inconsistent_mask_sidecar_exits_4(tmp_path, capsys, old, new):
    sim_dir = tmp_path / "sim"
    _run(["simulate", "--out-dir", str(sim_dir), "--size", "16", "--coils", "1"])
    meta = sim_dir / "mask.bt.meta"
    assert old in meta.read_text()
    meta.write_text(meta.read_text().replace(old, new, 1))
    assert _reconstruct_sim(sim_dir, tmp_path / "o") == 4
    assert "mask sidecar" in capsys.readouterr().err


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
    from mricalib.phantom import PhantomSpec, make_phantom
    from mricalib.unet import UNetArch, save_weights, train_toy_denoiser

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
        "--prior", "unet", "--weights", str(wpath), "--steps", "4",
        "--band-cutoff", "0.3", "--cg-iters", "8",
    ])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert len(report["records"][0]["delta"]) == 4

    out2 = tmp_path / "rec2"
    code = _run([
        "reconstruct", "--kspace", str(sim_dir / "kspace.bt"), "--mask", str(sim_dir / "mask.bt"),
        "--sens", str(sim_dir / "sens.bt"), "--out-dir", str(out2),
        "--prior", "unet", "--weights", str(wpath), "--steps", "4",
        "--uncalibrated", "--cg-iters", "8",
    ])
    assert code == 0
    report2 = json.loads((out2 / "report.json").read_text())
    assert report2["records"][0]["delta"] == []


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
