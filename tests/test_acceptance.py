"""End-to-end acceptance gate.

One test per criterion, each enforcing its stated tolerance and printing
a single pass line (run with -s to see them stream).  The directional
ablation trains its own small denoiser, so this module takes a few
minutes end to end.
"""

import subprocess
import sys
import time

import numpy as np
import pytest

from mricalib import (
    CGConfig,
    ForwardOperator,
    GaussianPrior,
    PhantomSpec,
    ReconConfig,
    apply_adjoint,
    apply_forward,
    build_schedule,
    convergence_criterion,
    fft2c,
    generate_mask,
    ifft2c,
    make_phantom,
    mc_divergence,
    paired_gain,
    psnr,
    reconstruct,
    run_ablation,
    shifted_cases,
    solve_p3,
    synth_coil_maps,
    tweedie_denoise,
    white_prior,
)
from mricalib.unet import UNetArch, UNetScorePrior, train_toy_denoiser


def _report(num: int, detail: str) -> None:
    print(f"\n[criterion {num}] PASS  {detail}")


def _rand_image(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def test_criterion_1_operator_adjointness():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for kind in ("Gaussian1D", "Uniform1D"):
        for accel in (4, 8):
            for coils in (1, 4):
                mask = generate_mask(kind, 64, 64, accel, 0.08, seed=accel * 10 + coils)
                sens = synth_coil_maps(coils, 64, 64, seed=coils)
                op = ForwardOperator(mask, sens)
                x = _rand_image(rng, 64)
                y = rng.standard_normal((coils, 64, 64)) + 1j * rng.standard_normal((coils, 64, 64))
                lhs = np.vdot(y, apply_forward(x, op))
                rhs = np.vdot(apply_adjoint(y, op), x)
                rel = abs(lhs - rhs) / abs(lhs)
                worst = max(worst, rel)
                assert rel <= 1e-10, f"{kind} R={accel} C={coils}: rel={rel:.2e}"
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    _report(1, f"adjoint identity over mask/accel/coil grid, worst rel err {worst:.2e} ({elapsed:.1f}s)")


def test_criterion_2_cg_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(202)
    cfg = CGConfig(max_iters=400, tol=1e-10)
    worst_res, worst_agree = 0.0, 0.0
    n = 32
    for case in range(20):
        kind = ("Gaussian1D", "Uniform1D")[case % 2]
        coils = (1, 2)[case % 2]
        mask = generate_mask(kind, n, n, 4, 0.1, seed=case)
        sens = synth_coil_maps(coils, n, n, seed=case + 1)
        op = ForwardOperator(mask, sens)
        gamma = float(rng.uniform(0.5, 20.0))
        x_dot = _rand_image(rng, n)
        y = (rng.standard_normal((coils, n, n)) + 1j * rng.standard_normal((coils, n, n)))
        y *= mask.bits[None]
        x_adj = apply_adjoint(y, op)
        res = solve_p3(x_dot, x_adj, op, gamma, cfg)

        rhs = gamma * x_adj + x_dot
        lhs = gamma * apply_adjoint(apply_forward(res.x, op), op) + res.x
        rel_res = np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs)
        worst_res = max(worst_res, rel_res)
        assert rel_res <= 1e-8, f"case {case}: normal-equation residual {rel_res:.2e}"

        # dense oracle: materialize (gamma AᴴA + I) column by column
        dim = n * n
        dense = np.empty((dim, dim), dtype=np.complex128)
        basis = np.zeros(dim, dtype=np.complex128)
        for j in range(dim):
            basis[j] = 1.0
            img = basis.reshape(n, n)
            dense[:, j] = (gamma * apply_adjoint(apply_forward(img, op), op) + img).ravel()
            basis[j] = 0.0
        direct = np.linalg.solve(dense, rhs.ravel()).reshape(n, n)
        agree = np.linalg.norm(res.x - direct) / np.linalg.norm(direct)
        worst_agree = max(worst_agree, agree)
        assert agree <= 1e-6, f"case {case}: dense agreement {agree:.2e}"
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _report(2, f"20 solves: worst residual {worst_res:.2e}, worst dense agreement {worst_agree:.2e} ({elapsed:.1f}s)")


def test_criterion_3_tweedie_exactness():
    started = time.perf_counter()
    rng = np.random.default_rng(303)
    prior = white_prior(32, 32)
    x = _rand_image(rng, 32)
    worst = 0.0
    for sigma in build_schedule(100, 1.0, 0.01):
        out = tweedie_denoise(x, float(sigma), prior)
        err = float(np.max(np.abs(out - x / (1 + sigma**2))))
        worst = max(worst, err)
        assert err <= 1e-12
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    _report(3, f"posterior-mean step exact over the 100-level ladder, worst abs err {worst:.2e} ({elapsed:.1f}s)")


def test_criterion_4_end_to_end_map_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(404)
    n = 32
    mask = generate_mask("Gaussian1D", n, n, 4, 0.08, seed=11)
    sens = synth_coil_maps(4, n, n, seed=2)
    op = ForwardOperator(mask, sens)
    phantom = make_phantom(PhantomSpec(size=n, seed=3))
    y = apply_forward(phantom, op)
    spectrum = 10.0 ** rng.uniform(-10, -8, size=(n, n))
    prior = GaussianPrior(np.zeros((n, n), dtype=np.complex128), spectrum)
    gamma = 1.0
    # terminal level 1.0: the per-level fixed point equals the stated MAP system
    cfg = ReconConfig(
        steps=100, sigma_max=30.0, sigma_min=1.0, gamma_init=gamma,
        enable_fpc=False, enable_rpa=False, cg=CGConfig(max_iters=80, tol=1e-12),
    )
    x_hat, _ = reconstruct(y, op, prior, cfg)

    dim = n * n
    dense = np.empty((dim, dim), dtype=np.complex128)
    basis = np.zeros(dim, dtype=np.complex128)
    for j in range(dim):
        basis[j] = 1.0
        img = basis.reshape(n, n)
        col = gamma * apply_adjoint(apply_forward(img, op), op)
        col = col + ifft2c(fft2c(img) / (spectrum + cfg.sigma_min**2))
        dense[:, j] = col.ravel()
        basis[j] = 0.0
    rhs = (gamma * apply_adjoint(y, op)).ravel()
    x_star = np.linalg.solve(dense, rhs).reshape(n, n)
    rel = np.linalg.norm(x_hat - x_star) / np.linalg.norm(x_star)
    elapsed = time.perf_counter() - started
    assert rel <= 1e-3, f"MAP oracle disagreement {rel:.2e}"
    assert elapsed < 120.0
    _report(4, f"alternating loop matches dense closed-form MAP, rel err {rel:.2e} ({elapsed:.1f}s)")


def test_criterion_5_calibration_identity():
    started = time.perf_counter()
    n = 32
    phantom = make_phantom(PhantomSpec(size=n, seed=7))
    mask = generate_mask("Gaussian1D", n, n, 4, 0.1, seed=8)
    sens = synth_coil_maps(2, n, n, seed=9)
    op = ForwardOperator(mask, sens)
    y = apply_forward(phantom, op)
    cfg = ReconConfig(steps=10, enable_fpc=False, enable_rpa=False,
                      cg=CGConfig(max_iters=15, tol=1e-9))

    # analytic prior: the calibration vector is ignored entirely
    prior = GaussianPrior(np.zeros((n, n), complex), np.ones((n, n)))
    x_a1, _ = reconstruct(y, op, prior, cfg)
    x_a2, _ = reconstruct(y, op, prior, cfg)
    gap_analytic = float(np.max(np.abs(x_a1 - x_a2)))
    assert gap_analytic <= 1e-9

    # network prior: identity vector through the modulated path vs hooks removed
    arch = UNetArch(widths=(4, 8), bottleneck=12, emb_steps=10)
    data = [make_phantom(PhantomSpec(size=n, seed=s)) for s in range(6)]
    weights = train_toy_denoiser(data, epochs=10, seed=1, arch=arch, lr=0.2)
    x_cal, _ = reconstruct(y, op, UNetScorePrior(weights, calibratable=True), cfg)
    x_raw, _ = reconstruct(y, op, UNetScorePrior(weights, calibratable=False), cfg)
    gap_network = float(np.max(np.abs(x_cal - x_raw)))
    assert gap_network <= 1e-9, f"identity calibration changed the reconstruction by {gap_network:.2e}"
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _report(5, f"identity vector preserves the network end to end, gaps {gap_analytic:.1e}/{gap_network:.1e} ({elapsed:.1f}s)")


def test_criterion_6_sure_divergence_unbiased():
    started = time.perf_counter()
    rng = np.random.default_rng(606)
    h_dim = 16
    H = 2.0 * np.eye(h_dim) + 0.05 * rng.standard_normal((h_dim, h_dim))
    x = rng.standard_normal(h_dim)
    eps = 1e-3
    vals = [mc_divergence(lambda v: H @ v, x, eps, seed=s) for s in range(200)]
    target = eps * float(np.trace(H))
    rel = abs(float(np.mean(vals)) - target) / abs(target)
    elapsed = time.perf_counter() - started
    assert rel <= 0.05, f"divergence probe off by {rel:.1%}"
    assert elapsed < 60.0
    _report(6, f"probe mean within {rel:.1%} of eps*trace over 200 seeds ({elapsed:.1f}s)")


def test_criterion_7_early_stopping():
    started = time.perf_counter()
    # hand case: windows (4+4) then (2+2)
    assert convergence_criterion([4.0, 4.0, 2.0, 2.0], 2) == 0.5

    # constant history at the stated defaults: E = 0 < 0.001
    defaults = ReconConfig()
    assert (defaults.window, defaults.tau_reg) == (5, 0.001)
    e_val = convergence_criterion([3.0] * 10, defaults.window)
    assert e_val == 0.0
    assert e_val < defaults.tau_reg

    # a run at the default window and threshold freezes gamma for good at the first step
    # whose E drops below the threshold
    n = 32
    op = ForwardOperator(generate_mask("Gaussian1D", n, n, 4, 0.08, seed=71),
                         synth_coil_maps(2, n, n, seed=72))
    y = apply_forward(make_phantom(PhantomSpec(size=n, seed=73)), op)
    _, report = reconstruct(y, op, white_prior(n, n), ReconConfig(steps=20, enable_fpc=False))
    assert report.stopped_at is not None
    records = report.records
    idx = next(i for i, rec in enumerate(records) if rec.t == report.stopped_at)
    assert records[idx].conv_metric < defaults.tau_reg
    assert all(rec.conv_metric is None or rec.conv_metric >= defaults.tau_reg
               for rec in records[:idx])
    assert records[0].gamma != defaults.gamma_init  # the walk stepped before it froze
    assert all(rec.gamma == records[idx].gamma for rec in records[idx:])
    assert all(rec.loss_reg is None for rec in records[idx + 1 :])
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _report(7, f"E=0 below tau at defaults, gamma frozen from t={report.stopped_at} on, "
               f"hand value 0.5 reproduced ({elapsed:.2f}s)")


@pytest.mark.slow
def test_criterion_8_directional_ablation():
    started = time.perf_counter()
    arch = UNetArch(widths=(8, 16), bottleneck=32, emb_steps=25,
                    sigma_min=0.01, sigma_max=1.0)
    train = [
        make_phantom(PhantomSpec(size=64, seed=s, kind=k))
        for s in range(12)
        for k in ("ellipse-phantom", "piecewise-smooth")
    ]
    weights = train_toy_denoiser(train, epochs=120, seed=0, arch=arch, lr=0.3, batch_size=4)
    prior = UNetScorePrior(weights)

    cases = shifted_cases(
        20, PhantomSpec(size=64, seed=500, contrast_exponent=1.5, bias_amplitude=0.3),
        coils=2, accel=4, noise_std=0.01, seed_mask=600, seed_coils=700, seed_noise=800,
    )

    cfg = ReconConfig(
        steps=25, sigma_max=0.5, sigma_min=0.01, gamma_init=1.0,
        tau_reg=0.001, window=5, renoise_mode="stochastic",
        gamma_step=0.3, delta_step=0.05, tau_ssl=1.0,
        cg=CGConfig(max_iters=20, tol=1e-8),
    )
    rows = {row["label"]: row for row in run_ablation(cases, prior, cfg)}
    both_off = rows["Baseline"]["psnr_mean"]
    fpc_only = rows["w/o RPA"]["psnr_mean"]
    rpa_only = rows["w/o FPC"]["psnr_mean"]
    both_on = rows["Ours"]["psnr_mean"]
    gain, wins = paired_gain(rows["Ours"], rows["w/o FPC"])

    elapsed = time.perf_counter() - started
    # every failure names the four row means in full and the paired gain, since the rows
    # sit a few hundredths of a dB apart and move with the BLAS kernel
    detail = (f"row means Baseline {both_off!r}, w/o RPA {fpc_only!r}, w/o FPC {rpa_only!r}, "
              f"Ours {both_on!r}; Ours - w/o FPC {gain!r} dB, {wins}/{len(cases)} wins; "
              f"{elapsed:.0f}s")
    assert both_on >= max(fpc_only, rpa_only), detail
    assert max(fpc_only, rpa_only) >= both_off, detail
    assert both_on - both_off >= 0.3, detail
    assert elapsed < 1800.0, detail
    _report(
        8,
        f"PSNR: off {both_off:.2f} | cal-only {fpc_only:.2f} | weight-only {rpa_only:.2f} "
        f"| full {both_on:.2f} (+{both_on - both_off:.2f} dB); full over weight-only "
        f"{gain:+.3f} dB, {wins}/{len(cases)} wins ({elapsed:.0f}s); row means "
        f"{both_off!r} / {fpc_only!r} / {rpa_only!r} / {both_on!r}",
    )


def test_criterion_9_cli_determinism(tmp_path):
    started = time.perf_counter()
    sim_dir = tmp_path / "sim"
    base = [
        sys.executable, "-m", "mricalib",
    ]
    subprocess.run(
        base + ["simulate", "--out-dir", str(sim_dir), "--size", "32", "--coils", "2",
                "--accel", "4", "--noise-std", "0.01", "--seed-phantom", "4"],
        check=True, capture_output=True,
    )
    outs = []
    for run_dir in ("a", "b"):
        out = tmp_path / run_dir
        proc = subprocess.run(
            base
            + [
                "reconstruct",
                "--kspace", str(sim_dir / "kspace.bt"),
                "--mask", str(sim_dir / "mask.bt"),
                "--sens", str(sim_dir / "sens.bt"),
                "--out-dir", str(out),
                "--prior", "white", "--steps", "12",
                "--disable-fpc", "--cg-iters", "15",
            ],
            check=True, capture_output=True,
        )
        assert proc.returncode == 0
        outs.append((out / "recon.bt").read_bytes())
    elapsed = time.perf_counter() - started
    assert outs[0] == outs[1], "repeat CLI runs produced different tensor bytes"
    assert elapsed < 300.0
    _report(9, f"two CLI runs produced bit-identical tensors ({elapsed:.1f}s)")
