import dataclasses

import numpy as np
import pytest

from mricalib import (
    CGConfig,
    ForwardOperator,
    GaussianPrior,
    PhantomSpec,
    ReconConfig,
    ScorePrior,
    StepRecord,
    add_noise,
    apply_forward,
    emit_images,
    format_ablation_table,
    generate_mask,
    make_phantom,
    paired_gain,
    partition_mask,
    reconstruct,
    run_ablation,
    shifted_cases,
    synth_coil_maps,
    trace_columns,
    white_prior,
)
from mricalib import pipeline, unet
from mricalib.errors import InvalidArgumentError, NumericError
from mricalib.fourier import fft2c, ifft2c
from mricalib.unet import UNetArch, UNetScorePrior, init_weights, unet_forward


def _problem(n=32, coils=2, accel=4, seed=0, noise=0.0):
    phantom = make_phantom(PhantomSpec(size=n, seed=seed))
    mask = generate_mask("Gaussian1D", n, n, accel, 0.1, seed=seed + 1)
    sens = synth_coil_maps(coils, n, n, seed=seed + 2)
    op = ForwardOperator(mask, sens)
    y = apply_forward(phantom, op)
    return phantom, op, y


FAST = dict(steps=8, cg=CGConfig(max_iters=12, tol=1e-8))


def test_report_has_one_record_per_step():
    phantom, op, y = _problem()
    cfg = ReconConfig(**FAST, enable_fpc=False, enable_rpa=False)
    _, report = reconstruct(y, op, white_prior(32, 32), cfg)
    assert len(report.records) == cfg.steps
    assert [r.t for r in report.records] == list(range(cfg.steps, 0, -1))


def test_bit_identical_repeat_runs():
    phantom, op, y = _problem(seed=3)
    cfg = ReconConfig(**FAST, enable_fpc=False, enable_rpa=True)
    x1, r1 = reconstruct(y, op, white_prior(32, 32), cfg)
    x2, r2 = reconstruct(y, op, white_prior(32, 32), cfg)
    assert np.array_equal(x1, x2)
    assert [rec.gamma for rec in r1.records] == [rec.gamma for rec in r2.records]


def test_toggles_freeze_their_parameters():
    phantom, op, y = _problem(seed=5)
    arch = UNetArch(widths=(4, 8), bottleneck=8, emb_steps=8)
    prior = UNetScorePrior(init_weights(arch, seed=1))
    cfg = ReconConfig(**FAST, enable_fpc=False, enable_rpa=False)
    _, report = reconstruct(y, op, prior, cfg)
    for rec in report.records:
        assert np.all(rec.delta == 1.0)
        assert rec.gamma == cfg.gamma_init
        assert rec.loss_ssl is None and rec.loss_reg is None


class _DeltaLog(ScorePrior):
    """Unit white-noise score that records every calibration vector it is given."""

    layer_count = 2

    def __init__(self):
        self.seen = []

    def evaluate(self, x, sigma, delta=None):
        self.seen.append(None if delta is None else delta.copy())
        return -x / (1.0 + sigma**2)


def test_frozen_vector_reaches_prior_unchanged():
    phantom, op, y = _problem(seed=19)
    prior = _DeltaLog()
    cfg = ReconConfig(**FAST, enable_fpc=False, enable_rpa=True)
    reconstruct(y, op, prior, cfg)
    assert len(prior.seen) > cfg.steps  # the main denoise and the risk probes
    for d in prior.seen:
        assert np.array_equal(d, np.ones(4))


def test_calibration_off_runs_the_uncalibrated_network():
    phantom, op, y = _problem(seed=20)
    weights = init_weights(UNetArch(widths=(4, 8), bottleneck=8, emb_steps=8), seed=7)
    cfg = ReconConfig(**FAST, enable_fpc=False, enable_rpa=True)
    x_cal, _ = reconstruct(y, op, UNetScorePrior(weights, calibratable=True), cfg)
    x_raw, _ = reconstruct(y, op, UNetScorePrior(weights, calibratable=False), cfg)
    assert x_cal.tobytes() == x_raw.tobytes()

def test_fpc_updates_delta_and_logs_loss():
    phantom, op, y = _problem(seed=6)
    arch = UNetArch(widths=(4, 8), bottleneck=8, emb_steps=8)
    prior = UNetScorePrior(init_weights(arch, seed=2))
    cfg = ReconConfig(**FAST, enable_fpc=True, enable_rpa=False)
    _, report = reconstruct(y, op, prior, cfg)
    assert all(rec.loss_ssl is not None for rec in report.records)
    assert any(not np.all(rec.delta == 1.0) for rec in report.records)
    for rec in report.records:
        assert np.all(rec.delta >= 0) and np.all(rec.delta <= 2)


def test_rpa_updates_gamma_and_freezes_after_stop():
    phantom, op, y = _problem(seed=7)
    cfg = ReconConfig(steps=24, cg=CGConfig(max_iters=12, tol=1e-8),
                      enable_fpc=False, enable_rpa=True, window=3)
    _, report = reconstruct(y, op, white_prior(32, 32), cfg)
    gammas = [rec.gamma for rec in report.records]
    assert any(g != cfg.gamma_init for g in gammas)
    assert report.stopped_at is not None
    idx = next(i for i, rec in enumerate(report.records) if rec.t == report.stopped_at)
    frozen = gammas[idx]
    assert all(g == frozen for g in gammas[idx:])
    assert all(rec.loss_reg is None for rec in report.records[idx + 1 :])


def test_walk_settings_reach_the_walks():
    """Step sizes and the stop rule come from ReconConfig, not from defaults in the walks."""
    phantom, op, y = _problem(seed=9)
    arch = UNetArch(widths=(4, 8), bottleneck=8, emb_steps=8)
    prior = UNetScorePrior(init_weights(arch, seed=4))
    cfg = ReconConfig(**FAST, delta_step=0.03, gamma_step=0.2, tau_reg=1e6, window=2)
    _, report = reconstruct(y, op, prior, cfg)
    first = report.records[0]
    # Adam's first step has size step_size in every coordinate whose gradient is nonzero
    assert np.allclose(np.abs(first.delta - 1.0), cfg.delta_step, atol=1e-6)
    assert abs(np.log(first.gamma / cfg.gamma_init)) == pytest.approx(cfg.gamma_step, abs=1e-9)
    # any finite convergence measure is below 1e6: the walk stops once two windows have filled
    assert report.stopped_at == cfg.steps - 2 * cfg.window + 1


def test_prior_only_limit_converges_to_mean():
    phantom, op, y = _problem(seed=8)
    mu = make_phantom(PhantomSpec(size=32, seed=11))
    prior = GaussianPrior(mu, np.full((32, 32), 1e-10))
    cfg = ReconConfig(steps=100, sigma_min=1e-3, gamma_init=0.0,
                      enable_fpc=False, enable_rpa=False)
    x, _ = reconstruct(y, op, prior, cfg)
    assert np.linalg.norm(x - mu) <= 1e-3 * np.linalg.norm(mu)


def test_gamma_zero_requires_rpa_off():
    with pytest.raises(InvalidArgumentError):
        ReconConfig(gamma_init=0.0, enable_rpa=True)


@pytest.mark.parametrize("field, value", [
    ("steps", 2.5), ("window", 2.5), ("seed_init", 0.5), ("steps", True), ("seed_mc", False),
    ("seed_noise", np.float64(3.0)),
])
def test_count_and_seed_settings_must_be_integers(field, value):
    assert getattr(ReconConfig(**{field: np.int64(3)}), field) == 3  # NumPy integers stay legal
    with pytest.raises(InvalidArgumentError, match=field):
        ReconConfig(**{field: value})


def test_data_consistency_beats_prior_only():
    phantom, op, y = _problem(seed=9)
    prior = white_prior(32, 32)
    cfg_full = ReconConfig(steps=20, enable_fpc=False, enable_rpa=False, gamma_init=50.0)
    cfg_prior = dataclasses.replace(cfg_full, gamma_init=0.0)
    x_full, _ = reconstruct(y, op, prior, cfg_full)
    x_prior, _ = reconstruct(y, op, prior, cfg_prior)
    res_full = np.linalg.norm(y - apply_forward(x_full, op))
    res_prior = np.linalg.norm(y - apply_forward(x_prior, op))
    assert res_full <= res_prior


class _CalibrationBlindPrior(ScorePrior):
    """White prior that claims one calibratable layer but ignores delta."""

    layer_count = 1

    def evaluate(self, x, sigma, delta=None):
        return -x / (1.0 + sigma**2)

    def delta_vjp(self, x, sigma, delta, v):
        return np.zeros(2)


def test_calibration_input_never_sees_heldout_kspace(monkeypatch):
    phantom, op, y = _problem(seed=17)
    cfg = ReconConfig(**FAST, enable_fpc=True, enable_rpa=False, renoise_mode="stochastic")
    held = partition_mask(op.mask, pipeline.HOLDOUT_FRACTION, cfg.seed_partition).gamma_bits
    y_other = y + 0.5 * held[None]  # differs from y on the held-out entries only
    real_ssl_loss = pipeline.ssl_loss

    def inputs_seen(y_run):
        scored, differentiated = [], []
        prior = _CalibrationBlindPrior()

        def spy(x_hat, *args):
            scored.append(np.array(x_hat, copy=True))
            return real_ssl_loss(x_hat, *args)

        def vjp_spy(x, *args):
            differentiated.append(np.array(x, copy=True))
            return _CalibrationBlindPrior.delta_vjp(prior, x, *args)

        monkeypatch.setattr(pipeline, "ssl_loss", spy)
        prior.delta_vjp = vjp_spy
        reconstruct(y_run, op, prior, cfg)
        return scored, differentiated

    for first, second in zip(inputs_seen(y), inputs_seen(y_other)):
        assert len(first) == len(second) == cfg.steps  # one objective and gradient a step
        for a, b in zip(first, second):
            assert np.array_equal(a, b)


def test_tau_ssl_scales_only_the_held_out_term():
    # the prior ignores delta, so delta stays at ones, every run walks the same x_lambda and
    # the penalty is 0: loss_ssl(tau) = tau * E_t
    phantom, op, y = _problem(seed=20)
    losses = []
    for tau in (1.0, 2.0, 3.0):
        cfg = ReconConfig(**FAST, enable_fpc=True, enable_rpa=False, tau_ssl=tau)
        _, report = reconstruct(y, op, _CalibrationBlindPrior(), cfg)
        losses.append(np.array([r.loss_ssl for r in report.records]))
    first, second = losses[1] - losses[0], losses[2] - losses[1]
    assert np.all(first > 0)
    assert np.all(np.abs(second - first) <= 1e-9 * first)
    assert np.all(np.abs(losses[0] - first) <= 1e-9 * losses[0])


class _TwoBandPrior(ScorePrior):
    """Analytic calibratable score -(alpha LOW(x) + beta HIGH(x)) / (1 + sigma^2), with LOW the
    centred k-space disc of radius n/8."""

    layer_count = 1

    @staticmethod
    def _bands(x):
        n = x.shape[0]
        f = np.arange(n) - n // 2
        low = ifft2c(fft2c(x) * (f[:, None] ** 2 + f[None, :] ** 2 <= (n // 8) ** 2))
        return low, x - low

    def evaluate(self, x, sigma, delta=None):
        alpha, beta = (1.0, 1.0) if delta is None else delta
        low, high = self._bands(x)
        return -(alpha * low + beta * high) / (1.0 + sigma**2)

    def delta_vjp(self, x, sigma, delta, v):
        return np.array([-np.real(np.vdot(v, band)) for band in self._bands(x)]) / (1.0 + sigma**2)


def test_calibration_gradient_matches_finite_differences(monkeypatch):
    """At every step the loop's objective returns the gradient of its own value: the adjoint
    solve and delta_vjp against central differences, with a CG tight enough to be exact."""
    phantom, op, y = _problem(seed=22)
    cfg = ReconConfig(steps=6, cg=CGConfig(max_iters=200, tol=1e-13), enable_fpc=True,
                      enable_rpa=False, gamma_init=2.5, tau_ssl=2.0)
    real_update_delta = pipeline.update_delta
    errors = []

    def checked(state, objective, step_size):
        _, grad = objective(state.delta)
        h = 1e-5
        fd = np.array([objective(state.delta + h * e)[0] - objective(state.delta - h * e)[0]
                       for e in np.eye(state.delta.size)]) / (2 * h)
        errors.append(np.max(np.abs(grad - fd)) / np.max(np.abs(fd)))
        return real_update_delta(state, objective, step_size)

    monkeypatch.setattr(pipeline, "update_delta", checked)
    _, report = reconstruct(y, op, _TwoBandPrior(), cfg)
    assert any(not np.all(rec.delta == 1.0) for rec in report.records)
    assert len(errors) == cfg.steps and max(errors) <= 1e-6, errors


class _FreshUNetPrior(ScorePrior):
    """The U-Net score without any reuse: one full unet_forward per evaluation."""

    def __init__(self, weights):
        self.weights = weights
        self.layer_count = weights.arch.layer_count
        self._sigmas = weights.arch.sigma_ladder()

    def evaluate(self, x, sigma, delta=None):
        idx = int(np.argmin(np.abs(self._sigmas - sigma)))
        return -unet_forward(x, idx, delta, self.weights) / sigma

    def delta_vjp(self, x, sigma, delta, v):
        return UNetScorePrior(self.weights).delta_vjp(x, sigma, delta, v)


def test_unet_prior_reuse_is_bit_identical_end_to_end():
    phantom, op, y = _problem(seed=18)
    weights = init_weights(UNetArch(widths=(4, 8), bottleneck=8, emb_steps=8), seed=6)
    cfg = ReconConfig(**FAST, enable_fpc=True, enable_rpa=True, renoise_mode="stochastic")
    x_memo, r_memo = reconstruct(y, op, UNetScorePrior(weights), cfg, reference=phantom)
    x_fresh, r_fresh = reconstruct(y, op, _FreshUNetPrior(weights), cfg, reference=phantom)
    assert x_memo.tobytes() == x_fresh.tobytes()
    assert len(r_memo.records) == len(r_fresh.records) == cfg.steps
    for a, b in zip(r_memo.records, r_fresh.records):
        for f in dataclasses.fields(a):
            va, vb = getattr(a, f.name), getattr(b, f.name)
            if isinstance(va, np.ndarray):
                assert va.tobytes() == vb.tobytes(), f.name
            else:
                assert va == vb, f.name
    assert r_memo.psnr == r_fresh.psnr and r_memo.ssim == r_fresh.ssim


class _EvaluationLog(ScorePrior):
    """Unit white-noise score claiming two calibratable layers; logs every evaluation.

    Its calibration gradient is a constant, so the calibration vector moves every step."""

    layer_count = 2

    def __init__(self):
        self.calls = []

    def evaluate(self, x, sigma, delta=None):
        self.calls.append((sigma, x.tobytes(), None if delta is None else delta.tobytes()))
        return -x / (1.0 + sigma**2)

    def delta_vjp(self, x, sigma, delta, v):
        return np.ones(4)


@pytest.mark.parametrize("enable_fpc", [False, True])
def test_each_step_denoises_each_input_once(enable_fpc):
    """Within a step the main solve and the risk probes share their denoised images."""
    phantom, op, y = _problem(seed=21)
    prior = _EvaluationLog()
    cfg = ReconConfig(**FAST, enable_fpc=enable_fpc, enable_rpa=True)
    _, report = reconstruct(y, op, prior, cfg)
    for rec in report.records:
        assert rec.loss_reg is not None  # the risk walk ran in this step
        step = [call[1:] for call in prior.calls if call[0] == rec.sigma]
        # the main iterate and the risk probe point; when calibrating also x_lambda at the
        # incoming calibration vector (the objective) and, once it is no longer x (the first
        # step), at the updated one (its own step)
        expected = 2 + (enable_fpc and (1 if rec.t == cfg.steps else 2))
        assert len(step) == len(set(step)) == expected


def test_calibration_gradient_shares_the_encoder_pass(monkeypatch):
    """The calibration's evaluation, its gradient and the denoise of x_lambda share one encoder
    pass: 3 encodes a step while the risk walk runs (x_lambda, x, x + eps mu), 2 after it stops,
    and one fewer in the first step, where x_lambda is x."""
    phantom, op, y = _problem(seed=23)
    weights = init_weights(UNetArch(widths=(4, 8), bottleneck=8, emb_steps=8), seed=8)
    cfg = ReconConfig(**FAST, tau_reg=1e6, window=2)
    encodes = []
    real_encode = unet._encode

    def counting_encode(*args, **kwargs):
        encodes.append(1)
        return real_encode(*args, **kwargs)

    monkeypatch.setattr(unet, "_encode", counting_encode)
    _, report = reconstruct(y, op, UNetScorePrior(weights), cfg)
    active = sum(rec.loss_reg is not None for rec in report.records)
    assert 0 < active < cfg.steps
    assert len(encodes) == 3 * active + 2 * (cfg.steps - active) - 1


@pytest.mark.parametrize("enable_fpc, adjoints", [(True, 2), (False, 1)])
def test_one_adjoint_image_per_measurement_set(monkeypatch, enable_fpc, adjoints):
    """Aᴴy is built once for y and, when calibrating, once for the reconstruction set."""
    phantom, op, y = _problem(seed=19)
    weights = init_weights(UNetArch(widths=(4, 8), bottleneck=8, emb_steps=8), seed=7)
    cfg = ReconConfig(**FAST, enable_fpc=enable_fpc, enable_rpa=True)
    calls = []
    real_apply_adjoint = pipeline.apply_adjoint

    def counting_apply_adjoint(k, op_):
        calls.append(k.shape)
        return real_apply_adjoint(k, op_)

    monkeypatch.setattr(pipeline, "apply_adjoint", counting_apply_adjoint)
    reconstruct(y, op, UNetScorePrior(weights), cfg)
    assert calls == [y.shape] * adjoints


def test_early_stop_keeps_full_record_count():
    phantom, op, y = _problem(seed=16)
    cfg = ReconConfig(steps=30, cg=CGConfig(max_iters=10, tol=1e-8),
                      enable_fpc=False, enable_rpa=True, window=3)
    _, report = reconstruct(y, op, white_prior(32, 32), cfg)
    assert len(report.records) == cfg.steps  # stop freezes gamma, never truncates


def test_metrics_attached_when_reference_given():
    phantom, op, y = _problem(seed=10)
    cfg = ReconConfig(**FAST, enable_fpc=False, enable_rpa=False)
    _, report = reconstruct(y, op, white_prior(32, 32), cfg, reference=phantom)
    assert report.psnr is not None and report.ssim is not None


@pytest.mark.parametrize("damage, error", [
    (lambda ref: ref[:16, :16], InvalidArgumentError),
    (lambda ref: np.where(np.arange(32) == 3, np.nan, ref), NumericError),
    (np.zeros_like, InvalidArgumentError),
], ids=["shape", "nan", "zero peak"])
def test_bad_reference_rejected_before_the_loop(damage, error):
    """A reference that psnr would reject fails before the prior is evaluated once."""
    phantom, op, y = _problem(seed=10)
    prior = _DeltaLog()
    cfg = ReconConfig(**FAST, enable_fpc=False, enable_rpa=False)
    with pytest.raises(error):
        reconstruct(y, op, prior, cfg, reference=damage(phantom))
    assert prior.seen == []


# ---------------------------------------------------------------------------
# ablation harness
# ---------------------------------------------------------------------------


def _tiny_cases(n_cases=2):
    cases = []
    for i in range(n_cases):
        phantom, op, y = _problem(seed=20 + i)
        cases.append({"y": y, "op": op, "reference": phantom})
    return cases


def test_ablation_rows_and_determinism():
    arch = UNetArch(widths=(4, 8), bottleneck=8, emb_steps=6)
    prior = UNetScorePrior(init_weights(arch, seed=3))
    cfg = ReconConfig(steps=4, cg=CGConfig(max_iters=8, tol=1e-6))
    cases = _tiny_cases()
    t1 = run_ablation(cases, prior, cfg)
    t2 = run_ablation(cases, prior, cfg)
    assert [row["label"] for row in t1] == ["Baseline", "w/o RPA", "w/o FPC", "Ours"]
    assert t1 == t2
    for row in t1:
        assert len(row["psnr_cases"]) == len(cases)
        assert row["psnr_mean"] == pytest.approx(np.mean(row["psnr_cases"]))
    text = format_ablation_table(t1)
    lines = text.splitlines()[1:]
    assert [line.split()[0] for line in lines] == ["Baseline", "w/o", "w/o", "Ours"]
    for row, line in zip(t1[:-1], lines):
        gain, wins = paired_gain(t1[-1], row)
        assert line.split()[-2:] == [f"{gain:+.3f}", f"{wins}/{len(cases)}"]
    assert len(lines[-1].split()) == 3  # Ours has no gain over itself


# ---------------------------------------------------------------------------
# report output
# ---------------------------------------------------------------------------


def test_trace_columns_shape():
    phantom, op, y = _problem(seed=12)
    cfg = ReconConfig(**FAST, enable_fpc=False, enable_rpa=False)
    _, report = reconstruct(y, op, _DeltaLog(), cfg)
    text = trace_columns(report.records)
    header, *lines = text.strip().splitlines()
    names = [f.name for f in dataclasses.fields(StepRecord) if f.name != "delta"]
    assert header.split() == ["#", *names, "delta_0", "delta_1", "delta_2", "delta_3"]
    assert len(lines) == cfg.steps
    assert all(len(line.split()) == len(names) + 4 for line in lines)


def test_emit_images_outputs(tmp_path):
    phantom, op, y = _problem(seed=13)
    cfg = ReconConfig(**FAST, enable_fpc=False, enable_rpa=False)
    image, _ = reconstruct(y, op, white_prior(32, 32), cfg, reference=phantom)
    emit_images(image, phantom, tmp_path)
    for name in ("recon.pgm", "reference.pgm", "error.pgm"):
        assert (tmp_path / name).exists()
    header = (tmp_path / "recon.pgm").read_bytes().split(b"\n", 3)
    assert header[0] == b"P5"
    assert header[1] == b"32 32"


def test_error_map_zero_for_perfect_reconstruction(tmp_path):
    phantom = make_phantom(PhantomSpec(size=32, seed=14))
    emit_images(phantom.copy(), phantom, tmp_path)
    blob = (tmp_path / "error.pgm").read_bytes()
    payload = blob.split(b"\n", 3)[3]
    assert set(payload) == {0}


def test_shifted_cases_match_inline_construction():
    """The criterion-8 seeds rebuild, byte for byte, the cases that test once built inline."""
    spec = PhantomSpec(size=64, seed=500, contrast_exponent=1.5, bias_amplitude=0.3)
    cases = shifted_cases(2, spec, coils=2, accel=4, noise_std=0.01,
                          seed_mask=600, seed_coils=700, seed_noise=800)
    assert len(cases) == 2
    for i, case in enumerate(cases):
        phantom = make_phantom(
            PhantomSpec(size=64, seed=500 + i, contrast_exponent=1.5, bias_amplitude=0.3)
        )
        mask = generate_mask("Gaussian1D", 64, 64, 4, 0.08, seed=600 + i)
        sens = synth_coil_maps(2, 64, 64, seed=700 + i)
        y = add_noise(apply_forward(phantom, ForwardOperator(mask, sens)), mask, 0.01, seed=800 + i)
        assert case["reference"].tobytes() == phantom.tobytes()
        assert case["op"].mask.bits.tobytes() == mask.bits.tobytes()
        assert case["op"].sens.tobytes() == sens.tobytes()
        assert case["y"].tobytes() == y.tobytes()
