import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mricalib import (
    CGConfig,
    DeltaOptState,
    ForwardOperator,
    ReconConfig,
    apply_adjoint,
    apply_forward,
    delta_penalty,
    generate_mask,
    partition_mask,
    reconstruct,
    solve_p3,
    ssl_loss,
    synth_coil_maps,
    tweedie_denoise,
    update_delta,
    white_prior,
)
from mricalib import pipeline
from mricalib.errors import InvalidArgumentError, NumericError
from mricalib.phantom import PhantomSpec, make_phantom
from mricalib.unet import UNetArch, UNetScorePrior, init_weights


# ---------------------------------------------------------------------------
# mask partition
# ---------------------------------------------------------------------------


def test_partition_complementary_and_disjoint():
    mask = generate_mask("Gaussian1D", 64, 64, 4, 0.08, seed=0)
    part = partition_mask(mask, 0.2, seed=1)
    lam, gam = part.lambda_bits, part.gamma_bits
    assert np.array_equal(lam + gam, mask.bits)
    assert np.all(lam * gam == 0)
    assert lam.sum() > 0 and gam.sum() > 0


def test_partition_expected_holdout_count():
    # 80-line mask: held-out share should land near 0.2 of the sampled entries
    mask = generate_mask("Gaussian1D", 320, 320, 4, 0.08, seed=2)
    rows = mask.bits.shape[0]
    assert mask.bits[0].sum() == 80
    part = partition_mask(mask, 0.2, seed=3)
    gamma_lines_equivalent = part.gamma_bits.sum() / rows
    assert 8 <= gamma_lines_equivalent <= 24  # binomial bound around 16


def test_partition_determinism():
    mask = generate_mask("Uniform1D", 48, 48, 4, 0.1, seed=4)
    a = partition_mask(mask, 0.3, seed=5)
    b = partition_mask(mask, 0.3, seed=5)
    assert np.array_equal(a.gamma_bits, b.gamma_bits)


def test_partition_bad_fraction_rejected():
    mask = generate_mask("Uniform1D", 32, 32, 4, 0.1, seed=0)
    for frac in (0.0, 1.0, -0.2):
        with pytest.raises(InvalidArgumentError):
            partition_mask(mask, frac)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31),
       frac=st.floats(min_value=0.05, max_value=0.6))
def test_partition_invariants_property(seed, frac):
    mask = generate_mask("Gaussian1D", 32, 32, 4, 0.1, seed=seed % 100)
    part = partition_mask(mask, frac, seed=seed)
    total = part.lambda_bits + part.gamma_bits
    assert np.array_equal(total, mask.bits)
    assert np.all(part.lambda_bits * part.gamma_bits == 0)


# ---------------------------------------------------------------------------
# self-supervised loss
# ---------------------------------------------------------------------------


def _ssl_setup(n=32, coils=2, seed=0):
    phantom = make_phantom(PhantomSpec(size=n, seed=seed))
    mask = generate_mask("Gaussian1D", n, n, 4, 0.1, seed=seed)
    sens = synth_coil_maps(coils, n, n, seed=seed + 1)
    op = ForwardOperator(mask, sens)
    y = apply_forward(phantom, op)
    part = partition_mask(mask, 0.25, seed=seed + 2)
    op_l = op.with_mask(part.lambda_bits)
    op_g = op.with_mask(part.gamma_bits)
    x_adj_l = apply_adjoint(y, op_l)
    y_g = y * part.gamma_bits[None]
    return phantom, op_l, op_g, x_adj_l, y_g


def _one_step(x, sigma, prior, delta, x_adj, op, gamma):
    """The calibration probe's one-step reconstruction, composed as reconstruct does."""
    return solve_p3(tweedie_denoise(x, sigma, prior, delta), x_adj, op, gamma, CGConfig()).x


def test_ssl_loss_zero_when_heldout_matches():
    phantom, op_l, op_g, x_adj_l, y_g = _ssl_setup()
    prior = white_prior(32, 32)
    # evaluate the one-step map, then hand it measurements that match exactly
    x_hat = _one_step(phantom, 0.05, prior, None, x_adj_l, op_l, 2.0)
    y_match = apply_forward(x_hat, op_g)
    assert ssl_loss(x_hat, y_match, op_g)[0] <= 1e-18


def test_ssl_loss_relative_to_heldout_energy():
    phantom, op_l, op_g, x_adj_l, y_g = _ssl_setup(seed=3)
    prior = white_prior(32, 32)
    x_hat = _one_step(phantom, 0.1, prior, None, x_adj_l, op_l, 1.0)
    resid = y_g - apply_forward(x_hat, op_g)
    loss, _ = ssl_loss(x_hat, y_g, op_g)
    expected = np.vdot(resid, resid).real / np.vdot(y_g, y_g).real
    assert abs(loss - expected) <= 1e-12 * expected


def test_ssl_loss_gradient_matches_finite_differences():
    """The returned gradient g satisfies d loss = Re<g, d x_hat> along random directions."""
    rng = np.random.default_rng(5)
    phantom, op_l, op_g, x_adj_l, y_g = _ssl_setup(seed=5)
    x_hat = _one_step(phantom, 0.1, white_prior(32, 32), None, x_adj_l, op_l, 1.0)
    _, grad = ssl_loss(x_hat, y_g, op_g)
    h = 1e-6
    for _ in range(3):
        direction = rng.standard_normal(x_hat.shape) + 1j * rng.standard_normal(x_hat.shape)
        fd = (ssl_loss(x_hat + h * direction, y_g, op_g)[0]
              - ssl_loss(x_hat - h * direction, y_g, op_g)[0]) / (2 * h)
        assert abs(fd - np.real(np.vdot(grad, direction))) <= 1e-6 * abs(fd)


def test_ssl_loss_rejects_heldout_without_energy():
    phantom, op_l, op_g, x_adj_l, y_g = _ssl_setup(seed=4)
    prior = white_prior(32, 32)
    x_hat = _one_step(phantom, 0.1, prior, None, x_adj_l, op_l, 1.0)
    with pytest.raises(NumericError):
        ssl_loss(x_hat, np.zeros_like(y_g), op_g)


def test_ssl_loss_identity_delta_matches_uncalibrated_network():
    n = 32
    phantom, op_l, op_g, x_adj_l, y_g = _ssl_setup(n=n, seed=2)
    arch = UNetArch(widths=(4, 8), bottleneck=12, emb_steps=6)
    weights = init_weights(arch, seed=3)
    calibrated = UNetScorePrior(weights, calibratable=True)
    uncalibrated = UNetScorePrior(weights, calibratable=False)
    sigma = 0.3
    l_cal, _ = ssl_loss(_one_step(phantom, sigma, calibrated, np.ones(4), x_adj_l, op_l, 1.5),
                        y_g, op_g)
    l_raw, _ = ssl_loss(_one_step(phantom, sigma, uncalibrated, None, x_adj_l, op_l, 1.5),
                        y_g, op_g)
    assert abs(l_cal - l_raw) <= 1e-9 * max(l_raw, 1.0)


# ---------------------------------------------------------------------------
# anchor penalty
# ---------------------------------------------------------------------------


def test_penalty_zero_at_identity():
    assert delta_penalty(np.ones(8)) == 0.0


def test_penalty_hand_value():
    assert delta_penalty(np.array([2.0, 0.0])) == 1.0


def test_penalty_permutation_invariant():
    rng = np.random.default_rng(0)
    d = rng.uniform(0, 2, size=6)
    shuffled = d[rng.permutation(6)]
    assert abs(delta_penalty(d) - delta_penalty(shuffled)) <= 1e-15


def test_penalty_gradient_matches_analytic():
    rng = np.random.default_rng(1)
    d = rng.uniform(0.2, 1.8, size=6)
    h = 1e-6
    for j in range(6):
        dp, dm = d.copy(), d.copy()
        dp[j] += h
        dm[j] -= h
        fd = (delta_penalty(dp) - delta_penalty(dm)) / (2 * h)
        assert abs(fd - (d[j] - 1.0)) <= 1e-6


# ---------------------------------------------------------------------------
# calibration step
# ---------------------------------------------------------------------------


def _penalty_objective(d):
    return delta_penalty(d), d - 1.0


def test_stationary_point_is_fixed():
    state = DeltaOptState(delta=np.ones(4))
    state = update_delta(state, *_penalty_objective(state.delta), step_size=0.05)
    assert np.array_equal(state.delta, np.ones(4))


def test_clamp_invariant_after_updates():
    rng = np.random.default_rng(2)
    state = DeltaOptState(delta=rng.uniform(0, 2, size=6))
    for _ in range(20):  # push upward
        state = update_delta(state, -np.sum(state.delta), -np.ones_like(state.delta),
                             step_size=0.8)
        assert np.all(state.delta >= 0) and np.all(state.delta <= 2)
    assert np.allclose(state.delta, 2.0)


def test_monotone_descent_after_warmup():
    state = DeltaOptState(delta=np.full(4, 0.2))
    objective = lambda d: (float(np.sum((d - 1.8) ** 2)), 2.0 * (d - 1.8))
    values = []
    for _ in range(50):
        state = update_delta(state, *objective(state.delta), step_size=0.01)
        values.append(objective(state.delta)[0])
    diffs = np.diff(values[5:])
    assert np.all(diffs <= 1e-12)


def test_penalty_pulls_delta_to_identity():
    rng = np.random.default_rng(3)
    state = DeltaOptState(delta=rng.uniform(0, 2, size=6))
    frozen_ssl = 3.7  # constant, as with a calibration-blind prior
    objective = lambda d: (frozen_ssl + delta_penalty(d), d - 1.0)
    for _ in range(100):
        state = update_delta(state, *objective(state.delta), step_size=0.05)
    assert np.linalg.norm(state.delta - 1.0) <= 0.05


def test_step_records_the_objective_at_the_incoming_vector(monkeypatch):
    """Each record's loss_ssl is the value the step's calibration update took, at the vector
    the step came in with: all ones first, then the vector the previous record holds."""
    state = DeltaOptState(delta=np.array([0.5, 1.5]))
    update_delta(state, *_penalty_objective(state.delta), step_size=0.05)
    assert np.allclose(state.delta, [0.55, 1.45])  # the first step has size step_size

    phantom = make_phantom(PhantomSpec(size=32, seed=4))
    mask = generate_mask("Gaussian1D", 32, 32, 4, 0.1, seed=5)
    op = ForwardOperator(mask, synth_coil_maps(2, 32, 32, seed=6))
    prior = UNetScorePrior(init_weights(UNetArch(widths=(4, 8), bottleneck=8, emb_steps=8), 7))
    cfg = ReconConfig(steps=4, cg=CGConfig(max_iters=12, tol=1e-8), enable_rpa=False)
    stepped = []
    real_update_delta = pipeline.update_delta

    def spy(state, value, grad, step_size):
        stepped.append((state.delta.copy(), value))
        return real_update_delta(state, value, grad, step_size)

    monkeypatch.setattr(pipeline, "update_delta", spy)
    _, report = reconstruct(apply_forward(phantom, op), op, prior, cfg)
    assert [value for _, value in stepped] == [rec.loss_ssl for rec in report.records]
    incoming = [np.ones(4)] + [rec.delta for rec in report.records[:-1]]
    for (delta_in, _), want in zip(stepped, incoming, strict=True):
        assert np.array_equal(delta_in, want)


def test_nonfinite_objective_rejected():
    state = DeltaOptState(delta=np.ones(2))
    with pytest.raises(NumericError):
        update_delta(state, float("nan"), np.zeros(2), step_size=0.05)
