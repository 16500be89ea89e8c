import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mricalib import (
    CGConfig,
    ForwardOperator,
    SamplingMask,
    add_noise,
    apply_adjoint,
    apply_forward,
    fft2c,
    generate_mask,
    ifft2c,
    load_mask,
    partition_mask,
    psnr,
    save_mask,
    solve_p3,
    synth_coil_maps,
)
from mricalib.errors import InvalidArgumentError
from mricalib.forward import normal_operator
from mricalib.phantom import PhantomSpec, make_phantom


def _rand_image(rng, h, w):
    return rng.standard_normal((h, w)) + 1j * rng.standard_normal((h, w))


def _rand_kspace(rng, c, h, w):
    return rng.standard_normal((c, h, w)) + 1j * rng.standard_normal((c, h, w))


# ---------------------------------------------------------------------------
# masks
# ---------------------------------------------------------------------------


def test_uniform1d_budget_and_acs_band():
    mask = generate_mask("Uniform1D", 320, 320, 4, 0.08, seed=7)
    line = mask.bits[0]
    assert np.all(mask.bits == line[None, :])  # columns constant
    assert line.sum() == 80  # round(320 / 4)
    start = (320 - 26) // 2
    assert np.all(line[start : start + 26] == 1)  # contiguous 26-column center band


@pytest.mark.parametrize("accel", [2, 3, 4, 8])
def test_uniform1d_budget_over_widths(accel):
    for width in range(8, 129):
        bits = generate_mask("Uniform1D", 3, width, accel, 0.08).bits
        assert np.all(bits == bits[0][None, :])  # columns constant
        assert bits[0].sum() == round(width / accel), width


def test_gaussian1d_budget_and_determinism():
    m1 = generate_mask("Gaussian1D", 64, 64, 8, 0.08, seed=5)
    m2 = generate_mask("Gaussian1D", 64, 64, 8, 0.08, seed=5)
    assert np.array_equal(m1.bits, m2.bits)
    assert m1.bits[0].sum() == round(64 / 8)
    assert np.all(m1.bits == m1.bits[0][None, :])


def test_gaussian1d_seed_changes_pattern():
    m1 = generate_mask("Gaussian1D", 64, 64, 4, 0.08, seed=1)
    m2 = generate_mask("Gaussian1D", 64, 64, 4, 0.08, seed=2)
    assert not np.array_equal(m1.bits, m2.bits)


def test_r1_gives_full_mask():
    mask = generate_mask("Uniform1D", 32, 32, 1, 0.1, seed=0)
    assert np.all(mask.bits == 1)


def test_gaussian2d_budget():
    mask = generate_mask("Gaussian2D", 64, 64, 4, 0.08, seed=3)
    assert mask.bits.sum() == round(64 * 64 / 4)


def test_accel_above_width_rejected():
    with pytest.raises(InvalidArgumentError):
        generate_mask("Uniform1D", 32, 32, 64, 0.1, seed=0)


def test_mask_sidecar_roundtrip(tmp_path):
    """The tensor alone round-trips the mask; save_mask writes no sidecar."""
    mask = generate_mask("Gaussian1D", 48, 48, 4, 0.1, seed=9)
    path = tmp_path / "mask.bt"
    save_mask(path, mask)
    back = load_mask(path)
    assert back.bits.dtype == np.uint8
    assert np.array_equal(back.bits, mask.bits)
    assert not (tmp_path / "mask.bt.meta").exists()


@settings(max_examples=20, deadline=None)
@given(
    kind=st.sampled_from(["Gaussian1D", "Uniform1D", "Gaussian2D"]),
    accel=st.sampled_from([2, 4, 8]),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_mask_determinism_property(kind, accel, seed):
    a = generate_mask(kind, 32, 32, accel, 0.1, seed=seed)
    b = generate_mask(kind, 32, 32, accel, 0.1, seed=seed)
    assert np.array_equal(a.bits, b.bits)


# ---------------------------------------------------------------------------
# coil maps
# ---------------------------------------------------------------------------


def test_single_coil_map_is_identity():
    maps = synth_coil_maps(1, 24, 24, seed=0)
    assert np.all(maps == 1.0)


def test_multi_coil_sum_of_squares_one():
    maps = synth_coil_maps(4, 32, 32, seed=1)
    sos = np.sum(np.abs(maps) ** 2, axis=0)
    assert np.max(np.abs(sos - 1.0)) <= 1e-9


def test_coil_maps_smooth():
    maps = synth_coil_maps(4, 64, 64, seed=2)
    mag = np.abs(maps)
    grad = np.maximum(np.abs(np.diff(mag, axis=1)).max(), np.abs(np.diff(mag, axis=2)).max())
    assert grad < 0.05  # per-pixel magnitude change stays gentle


# ---------------------------------------------------------------------------
# forward / adjoint
# ---------------------------------------------------------------------------


def _operator(kind="Gaussian1D", accel=4, coils=4, n=32, seed=0):
    mask = generate_mask(kind, n, n, accel, 0.1, seed=seed)
    sens = synth_coil_maps(coils, n, n, seed=seed + 1)
    return ForwardOperator(mask, sens)


def test_forward_zero_image():
    op = _operator()
    assert np.all(apply_forward(np.zeros((32, 32)), op) == 0)


def test_forward_reduces_to_fft_single_coil_full_mask():
    op = _operator(accel=1, coils=1)
    rng = np.random.default_rng(0)
    x = _rand_image(rng, 32, 32)
    assert np.allclose(apply_forward(x, op)[0], fft2c(x), atol=1e-13)


def test_adjoint_identity_over_grid():
    rng = np.random.default_rng(1)
    for kind in ("Gaussian1D", "Uniform1D"):
        for accel in (4, 8):
            for coils in (1, 4):
                op = _operator(kind, accel, coils, 32, seed=accel + coils)
                x = _rand_image(rng, 32, 32)
                y = _rand_kspace(rng, coils, 32, 32)
                lhs = np.vdot(y, apply_forward(x, op))
                rhs = np.vdot(apply_adjoint(y, op), x)
                assert abs(lhs - rhs) <= 1e-10 * abs(lhs)


def test_adjoint_zero():
    op = _operator()
    assert np.all(apply_adjoint(np.zeros((4, 32, 32)), op) == 0)


def test_adjoint_reduces_to_ifft():
    op = _operator(accel=1, coils=1)
    rng = np.random.default_rng(2)
    y = _rand_kspace(rng, 1, 32, 32)
    assert np.allclose(apply_adjoint(y, op), ifft2c(y[0]), atol=1e-13)


def test_normal_operator_is_identity_under_full_sampling():
    op = _operator(accel=1, coils=4)
    rng = np.random.default_rng(3)
    x = _rand_image(rng, 32, 32)
    back = apply_adjoint(apply_forward(x, op), op)
    assert np.max(np.abs(back - x)) <= 1e-10 * np.max(np.abs(x))


def test_forward_offmask_exactly_zero():
    op = _operator(accel=4, coils=2)
    rng = np.random.default_rng(4)
    y = apply_forward(_rand_image(rng, 32, 32), op)
    off = op.mask.bits == 0
    assert np.all(y[:, off] == 0)


def test_shape_mismatch_rejected():
    op = _operator()
    with pytest.raises(InvalidArgumentError):
        apply_forward(np.zeros((16, 16)), op)
    with pytest.raises(InvalidArgumentError):
        apply_adjoint(np.zeros((2, 32, 32)), op)


def test_projection_property_where_it_holds():
    """A Aᴴ is idempotent for a single coil (any mask) and under full sampling.

    With several coils and undersampling the normal operator mixes coils
    through the mask gaps, so the composition is not a projection there.
    """
    rng = np.random.default_rng(5)
    for kind, accel, coils in [("Gaussian1D", 4, 1), ("Uniform1D", 8, 1), ("Gaussian1D", 1, 4)]:
        op = _operator(kind, accel, coils, 32, seed=10 + coils)
        y = _rand_kspace(rng, coils, 32, 32)
        once = apply_forward(apply_adjoint(y, op), op)
        twice = apply_forward(apply_adjoint(once, op), op)
        assert np.max(np.abs(twice - once)) <= 1e-10 * np.max(np.abs(once))


# ---------------------------------------------------------------------------
# normal operator AᴴA
# ---------------------------------------------------------------------------


def _reference_normal(v, op):
    return apply_adjoint(apply_forward(v, op), op)


def _with_bits(bits, coils, seed=0):
    """Operator on an arbitrary bit pattern."""
    h, w = bits.shape
    mask = SamplingMask(bits.astype(np.uint8))
    return ForwardOperator(mask, synth_coil_maps(coils, h, w, seed=seed))


def _normal_test_operators():
    """Column, holdout-child, Gaussian2D and flipped-bit masks on even, odd and non-square grids."""
    ops = []
    for h, w, coils in [(32, 32, 4), (33, 47, 3), (20, 17, 1)]:
        sens = synth_coil_maps(coils, h, w, seed=h)
        for kind in ("Gaussian1D", "Uniform1D"):
            ops.append(ForwardOperator(generate_mask(kind, h, w, 3, 0.1, seed=w), sens))
        ops.append(ForwardOperator(generate_mask("Uniform1D", h, w, 1, 0.1), sens))  # full
        ops.append(ForwardOperator(generate_mask("Gaussian1D", h, w, 3, 0.1, seed=h), np.abs(sens)))
        ops.append(ForwardOperator(generate_mask("Gaussian2D", h, w, 3, 0.1, seed=w), sens))
        column = generate_mask("Gaussian1D", h, w, 3, 0.1, seed=w)
        for seed in (h, h + 1, h + 2):
            for fraction in (0.2, 0.4):
                part = partition_mask(column, fraction, seed=seed)
                ops += [ForwardOperator(column, sens).with_mask(part.lambda_bits),
                        ForwardOperator(column, sens).with_mask(part.gamma_bits)]
        flipped = column.bits.copy()
        flipped[h // 3, 0] ^= 1
        ops.append(_with_bits(flipped, coils, seed=h))
        ops.append(ForwardOperator(column, np.abs(sens)).with_mask(part.gamma_bits))  # real64, as read from file
    return ops


def test_normal_operator_matches_reference_within_tolerance():
    rng = np.random.default_rng(7)
    for op in _normal_test_operators():
        apply = normal_operator(op)
        for _ in range(2):  # the closure's buffers must not leak between calls
            v = _rand_image(rng, *op.shape)
            ref = _reference_normal(v, op)
            assert np.max(np.abs(apply(v) - ref)) <= 1e-13 * np.max(np.abs(ref))


def _column_arithmetic(v, op):
    """AᴴA v by readout decoupling alone, in the closure's operand order."""
    sens = np.asarray(op.sens, dtype=np.complex128)
    eye = np.eye(sens.shape[-1], dtype=np.complex128)
    dft = np.fft.fftshift(np.fft.fft(np.fft.ifftshift(eye, axes=0), axis=0, norm="ortho"), axes=0)
    rows = dft[np.flatnonzero(op.mask.bits[0])]
    return ((((sens * v) @ rows.T) @ np.conj(rows)) * np.conj(sens)).sum(axis=0)


def test_normal_operator_column_masks_within_tolerance():
    """Column masks skip the H-direction step: bit-identical to plain readout decoupling."""
    rng = np.random.default_rng(9)
    column_ops = [op for op in _normal_test_operators() if np.all(op.mask.bits == op.mask.bits[:1])]
    assert len(column_ops) == 12
    for op in column_ops:
        apply = normal_operator(op)
        for _ in range(2):
            v = _rand_image(rng, *op.shape)
            ref = _reference_normal(v, op)
            out = apply(v)
            assert np.array_equal(out.view(np.float64), _column_arithmetic(v, op).view(np.float64))
            assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_solve_p3_column_path_matches_dense_solve():
    """A column mask and one of its holdout children, against a dense solve."""
    rng = np.random.default_rng(8)
    column = ForwardOperator(generate_mask("Gaussian1D", 12, 15, 3, 0.1, seed=2),
                             synth_coil_maps(2, 12, 15, seed=3))
    child = column.with_mask(partition_mask(column.mask, 0.4, seed=1).gamma_bits)
    gamma = 2.5
    n = 12 * 15
    for op in (column, child):
        x_dot = _rand_image(rng, 12, 15)
        y = apply_forward(_rand_image(rng, 12, 15), op)
        dense = np.empty((n, n), dtype=np.complex128)
        for j in range(n):
            e = np.zeros(n, dtype=np.complex128)
            e[j] = 1.0
            img = e.reshape(12, 15)
            dense[:, j] = (gamma * _reference_normal(img, op) + img).ravel()
        x_adj = apply_adjoint(y, op)
        expected = np.linalg.solve(dense, (gamma * x_adj + x_dot).ravel()).reshape(12, 15)
        res = solve_p3(x_dot, x_adj, op, gamma, CGConfig(max_iters=100, tol=1e-15))
        assert np.max(np.abs(res.x - expected)) <= 1e-13 * np.max(np.abs(expected))


# ---------------------------------------------------------------------------
# noise
# ---------------------------------------------------------------------------


def test_zero_noise_is_identity():
    op = _operator()
    rng = np.random.default_rng(6)
    y = apply_forward(_rand_image(rng, 32, 32), op)
    assert np.array_equal(add_noise(y, op.mask, 0.0, seed=1), y)


def test_noise_std_and_mask_support():
    mask = generate_mask("Gaussian1D", 256, 256, 2, 0.1, seed=0)
    y = np.zeros((32, 256, 256), dtype=np.complex128)
    noisy = add_noise(y, mask, 0.05, seed=3)
    off = mask.bits == 0
    assert np.all(noisy[:, off] == 0)
    sampled = noisy[:, mask.bits == 1]
    per_component = np.concatenate([sampled.real.ravel(), sampled.imag.ravel()])
    assert per_component.size >= 10**6
    assert abs(per_component.std() - 0.05) <= 0.05 * 0.01


def test_noise_determinism():
    op = _operator()
    rng = np.random.default_rng(7)
    y = apply_forward(_rand_image(rng, 32, 32), op)
    assert np.array_equal(add_noise(y, op.mask, 0.1, seed=5), add_noise(y, op.mask, 0.1, seed=5))


# ---------------------------------------------------------------------------
# zero-filled
# ---------------------------------------------------------------------------


def test_adjoint_image_worse_than_regularized_solve():
    phantom = make_phantom(PhantomSpec(size=64, seed=4))
    mask = generate_mask("Gaussian1D", 64, 64, 4, 0.08, seed=2)
    sens = synth_coil_maps(4, 64, 64, seed=3)
    op = ForwardOperator(mask, sens)
    y = apply_forward(phantom, op)
    x_zf = apply_adjoint(y, op)
    solved = solve_p3(np.zeros_like(x_zf), x_zf, op, 100.0, CGConfig(max_iters=40, tol=1e-9)).x
    assert psnr(solved, phantom) > psnr(x_zf, phantom)
