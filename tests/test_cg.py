import numpy as np
import pytest

from mricalib import (
    CGConfig,
    ForwardOperator,
    apply_adjoint,
    apply_forward,
    cg_solve,
    generate_mask,
    ifft2c,
    solve_p3,
    synth_coil_maps,
)
from mricalib.errors import InvalidArgumentError, NumericError


def test_identity_operator_one_iteration():
    rng = np.random.default_rng(0)
    rhs = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    res = cg_solve(lambda v: v, rhs, np.zeros_like(rhs), CGConfig())
    assert res.iters == 1
    assert np.allclose(res.x, rhs, atol=1e-14)


def test_two_by_two_hand_solution():
    A = np.array([[2.0, 1.0], [1.0, 2.0]])
    rhs = np.array([1.0, 1.0])
    res = cg_solve(lambda v: A @ v, rhs, np.zeros(2), CGConfig(max_iters=10, tol=1e-12))
    assert np.allclose(res.x, [1.0 / 3.0, 1.0 / 3.0], atol=1e-12)


def test_random_hpd_system_matches_dense_solve():
    rng = np.random.default_rng(1)
    B = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
    A = B.conj().T @ B + 64 * np.eye(64)
    rhs = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    res = cg_solve(lambda v: A @ v, rhs, np.zeros(64, complex), CGConfig(max_iters=200, tol=1e-12))
    direct = np.linalg.solve(A, rhs)
    assert np.linalg.norm(res.x - direct) <= 1e-8 * np.linalg.norm(direct)


def test_breakdown_on_non_hpd():
    A = np.diag([1.0, -1.0])
    with pytest.raises(NumericError):
        cg_solve(lambda v: A @ v, np.array([0.0, 1.0]), np.zeros(2), CGConfig(max_iters=5, tol=1e-12))


def test_nan_operator_rejected():
    with pytest.raises(NumericError):
        cg_solve(lambda v: v * np.nan, np.ones(4, complex), np.zeros(4, complex), CGConfig())


def test_operator_turning_infinite_rejected():
    applications = []

    def operator(v):
        applications.append(1)
        return v if len(applications) == 1 else np.full_like(v, np.inf)

    rhs = np.arange(1.0, 5.0) + 0j
    with pytest.raises(NumericError):
        cg_solve(operator, rhs, np.zeros(4, complex), CGConfig())
    assert len(applications) == 2


def test_residual_overflow_after_an_iteration_rejected():
    """One step on a condition-1e10 system grows the residual ~5e4-fold, past float range."""
    scale = np.array([1.0, 1e10])
    rhs = 1e150 * np.array([1.0, 1e-5])
    with pytest.raises(NumericError, match="after 1 iterations"):
        cg_solve(lambda v: scale * v, rhs, np.zeros(2), CGConfig())


def test_residual_monotone_for_hpd():
    rng = np.random.default_rng(2)
    B = rng.standard_normal((32, 32))
    A = B.T @ B + 32 * np.eye(32)
    rhs = rng.standard_normal(32)
    # CG is deterministic, so the solve capped at k iterations ends on the k-th iterate
    hist = [cg_solve(lambda v: A @ v, rhs, np.zeros(32), CGConfig(max_iters=k, tol=1e-14)).residual
            for k in range(1, 61)]
    assert np.all(np.diff(hist) <= 1e-12)


def test_config_validation():
    with pytest.raises(InvalidArgumentError):
        CGConfig(max_iters=0)
    with pytest.raises(InvalidArgumentError):
        CGConfig(tol=0.0)


@pytest.mark.parametrize("max_iters", [2.5, True, np.float64(3.0)])
def test_iteration_cap_must_be_an_integer(max_iters):
    assert CGConfig(max_iters=np.int32(3)).max_iters == 3  # NumPy integers stay legal
    with pytest.raises(InvalidArgumentError, match="max_iters"):
        CGConfig(max_iters=max_iters)


# ---------------------------------------------------------------------------
# proximal data-fidelity solve
# ---------------------------------------------------------------------------


def _setup(n=32, coils=4, accel=4, seed=0):
    mask = generate_mask("Gaussian1D", n, n, accel, 0.1, seed=seed)
    sens = synth_coil_maps(coils, n, n, seed=seed + 1)
    op = ForwardOperator(mask, sens)
    rng = np.random.default_rng(seed + 2)
    x_dot = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    y = rng.standard_normal((coils, n, n)) + 1j * rng.standard_normal((coils, n, n))
    y *= mask.bits[None]
    return op, x_dot, y


def test_gamma_zero_returns_proximity_point():
    op, x_dot, y = _setup()
    res = solve_p3(x_dot, apply_adjoint(y, op), op, 0.0, CGConfig())
    assert np.array_equal(res.x, x_dot)
    assert res.iters == 0


def test_full_mask_single_coil_closed_form():
    n = 32
    mask = generate_mask("Uniform1D", n, n, 1, 0.1, seed=0)
    sens = synth_coil_maps(1, n, n, seed=0)
    op = ForwardOperator(mask, sens)
    rng = np.random.default_rng(3)
    x_dot = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    y = rng.standard_normal((1, n, n)) + 1j * rng.standard_normal((1, n, n))
    gamma = 2.5
    res = solve_p3(x_dot, apply_adjoint(y, op), op, gamma, CGConfig(max_iters=50, tol=1e-13))
    expected = (gamma * ifft2c(y[0]) + x_dot) / (1 + gamma)
    assert np.max(np.abs(res.x - expected)) <= 1e-10


def test_normal_equation_residual():
    op, x_dot, y = _setup()
    gamma = 3.0
    cfg = CGConfig(max_iters=200, tol=1e-10)
    res = solve_p3(x_dot, apply_adjoint(y, op), op, gamma, cfg)
    lhs = gamma * apply_adjoint(apply_forward(res.x, op), op) + res.x
    rhs = gamma * apply_adjoint(y, op) + x_dot
    assert np.linalg.norm(lhs - rhs) <= 1e-8 * np.linalg.norm(rhs)


def test_large_gamma_limit_full_sampling():
    """As gamma grows with full sampling, the solve approaches Aᴴy."""
    n = 32
    mask = generate_mask("Uniform1D", n, n, 1, 0.1, seed=0)
    sens = synth_coil_maps(4, n, n, seed=1)
    op = ForwardOperator(mask, sens)
    rng = np.random.default_rng(4)
    x_true = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    y = apply_forward(x_true, op)
    x_dot = np.zeros_like(x_true)
    target = apply_adjoint(y, op)
    res = solve_p3(x_dot, target, op, 1e6, CGConfig(max_iters=300, tol=1e-12))
    assert np.linalg.norm(res.x - target) <= 1e-3 * np.linalg.norm(target)


def test_first_order_optimality():
    """Random perturbations never decrease the proximal objective."""
    op, x_dot, y = _setup(seed=9)
    gamma = 2.0
    res = solve_p3(x_dot, apply_adjoint(y, op), op, gamma, CGConfig(max_iters=300, tol=1e-12))

    def objective(x):
        r = y - apply_forward(x, op)
        return 0.5 * gamma * np.real(np.vdot(r, r)) + 0.5 * np.real(np.vdot(x - x_dot, x - x_dot))

    base = objective(res.x)
    rng = np.random.default_rng(10)
    for _ in range(5):
        step = rng.standard_normal(res.x.shape) + 1j * rng.standard_normal(res.x.shape)
        step *= 1e-4 / np.linalg.norm(step)
        assert objective(res.x + step) >= base - 1e-12 * abs(base)


def test_negative_gamma_rejected():
    op, x_dot, y = _setup()
    with pytest.raises(InvalidArgumentError):
        solve_p3(x_dot, apply_adjoint(y, op), op, -1.0, CGConfig())


def test_nan_gamma_rejected():
    op, x_dot, y = _setup()
    with pytest.raises(InvalidArgumentError):
        solve_p3(x_dot, apply_adjoint(y, op), op, np.nan, CGConfig())


@pytest.mark.parametrize("coils", [1, 4])
@pytest.mark.parametrize("gamma", [0.0, 2.0])
def test_kspace_instead_of_adjoint_image_rejected(coils, gamma):
    """Single-coil k-space would broadcast against the image; every coil count is rejected."""
    op, x_dot, y = _setup(coils=coils)
    with pytest.raises(InvalidArgumentError, match="adjoint image shape"):
        solve_p3(x_dot, y, op, gamma, CGConfig())


@pytest.mark.parametrize("shape", [(16,), (1, 16, 16)])
@pytest.mark.parametrize("gamma", [0.0, 1.0])
def test_misshapen_denoised_image_rejected(shape, gamma):
    """An x_dot that would broadcast against the 16 x 16 image is rejected, gamma = 0 included."""
    op, _, y = _setup(n=16, coils=1)
    with pytest.raises(InvalidArgumentError, match="denoised image shape"):
        solve_p3(np.ones(shape, dtype=complex), apply_adjoint(y, op), op, gamma, CGConfig())
