import numpy as np
import pytest

from mricalib import (
    CGConfig,
    CGResult,
    ForwardOperator,
    apply_adjoint,
    apply_forward,
    cg_solve,
    generate_mask,
    ifft2c,
    probe_weights,
    solve_p3,
    solve_p3_family,
    synth_coil_maps,
)
from mricalib.cg import _shifted_cg
from mricalib.errors import InvalidArgumentError, NumericError
from mricalib.forward import normal_operator
from mricalib.regularization import GAMMA_BOUNDS


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
    with pytest.raises(InvalidArgumentError):
        solve_p3_family(x_dot, apply_adjoint(y, op), op, (2.0, -1.0), CGConfig())


def test_nan_gamma_rejected():
    """A non-finite weight is an argument error, raised before any arithmetic can warn, alone
    or as one member of a family."""
    op, x_dot, y = _setup()
    for gamma in (np.nan, np.inf, -np.inf):
        with pytest.raises(InvalidArgumentError, match="finite"):
            solve_p3(x_dot, apply_adjoint(y, op), op, gamma, CGConfig())
        with pytest.raises(InvalidArgumentError, match="finite"):
            solve_p3_family(x_dot, apply_adjoint(y, op), op, (1.0, gamma), CGConfig())


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


# ---------------------------------------------------------------------------
# one Krylov sequence for a family of weights
# ---------------------------------------------------------------------------


def _plain_cg(operator, rhs, x0, cfg):
    """The plain CG loop as it stood before the family solve, kept as the bitwise reference."""
    rhs = np.asarray(rhs)
    b_norm = float(np.linalg.norm(rhs))
    if not np.isfinite(b_norm):
        raise NumericError("right-hand side contains non-finite values")
    if b_norm == 0.0:
        return CGResult(np.zeros_like(rhs), 0.0, 0)
    x = np.array(x0, copy=True)
    r = rhs - operator(x)
    p = r.copy()
    rs = float(np.real(np.vdot(r, r)))
    residual = np.sqrt(rs) / b_norm
    iters = 0
    while np.isfinite(residual) and iters < cfg.max_iters and residual > cfg.tol:
        op_p = operator(p)
        p_op_p = float(np.real(np.vdot(p, op_p)))
        if not p_op_p > 0.0:
            raise NumericError(f"CG breakdown: pᴴOp(p) = {p_op_p:g}, operator not HPD")
        alpha = rs / p_op_p
        x = x + alpha * p
        r = r - alpha * op_p
        rs_new = float(np.real(np.vdot(r, r)))
        p = r + (rs_new / rs) * p
        rs = rs_new
        iters += 1
        residual = np.sqrt(rs) / b_norm
    if not np.isfinite(residual):
        raise NumericError(f"CG residual is not finite after {iters} iterations")
    return CGResult(x, residual, iters)


def _plain_p3(x_dot, x_adj, op, gamma, cfg):
    gram = normal_operator(op)
    return _plain_cg(lambda v: gamma * gram(v) + v, gamma * x_adj + x_dot, x_dot, cfg)


def _same(a, b):
    return np.array_equal(a.x, b.x) and a.residual == b.residual and a.iters == b.iters


def _family_case(kind, n=64, coils=2, seed=0):
    mask = generate_mask(kind, n, n, 4, 0.08, seed=seed)
    op = ForwardOperator(mask, synth_coil_maps(coils, n, n, seed=seed + 1))
    rng = np.random.default_rng(seed + 2)
    x_dot = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    y = rng.standard_normal((coils, n, n)) + 1j * rng.standard_normal((coils, n, n))
    return op, x_dot, apply_adjoint(y * mask.bits[None], op)


KINDS = ["Gaussian1D", "Gaussian2D"]  # column and 2-D masks
FAMILY = (1.0, float(np.exp(0.05)), float(np.exp(-0.05)), 30.0)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("tol", [1e-6, 1e-8, 1e-13])
def test_one_weight_is_the_plain_loop_bit_for_bit(kind, tol):
    op, x_dot, x_adj = _family_case(kind)
    cfg = CGConfig(max_iters=200, tol=tol)
    for gamma in FAMILY:
        ref = _plain_p3(x_dot, x_adj, op, gamma, cfg)
        assert _same(solve_p3(x_dot, x_adj, op, gamma, cfg), ref)
        (alone,) = solve_p3_family(x_dot, x_adj, op, (gamma,), cfg)
        assert _same(alone, ref)


def test_cg_solve_is_the_plain_loop_bit_for_bit():
    rng = np.random.default_rng(11)
    B = rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))
    A = B.conj().T @ B + 4 * np.eye(40)
    rhs = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    x0 = rng.standard_normal(40) + 0j
    for cfg in (CGConfig(max_iters=5, tol=1e-12), CGConfig(max_iters=300, tol=1e-10)):
        assert _same(cg_solve(lambda v: A @ v, rhs, x0, cfg), _plain_cg(lambda v: A @ v, rhs, x0, cfg))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("tol", [1e-6, 1e-8, 1e-13])
def test_family_equals_separate_solves(kind, tol):
    """Every member lands within 1e-12 relative of solve_p3 at its weight, in as many
    iterations, and the largest weight (the seed) is solve_p3's result bit for bit."""
    op, x_dot, x_adj = _family_case(kind)
    cfg = CGConfig(max_iters=200, tol=tol)
    family = solve_p3_family(x_dot, x_adj, op, FAMILY, cfg)
    for gamma, member in zip(FAMILY, family):
        alone = solve_p3(x_dot, x_adj, op, gamma, cfg)
        assert member.iters == alone.iters, gamma
        assert member.residual <= tol
        assert np.linalg.norm(member.x - alone.x) <= 1e-12 * np.linalg.norm(alone.x), gamma
    assert _same(family[FAMILY.index(max(FAMILY))], solve_p3(x_dot, x_adj, op, max(FAMILY), cfg))


@pytest.mark.parametrize("kind", KINDS)
def test_capped_members_report_the_cap(kind):
    """A member still above tol when max_iters is reached returns its iterate at the cap."""
    op, x_dot, x_adj = _family_case(kind)
    cfg = CGConfig(max_iters=4, tol=1e-13)
    for gamma, member in zip(FAMILY, solve_p3_family(x_dot, x_adj, op, FAMILY, cfg)):
        alone = solve_p3(x_dot, x_adj, op, gamma, cfg)
        assert member.iters == alone.iters == 4
        assert member.residual == pytest.approx(alone.residual, rel=1e-9)
        assert np.linalg.norm(member.x - alone.x) <= 1e-12 * np.linalg.norm(alone.x)


def test_family_edge_members():
    """Weight 0 returns x_dot, equal weights share one result, and a member whose
    right-hand side is zero returns zeros while the others still solve."""
    op, x_dot, x_adj = _family_case("Gaussian1D", n=32)
    cfg = CGConfig(max_iters=100, tol=1e-10)
    family = solve_p3_family(x_dot, x_adj, op, (0.0, 2.0, 0.5, 2.0), cfg)
    assert np.array_equal(family[0].x, x_dot) and family[0].iters == 0
    assert family[1] is family[3]
    assert _same(family[1], solve_p3(x_dot, x_adj, op, 2.0, cfg))

    zeroed = -2.0 * x_adj  # 2 x_adj + x_dot = 0: the seed's system has a zero right-hand side
    family = solve_p3_family(zeroed, x_adj, op, (2.0, 0.5), cfg)
    assert np.array_equal(family[0].x, np.zeros_like(x_adj)) and family[0].iters == 0
    alone = solve_p3(zeroed, x_adj, op, 0.5, cfg)
    assert family[1].iters == alone.iters > 0
    assert np.linalg.norm(family[1].x - alone.x) <= 1e-12 * np.linalg.norm(alone.x)

    zeroed = -0.5 * x_adj  # now a follower's right-hand side is zero
    family = solve_p3_family(zeroed, x_adj, op, (2.0, 0.5), cfg)
    assert _same(family[0], solve_p3(zeroed, x_adj, op, 2.0, cfg))
    assert np.array_equal(family[1].x, np.zeros_like(x_adj)) and family[1].iters == 0

    zero = np.zeros_like(x_adj)
    for member in solve_p3_family(zero, zero, op, (2.0, 0.5, 0.0), cfg):
        assert np.array_equal(member.x, zero) and member.iters == 0


@pytest.mark.parametrize("bound", GAMMA_BOUNDS)
def test_family_at_a_clamped_probe(bound):
    """At a bound one probe weight equals gamma; the duplicate is solved once."""
    op, x_dot, x_adj = _family_case("Gaussian2D", n=32)
    cfg = CGConfig(max_iters=100, tol=1e-8)
    gamma = float(np.exp(np.log(bound)))  # the weight walk's value once clamped at the bound
    weights = (gamma, *probe_weights(gamma))
    assert len(set(weights)) == 2
    family = solve_p3_family(x_dot, x_adj, op, weights, cfg)
    for g, member in zip(weights, family):
        alone = solve_p3(x_dot, x_adj, op, g, cfg)
        assert member.iters == alone.iters
        assert np.linalg.norm(member.x - alone.x) <= 1e-12 * np.linalg.norm(alone.x)


@pytest.mark.parametrize("kind", KINDS)
def test_family_at_weights_far_apart(kind):
    """At weights 1 and 1e-300 the follower's shift is 1e300, and the norm of its right-hand
    side would pass the float range (an overflow warning is an error here); each member is
    what solve_p3 returns at its weight alone."""
    op, x_dot, x_adj = _family_case(kind, n=16)
    cfg = CGConfig(max_iters=100, tol=1e-8)
    weights = (1.0, 1e-300)
    for gamma, member in zip(weights, solve_p3_family(x_dot, x_adj, op, weights, cfg)):
        alone = solve_p3(x_dot, x_adj, op, gamma, cfg)
        assert np.array_equal(member.x, alone.x) and member.iters == alone.iters, gamma
        assert member.residual == pytest.approx(alone.residual, rel=1e-12, abs=1e-290), gamma


def test_shifted_systems_match_dense_solves():
    """(Op + s I) x = rhs + s x0 for each shift, real arithmetic, against np.linalg.solve."""
    rng = np.random.default_rng(12)
    B = rng.standard_normal((48, 48))
    A = B.T @ B + np.eye(48)
    rhs, x0 = rng.standard_normal(48), rng.standard_normal(48)
    shifts = (0.0, 0.3, 2.0, 50.0)
    cfg = CGConfig(max_iters=500, tol=1e-12)
    seed, *followers = _shifted_cg(lambda v: A @ v, rhs, x0, cfg, shifts)
    assert _same(seed, cg_solve(lambda v: A @ v, rhs, x0, cfg))
    for s, member in zip(shifts, followers):
        direct = np.linalg.solve(A + s * np.eye(48), rhs + s * x0)
        assert member.residual <= 1e-12
        assert np.linalg.norm(member.x - direct) <= 1e-9 * np.linalg.norm(direct)
    assert [m.iters for m in followers] == sorted((m.iters for m in followers), reverse=True)


def test_shifted_breakdown_on_non_hpd():
    A = np.diag([1.0, -1.0])
    with pytest.raises(NumericError, match="breakdown"):
        _shifted_cg(lambda v: A @ v, np.array([0.0, 1.0]), np.zeros(2),
                    CGConfig(max_iters=5, tol=1e-12), shifts=(0.5,))


def test_shifted_non_finite_residual_rejected():
    scale = np.array([1.0, 1e10])
    rhs = 1e150 * np.array([1.0, 1e-5])
    with pytest.raises(NumericError, match="after 1 iterations"):
        _shifted_cg(lambda v: scale * v, rhs, np.zeros(2), CGConfig(), shifts=(1.0,))
