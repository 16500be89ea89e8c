import numpy as np
import pytest

from mricalib import (
    RegAdaptState,
    convergence_criterion,
    mc_divergence,
    probe_weights,
    sure_loss,
    update_gamma,
)
from mricalib.calibration import DeltaOptState, update_delta
from mricalib.errors import InvalidArgumentError, NumericError
from mricalib.regularization import GAMMA_BOUNDS


# ---------------------------------------------------------------------------
# Monte-Carlo divergence probe
# ---------------------------------------------------------------------------


def test_divergence_identity_map():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(16)
    eps = 1e-3
    val = mc_divergence(lambda v: v, x, eps, seed=1)
    mu = np.random.default_rng(1).standard_normal(16)
    assert abs(val - eps * mu @ mu / eps * eps) <= 1e-12 or val > 0  # positive for identity
    # exact identity: mu^T(eps mu) = eps ||mu||^2
    assert abs(val - eps * float(mu @ mu)) <= 1e-12


def test_divergence_unbiased_for_linear_map():
    rng = np.random.default_rng(2)
    H = 2.0 * np.eye(16) + 0.05 * rng.standard_normal((16, 16))
    x = rng.standard_normal(16)
    eps = 1e-3
    vals = [mc_divergence(lambda v: H @ v, x, eps, seed=s) for s in range(200)]
    assert abs(np.mean(vals) - eps * np.trace(H)) <= 0.05 * eps * abs(np.trace(H))


def test_divergence_complex_input_trace():
    rng = np.random.default_rng(3)
    # diagonal real scaling acting on complex pixels: real-representation trace = 2 sum(d)
    d = 1.0 + rng.random(8 * 8)
    x = (rng.standard_normal(64) + 1j * rng.standard_normal(64)).reshape(8, 8)
    eps = 1e-3
    vals = [
        mc_divergence(lambda v: (d.reshape(8, 8)) * v, x, eps, seed=s) for s in range(300)
    ]
    target = eps * 2.0 * d.sum()
    assert abs(np.mean(vals) - target) <= 0.05 * target


def test_divergence_bad_eps():
    with pytest.raises(InvalidArgumentError):
        mc_divergence(lambda v: v, np.zeros(4), 0.0, seed=0)


def test_divergence_nan_eps():
    with pytest.raises(InvalidArgumentError):
        mc_divergence(lambda v: v, np.zeros(4), np.nan, seed=0)


@pytest.mark.parametrize("eps", [0.0, np.nan])
def test_sure_bad_eps(eps):
    with pytest.raises(InvalidArgumentError):
        sure_loss(1.0, np.ones(4), np.zeros(4), lambda g, v: v, eps, seed=0)


# ---------------------------------------------------------------------------
# risk estimate
# ---------------------------------------------------------------------------


def test_sure_identity_map_hand_formula():
    rng = np.random.default_rng(4)
    x_t = rng.standard_normal(64)
    x_zf = rng.standard_normal(64)
    eps = 1e-2
    seed = 5
    val = sure_loss(1.0, x_t, x_zf, lambda g, v: v, eps, seed)
    mu = np.random.default_rng(seed).standard_normal(64)
    expected = float((x_zf - x_t) @ (x_zf - x_t)) * float(mu @ mu) / 64.0
    assert abs(val - expected) <= 1e-9 * abs(expected)


def test_sure_zero_residual_gives_zero():
    rng = np.random.default_rng(6)
    x_t = rng.standard_normal(32)
    val = sure_loss(1.0, x_t, x_t.copy(), lambda g, v: v, 1e-3, seed=7)
    assert val == 0.0


def test_sure_deterministic_given_seed():
    rng = np.random.default_rng(10)
    x_t = rng.standard_normal(16)
    x_zf = rng.standard_normal(16)
    h = lambda g, v: v / (1 + g)
    a = sure_loss(2.0, x_t, x_zf, h, 1e-3, seed=11)
    b = sure_loss(2.0, x_t, x_zf, h, 1e-3, seed=11)
    assert a == b


def test_sure_seed_stability():
    rng = np.random.default_rng(12)
    x_t = rng.standard_normal(256)
    x_zf = x_t + 0.1 * rng.standard_normal(256)
    h = lambda g, v: v * (g / (1 + g))
    vals = [sure_loss(1.5, x_t, x_zf, h, 1e-3, seed=s) for s in range(100)]
    mean = np.mean(vals)
    stderr = np.std(vals) / np.sqrt(len(vals))
    assert stderr <= 0.10 * abs(mean)


def test_sure_nonfinite_rejected():
    with pytest.raises(NumericError):
        sure_loss(1.0, np.zeros(4), np.zeros(4), lambda g, v: v * np.nan, 1e-3, seed=0)


# ---------------------------------------------------------------------------
# weight updates
# ---------------------------------------------------------------------------


def test_gamma_descends_log_quadratic():
    state = RegAdaptState(gamma=float(np.e))
    for _ in range(20):
        state = update_gamma(state, lambda g: np.log(g) ** 2, step_size=0.1)
    assert abs(np.log(state.gamma)) < 0.2


@pytest.mark.parametrize("gamma", [0.0, -1.0, np.nan, np.inf])
def test_bad_initial_weight_rejected(gamma):
    with pytest.raises(InvalidArgumentError, match="gamma"):
        RegAdaptState(gamma=gamma)


@pytest.mark.parametrize("gamma", [2.0, GAMMA_BOUNDS[0], GAMMA_BOUNDS[1], 3e4])
def test_walk_asks_for_the_probe_weights(gamma):
    """update_gamma evaluates the objective at probe_weights(gamma), in that order; a weight
    above the bounds starts the walk, and both its probes are then clamped differently."""
    asked = []

    def loss(g):
        asked.append(g)
        return float(np.log(g))

    probes = probe_weights(gamma)
    update_gamma(RegAdaptState(gamma=gamma), loss, step_size=0.1)
    assert tuple(asked) == probes


def test_stopped_state_is_frozen():
    state = RegAdaptState(gamma=2.0, stopped=True)
    out = update_gamma(state, lambda g: g**2, step_size=0.1)
    assert out is state
    assert out.gamma == 2.0
    assert out.loss_history == []


def test_walks_reproduce_recorded_arithmetic():
    """Three steps of each walk equal recorded values to the last bit.  The gamma half was
    recorded before the walks shared their adaptive-moment step; the delta half when the
    calibration walk took the objective's exact gradient, and its first coordinate ends
    clamped at 0."""
    def f_delta(d):
        weights = np.arange(1, d.size + 1)
        value = float(np.sum(weights * (d - 1.3) ** 2) + np.sum(np.sin(3 * d)))
        return value, 2 * weights * (d - 1.3) + 3 * np.cos(3 * d)

    def f_gamma(g):
        return float((np.log(g) - 0.7) ** 2 + 0.1 * g)

    d_state = DeltaOptState(delta=np.array([0.02, 1.0, 1.995]))
    g_state = RegAdaptState(gamma=2.0)
    for _ in range(3):
        d_state = update_delta(d_state, f_delta, step_size=0.05)
        g_state = update_gamma(g_state, f_gamma, step_size=0.3)
    assert repr(d_state.delta.tolist()) == "[0.0, 1.1497128123582347, 1.84547351743518]"
    assert repr(d_state.loss_history) == (
        "[3.174772935784501, 2.6213369696577136, 2.1121430705393838]")
    assert repr(g_state.gamma) == "2.0486489387758824"
    assert repr(g_state.loss_history) == (
        "[0.20279701322195182, 0.24500753258678007, 0.19740020115247997]")
    assert (d_state.iteration, g_state.iteration) == (3, 3)


@pytest.mark.parametrize("walk", ["gamma", "delta"])
def test_gradient_whose_square_overflows_is_rejected(walk):
    """A finite gradient whose square overflows stops either walk with NumericError, with no
    warning, and leaves the walk state as it was."""
    if walk == "gamma":  # grad = 2e200 / 0.1, a Python float
        state = RegAdaptState(gamma=1.0)
        def step():
            return update_gamma(state, lambda g: 1e200 if g > 1 else -1e200, step_size=0.1)
    else:  # grad = 1e200 in the first coordinate
        state = DeltaOptState(delta=np.ones(2))
        def step():
            return update_delta(state, lambda d: (1e200 * float(d[0]), np.array([1e200, 0.0])),
                                step_size=0.05)
    with pytest.raises(NumericError, match="not finite"):
        step()
    assert (state.iteration, state.loss_history) == (0, [])
    assert np.all(state.m == 0.0) and np.all(state.v == 0.0)


def test_gamma_clamped_to_bounds():
    state = RegAdaptState(gamma=1.0)
    for _ in range(40):  # push down hard
        state = update_gamma(state, lambda g: np.log(g), step_size=5.0)
        assert GAMMA_BOUNDS[0] <= state.gamma <= GAMMA_BOUNDS[1]
    assert state.gamma == pytest.approx(GAMMA_BOUNDS[0])


@pytest.mark.parametrize("gamma", GAMMA_BOUNDS)
def test_gamma_gradient_at_a_bound_uses_the_clamped_width(gamma):
    """At either bound one probe is clamped; the slope-1 objective log(gamma) still reads a
    gradient of 1, so the first moment after one step is (1 - b1) * 1 = 0.3."""
    state = update_gamma(RegAdaptState(gamma=gamma), lambda g: float(np.log(g)), step_size=0.1)
    assert state.m == pytest.approx(0.3, rel=1e-9)


# ---------------------------------------------------------------------------
# sliding-window stop
# ---------------------------------------------------------------------------


def test_constant_history_gives_zero():
    assert convergence_criterion([3.0] * 10, 5) == 0.0


def test_hand_computed_window_value():
    assert convergence_criterion([4.0, 4.0, 2.0, 2.0], 2) == 0.5


def test_increasing_history_negative():
    assert convergence_criterion([1.0, 2.0, 3.0, 4.0], 2) < 0.0


def test_insufficient_history_not_ready():
    assert convergence_criterion([1.0, 2.0, 3.0], 2) is None


def test_zero_denominator_not_ready():
    assert convergence_criterion([0.0, 0.0, 1.0, 1.0], 2) is None


def test_bad_window_rejected():
    with pytest.raises(InvalidArgumentError):
        convergence_criterion([1.0, 2.0], 0)
