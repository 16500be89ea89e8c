"""Risk-driven adaptation of the data-fidelity weight.

The weight's quality is estimated without ground truth by a Monte-Carlo
randomized probe: one Gaussian direction mu tests how strongly the
one-step reconstruction map reacts to an epsilon-sized perturbation, and
the probe is combined with the residual against the zero-filled image.
The objective is the product form

    L(gamma) = ||x_zf - h(gamma; x)||^2 / (N eps) * mu^T (h(gamma; x + eps mu) - h(gamma; x))

with N the pixel count.  `sure_loss` takes the two images h(gamma; x) and
h(gamma; x + eps mu); `pipeline.reconstruct` builds them.

`update_gamma` steps log(gamma) from the two risk values at
`probe_weights(gamma)`, a central difference smoothed by adaptive moments.
The walk keeps no history and never stops itself: `pipeline.reconstruct`
keeps the risk history and freezes the walk for good once
`convergence_criterion` of it drops below threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidArgumentError, NumericError

GAMMA_BOUNDS = (1e-4, 1e4)
GAMMA_FD_STEP = 0.05  # central-difference probe size in log(gamma)
_LOG_LO, _LOG_HI = np.log(GAMMA_BOUNDS[0]), np.log(GAMMA_BOUNDS[1])


def draw_direction(like: np.ndarray, seed) -> np.ndarray:
    """The probe direction mu: standard normal of like's shape, complex if like is."""
    rng = np.random.default_rng(seed)
    if np.iscomplexobj(like):
        return rng.standard_normal(like.shape) + 1j * rng.standard_normal(like.shape)
    return rng.standard_normal(like.shape)


def _probe(mu: np.ndarray, h_x: np.ndarray, h_x_eps: np.ndarray) -> float:
    return float(np.real(np.vdot(mu, h_x_eps - h_x)))


def mc_divergence(
    h: Callable[[np.ndarray], np.ndarray],
    x: np.ndarray,
    eps: float,
    seed,
) -> float:
    """Randomized divergence probe mu^T (h(x + eps mu) - h(x)).

    For a linear map H the expectation over mu is eps * trace(H) (real
    trace of the real representation), which unit tests pin against an
    exact trace oracle.
    """
    if not eps > 0:
        raise InvalidArgumentError("eps must be > 0")
    x = np.asarray(x)
    mu = draw_direction(x, seed)
    return _probe(mu, h(x), h(x + eps * mu))


def sure_loss(
    x_zf: np.ndarray,
    h_x: np.ndarray,
    h_x_eps: np.ndarray,
    mu: np.ndarray,
    eps: float,
) -> float:
    """Monte-Carlo risk estimate from one map's images h_x at x and h_x_eps at x + eps mu."""
    if not eps > 0:
        raise InvalidArgumentError("eps must be > 0")
    h_x = np.asarray(h_x)
    if not np.all(np.isfinite(h_x.view(np.float64) if np.iscomplexobj(h_x) else h_x)):
        raise NumericError("composite map produced non-finite values")
    n = h_x.size
    resid = x_zf - h_x
    resid_sq = float(np.real(np.vdot(resid, resid)))
    val = resid_sq / (n * eps) * _probe(mu, h_x, h_x_eps)
    if not np.isfinite(val):
        raise NumericError("risk estimate evaluated to a non-finite value")
    return val


@dataclass
class RegAdaptState:
    gamma: float
    iteration: int = 0
    m: float = 0.0
    v: float = 0.0

    def __post_init__(self):
        if not 0 < self.gamma < np.inf:
            raise InvalidArgumentError(f"gamma must be finite and > 0, got {self.gamma}")


def moment_step(state, evals: list[float], grad, step_size: float, b1: float):
    """Adaptive-moment step shared by both walks; returns the step to subtract.

    Checks that the objective values, the squared gradient and the step
    are finite, then advances state.m, state.v and state.iteration; a
    failed check leaves the state as it was.
    """
    if not np.all(np.isfinite(evals)):
        raise NumericError("objective returned non-finite values")
    b2, eps = 0.999, 1e-8
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        grad_sq = np.square(grad)
        m = b1 * state.m + (1 - b1) * grad
        v = b2 * state.v + (1 - b2) * grad_sq
        iteration = state.iteration + 1
        step = step_size * (m / (1 - b1**iteration)) / (np.sqrt(v / (1 - b2**iteration)) + eps)
    if not (np.all(np.isfinite(grad_sq)) and np.all(np.isfinite(step))):
        raise NumericError(f"adaptive-moment step is not finite (gradient {grad})")
    state.m, state.v, state.iteration = m, v, iteration
    return step


def probe_weights(gamma: float) -> tuple[float, float]:
    """The two weights (gamma_plus, gamma_minus) whose risk values update_gamma takes.

    They are gamma * e^(+GAMMA_FD_STEP) and gamma * e^(-GAMMA_FD_STEP), each
    clamped to GAMMA_BOUNDS, so at a bound one of them equals gamma.
    """
    u, h = np.log(gamma), GAMMA_FD_STEP
    return float(np.exp(min(u + h, _LOG_HI))), float(np.exp(max(u - h, _LOG_LO)))


def update_gamma(
    state: RegAdaptState,
    f_plus: float,
    f_minus: float,
    step_size: float,
) -> RegAdaptState:
    """One adaptive-moment step on log(gamma) from the objective's values at
    probe_weights(state.gamma), in that order; mutates and returns the state.

    step_size and the probe size GAMMA_FD_STEP are both measured in log(gamma).
    """
    u, h = np.log(state.gamma), GAMMA_FD_STEP
    lo, hi = _LOG_LO, _LOG_HI
    # divide by the clamped width, in a form that is exactly 2h where neither probe is clamped
    grad = (f_plus - f_minus) / (2 * h - max(u + h - hi, 0.0) - max(lo - (u - h), 0.0))
    # short-horizon walk over a noisy 1-D objective: modest momentum
    step = moment_step(state, [f_plus, f_minus], grad, step_size, b1=0.7)
    state.gamma = float(np.exp(np.clip(u - step, lo, hi)))
    return state


def convergence_criterion(history: list[float], k: int) -> float | None:
    """Sliding-window convergence measure E = 1 - (recent k-sum / previous k-sum).

    Returns None (not ready) while fewer than 2k values exist or the
    previous window sums to zero; the caller freezes updates once the
    returned value drops below its threshold.
    """
    if k < 1:
        raise InvalidArgumentError("window size must be >= 1")
    if len(history) < 2 * k:
        return None
    recent = float(np.sum(history[-k:]))
    previous = float(np.sum(history[-2 * k : -k]))
    if previous == 0.0:
        return None
    return 1.0 - recent / previous
