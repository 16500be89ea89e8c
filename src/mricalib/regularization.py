"""Risk-driven adaptation of the data-fidelity weight.

The weight's quality is estimated without ground truth by a Monte-Carlo
randomized probe: one Gaussian direction mu tests how strongly the
one-step reconstruction map reacts to an epsilon-sized perturbation, and
the probe is combined with the residual against the zero-filled image.
The objective is the product form

    L(gamma) = ||x_zf - h(gamma; x)||^2 / (N eps) * mu^T (h(gamma; x + eps mu) - h(gamma; x))

with N the pixel count.

Updates walk log(gamma) with a derivative-free central difference and
adaptive-moment smoothing, and stop permanently once a sliding-window
convergence measure drops below threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import InvalidArgumentError, NumericError

GAMMA_BOUNDS = (1e-4, 1e4)
GAMMA_FD_STEP = 0.05  # central-difference probe size in log(gamma)


def _draw_direction(like: np.ndarray, seed) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if np.iscomplexobj(like):
        return rng.standard_normal(like.shape) + 1j * rng.standard_normal(like.shape)
    return rng.standard_normal(like.shape)


def mc_divergence(
    h: Callable[[np.ndarray], np.ndarray],
    x: np.ndarray,
    eps: float,
    seed,
    h_at_x: np.ndarray | None = None,
) -> float:
    """Randomized divergence probe mu^T (h(x + eps mu) - h(x)).

    For a linear map H the expectation over mu is eps * trace(H) (real
    trace of the real representation), which unit tests pin against an
    exact trace oracle.
    """
    if not eps > 0:
        raise InvalidArgumentError("eps must be > 0")
    x = np.asarray(x)
    mu = _draw_direction(x, seed)
    base = h(x) if h_at_x is None else h_at_x
    diff = h(x + eps * mu) - base
    return float(np.real(np.vdot(mu, diff)))


def sure_loss(
    gamma: float,
    x_t: np.ndarray,
    x_zf: np.ndarray,
    h: Callable[[float, np.ndarray], np.ndarray],
    eps: float,
    seed,
) -> float:
    """Monte-Carlo risk estimate of the composite map h(gamma; .) at x_t."""
    if not eps > 0:
        raise InvalidArgumentError("eps must be > 0")
    x_t = np.asarray(x_t)
    base = h(gamma, x_t)
    if not np.all(np.isfinite(base.view(np.float64) if np.iscomplexobj(base) else base)):
        raise NumericError("composite map produced non-finite values")
    n = x_t.size
    resid = x_zf - base
    resid_sq = float(np.real(np.vdot(resid, resid)))
    div = mc_divergence(lambda v: h(gamma, v), x_t, eps, seed, h_at_x=base)
    val = resid_sq / (n * eps) * div
    if not np.isfinite(val):
        raise NumericError("risk estimate evaluated to a non-finite value")
    return val


@dataclass
class RegAdaptState:
    gamma: float
    iteration: int = 0
    stopped: bool = False
    loss_history: list[float] = field(default_factory=list)
    m: float = 0.0
    v: float = 0.0

    def __post_init__(self):
        if not self.gamma > 0:
            raise InvalidArgumentError("gamma must be > 0")


def moment_step(state, evals: list[float], grad, step_size: float, b1: float):
    """Adaptive-moment step shared by both walks; returns the step to subtract.

    Checks that the objective values, the squared gradient and the step
    are finite, then records the mean value in state.loss_history and
    advances state.m, state.v and state.iteration; a failed check leaves
    the state as it was.
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
    state.loss_history.append(float(np.mean(evals)))
    state.m, state.v, state.iteration = m, v, iteration
    return step


def update_gamma(
    state: RegAdaptState,
    loss_fn: Callable[[float], float],
    step_size: float,
) -> RegAdaptState:
    """One adaptive-moment step on log(gamma); a no-op once stopped.

    step_size and the probe size GAMMA_FD_STEP are both measured in log(gamma).
    """
    if state.stopped:
        return state
    u, h = np.log(state.gamma), GAMMA_FD_STEP
    lo, hi = np.log(GAMMA_BOUNDS[0]), np.log(GAMMA_BOUNDS[1])
    f_plus = loss_fn(float(np.exp(min(u + h, hi))))
    f_minus = loss_fn(float(np.exp(max(u - h, lo))))
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
