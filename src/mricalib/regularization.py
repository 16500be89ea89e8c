"""Risk-driven adaptation of the data-fidelity weight.

The weight's quality is estimated without ground truth by a Monte-Carlo
randomized probe: one Gaussian direction mu tests how strongly the
one-step reconstruction map reacts to an epsilon-sized perturbation, and
the probe is combined with the residual against the zero-filled image.
The default objective is the product form

    L(gamma) = ||x_zf - h(gamma; x)||^2 / (N eps) * mu^T (h(gamma; x + eps mu) - h(gamma; x))

with N the pixel count; a conventional additive form
residual/N + 2 sigma_n^2 divergence/(N eps) is available behind a flag.

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

SURE_FORMS = ("product", "additive")


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
    if eps <= 0:
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
    form: str = "product",
    noise_var: float = 1.0,
) -> float:
    """Monte-Carlo risk estimate of the composite map h(gamma; .) at x_t."""
    if form not in SURE_FORMS:
        raise InvalidArgumentError(f"unknown form {form!r}, expected one of {SURE_FORMS}")
    if eps <= 0:
        raise InvalidArgumentError("eps must be > 0")
    x_t = np.asarray(x_t)
    base = h(gamma, x_t)
    if not np.all(np.isfinite(base.view(np.float64) if np.iscomplexobj(base) else base)):
        raise NumericError("composite map produced non-finite values")
    n = x_t.size
    resid = x_zf - base
    resid_sq = float(np.real(np.vdot(resid, resid)))
    div = mc_divergence(lambda v: h(gamma, v), x_t, eps, seed, h_at_x=base)
    if form == "product":
        val = resid_sq / (n * eps) * div
    else:
        val = resid_sq / n + 2.0 * noise_var * div / (n * eps)
    if not np.isfinite(val):
        raise NumericError("risk estimate evaluated to a non-finite value")
    return val


@dataclass
class RegAdaptState:
    gamma: float = 1.0
    step_size: float = 0.1
    fd_step: float = 0.05  # in log space
    window: int = 5
    threshold: float = 0.001
    iteration: int = 0
    stopped: bool = False
    loss_history: list[float] = field(default_factory=list)
    m: float = 0.0
    v: float = 0.0

    def __post_init__(self):
        if not self.gamma > 0:
            raise InvalidArgumentError("gamma must be > 0")


def update_gamma(state: RegAdaptState, loss_fn: Callable[[float], float]) -> RegAdaptState:
    """One adaptive-moment step on log(gamma); a no-op once stopped."""
    if state.stopped:
        return state
    h = state.fd_step
    u = np.log(state.gamma)
    lo, hi = np.log(GAMMA_BOUNDS[0]), np.log(GAMMA_BOUNDS[1])
    f_plus = loss_fn(float(np.exp(min(u + h, hi))))
    f_minus = loss_fn(float(np.exp(max(u - h, lo))))
    if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
        raise NumericError("risk objective returned non-finite values")
    grad = (f_plus - f_minus) / (2 * h)

    # short-horizon walk over a noisy 1-D objective: modest momentum
    b1, b2, eps = 0.7, 0.999, 1e-8
    state.m = b1 * state.m + (1 - b1) * grad
    state.v = b2 * state.v + (1 - b2) * grad**2
    k = state.iteration + 1
    m_hat = state.m / (1 - b1**k)
    v_hat = state.v / (1 - b2**k)
    u = np.clip(u - state.step_size * m_hat / (np.sqrt(v_hat) + eps), lo, hi)

    state.gamma = float(np.exp(u))
    state.iteration += 1
    state.loss_history.append(0.5 * (f_plus + f_minus))
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
