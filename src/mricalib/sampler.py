"""Noise schedule and reverse-time denoising updates.

The schedule is a geometric ladder sigma_t = sigma_min * (sigma_max /
sigma_min)^((t-1)/(T-1)) stored in increasing-t order, so the reverse
pass walks it back to front.  One denoising update is the posterior-mean
step x + sigma^2 * score(x); transitions between noise levels are
deterministic by default (the implied-noise direction is rescaled), with
a seeded stochastic variant behind a flag.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidArgumentError, NumericError
from .priors import ScorePrior

RENOISE_MODES = ("deterministic", "stochastic")


def build_schedule(steps: int, sigma_max: float = 1.0, sigma_min: float = 0.01) -> np.ndarray:
    """Geometric ladder sigma_1 .. sigma_T (float64) from sigma_min (t=1) up to sigma_max (t=T)."""
    if not steps >= 1:
        raise InvalidArgumentError("steps must be >= 1")
    if not np.inf > sigma_max > sigma_min > 0:
        raise InvalidArgumentError(
            f"need inf > sigma_max > sigma_min > 0, got {sigma_max}, {sigma_min}"
        )
    if steps == 1:
        return np.array([float(sigma_max)])
    t = np.arange(steps, dtype=np.float64)
    sigmas = sigma_min * (sigma_max / sigma_min) ** (t / (steps - 1))
    if not np.all(np.diff(sigmas) > 0):  # adjacent levels rounded to one float
        raise InvalidArgumentError("noise levels must be strictly increasing")
    return sigmas


def tweedie_denoise(
    x: np.ndarray,
    sigma: float,
    prior: ScorePrior,
    delta: np.ndarray | None = None,
) -> np.ndarray:
    """Posterior-mean update x + sigma^2 * s(x, sigma)."""
    x = np.asarray(x, dtype=np.complex128)
    if not sigma >= 0:
        raise InvalidArgumentError("sigma must be >= 0")
    if sigma == 0:
        return x.copy()
    return tweedie_step(x, sigma, prior.evaluate(x, sigma, delta))


def tweedie_step(x: np.ndarray, sigma: float, score: np.ndarray) -> np.ndarray:
    """x + sigma^2 * score for a score already evaluated at (x, sigma); a non-finite score
    raises NumericError."""
    if not np.all(np.isfinite(score.view(np.float64))):
        raise NumericError("score evaluation produced non-finite values")
    return x + sigma**2 * score


def renoise(
    x_hat: np.ndarray,
    x_curr: np.ndarray,
    sigma_next: float,
    sigma_curr: float,
    mode: str = "deterministic",
    seed: int = 0,
) -> np.ndarray:
    """Transition the denoised estimate down to the next noise level.

    Deterministic mode rescales the implied noise direction
    (x_curr - x_hat) / sigma_curr; stochastic mode draws fresh complex
    Gaussian noise with per-component std sigma_next.
    """
    if mode not in RENOISE_MODES:
        raise InvalidArgumentError(f"unknown renoise mode {mode!r}")
    if not 0 <= sigma_next <= sigma_curr:
        raise InvalidArgumentError(
            f"need 0 <= sigma_next <= sigma_curr, got {sigma_next}, {sigma_curr}"
        )
    x_hat = np.asarray(x_hat, dtype=np.complex128)
    if sigma_next == 0:
        return x_hat.copy()
    if mode == "deterministic":
        return x_hat + (sigma_next / sigma_curr) * (np.asarray(x_curr) - x_hat)
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(x_hat.shape) + 1j * rng.standard_normal(x_hat.shape)
    return x_hat + sigma_next * noise
