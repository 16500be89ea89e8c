"""Pluggable score priors.

A score prior evaluates s(x, sigma) ~ grad_x log p_sigma(x) for the prior
density smoothed at noise level sigma.  Analytic circulant-Gaussian priors
give closed forms used as oracles; the convolutional prior lives in
`mricalib.unet` and accepts a calibration vector that rescales frequency
bands of its skip features.  A calibratable prior also linearizes: one
call returns the score and a pullback that maps an image-space vector to
the score's vector-Jacobian product in the calibration vector.  A prior
holds no state that depends on its inputs.

Calibration vectors pack two scalars per calibratable layer as
[alpha_1, beta_1, ..., alpha_L, beta_L]; every entry lives in [0, 2] and
the all-ones vector is the identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidArgumentError
from .fourier import fft2c, ifft2c


class ScorePrior:
    """Interface: evaluate(x, sigma, delta) -> array of x's shape; with layer_count > 0 also
    linearize(x, sigma, delta) -> (evaluate(x, sigma, delta), pullback), where
    pullback(v) = Re<v, d evaluate(x, sigma, delta) / d delta_j> over j."""

    layer_count: int = 0

    def evaluate(self, x: np.ndarray, sigma: float, delta: np.ndarray | None = None) -> np.ndarray:
        raise NotImplementedError

    def linearize(self, x, sigma, delta) -> tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]:
        raise NotImplementedError


@dataclass
class GaussianPrior(ScorePrior):
    """Circulant Gaussian N(mean, Sigma) diagonalized by the centered DFT.

    `spectrum` holds the (real, strictly positive) eigenvalues of Sigma on
    the centered frequency grid, acting identically on real and imaginary
    parts; `mean` must be finite.  The calibration vector is ignored
    (layer_count = 0).
    """

    mean: np.ndarray
    spectrum: np.ndarray

    def __post_init__(self):
        if np.iscomplexobj(self.spectrum):
            raise InvalidArgumentError("prior spectrum must be real")
        self.mean = np.asarray(self.mean, dtype=np.complex128)
        self.spectrum = np.asarray(self.spectrum, dtype=np.float64)
        if not np.all(np.isfinite(self.mean)):
            raise InvalidArgumentError("prior mean must be finite")
        if self.mean.shape != self.spectrum.shape:
            raise InvalidArgumentError(
                f"mean {self.mean.shape} and spectrum {self.spectrum.shape} disagree"
            )
        if not np.all(self.spectrum > 0):
            raise InvalidArgumentError("prior spectrum must be strictly positive")

    def evaluate(self, x, sigma, delta=None):
        return gaussian_score(x, sigma, self)


def gaussian_score(x: np.ndarray, sigma: float, prior: GaussianPrior) -> np.ndarray:
    """Closed-form score of the sigma-smoothed density: -(Sigma + sigma^2 I)^(-1) (x - mean)."""
    if not 0 <= sigma < np.inf:  # NaN fails too
        raise InvalidArgumentError(f"sigma must be finite and >= 0, got {sigma}")
    x = np.asarray(x, dtype=np.complex128)
    if x.shape != prior.mean.shape:
        raise InvalidArgumentError(f"x shape {x.shape} does not match prior {prior.mean.shape}")
    return ifft2c(fft2c(prior.mean - x) / (prior.spectrum + sigma**2))


def white_prior(height: int, width: int) -> GaussianPrior:
    """Unit-variance zero-mean prior: score(x) = -x / (1 + sigma^2)."""
    return GaussianPrior(
        mean=np.zeros((height, width), dtype=np.complex128),
        spectrum=np.ones((height, width)),
    )


def identity_delta(layer_count: int) -> np.ndarray:
    return np.ones(2 * layer_count, dtype=np.float64)


def clamp_delta(delta: np.ndarray) -> np.ndarray:
    return np.clip(np.asarray(delta, dtype=np.float64), 0.0, 2.0)


def validate_delta(delta: np.ndarray, layer_count: int | None = None) -> np.ndarray:
    delta = np.asarray(delta, dtype=np.float64)
    if delta.ndim != 1 or delta.size % 2:
        raise InvalidArgumentError(f"calibration vector must be flat with even length, got {delta.shape}")
    if layer_count is not None and delta.size != 2 * layer_count:
        raise InvalidArgumentError(
            f"calibration vector length {delta.size} != 2 * {layer_count} layers"
        )
    if not np.all((0 <= delta) & (delta <= 2)):  # NaN fails too
        raise InvalidArgumentError("calibration entries must lie in [0, 2]")
    return delta
