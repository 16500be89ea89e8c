"""Magnitude-domain image quality metrics."""

from __future__ import annotations

import numpy as np
from scipy.ndimage import gaussian_filter

from .errors import InvalidArgumentError

# 11x11 Gaussian window: sigma 1.5 truncated at radius 5
_SSIM_SIGMA = 1.5
_SSIM_TRUNCATE = 5.0 / 1.5


def _magnitudes(x: np.ndarray, ref: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    x, ref = np.asarray(x), np.asarray(ref)
    if x.shape != ref.shape:
        raise InvalidArgumentError(f"shape mismatch: {x.shape} vs {ref.shape}")
    return np.abs(x).astype(np.float64), np.abs(ref).astype(np.float64)


def psnr(x: np.ndarray, ref: np.ndarray) -> float:
    """Peak signal-to-noise ratio in dB; +inf for an exact match."""
    a, r = _magnitudes(x, ref)
    peak = r.max()
    if not peak > 0:
        raise InvalidArgumentError("reference maximum must be positive")
    mse = float(np.mean((a - r) ** 2))
    if mse == 0.0:
        return float("inf")
    return 10.0 * float(np.log10(peak**2 / mse))


def ssim(x: np.ndarray, ref: np.ndarray) -> float:
    """Mean structural similarity with a Gaussian 11x11 window.

    Stabilizers use the standard (0.01 L)^2 and (0.03 L)^2.  L is the
    dynamic range over both magnitude images (the reference range when
    it dominates), which keeps the score exactly symmetric in its
    arguments.
    """
    a, r = _magnitudes(x, ref)
    if not r.max() > 0:  # NaN fails too
        raise InvalidArgumentError("reference maximum must be positive")
    dynamic_range = max(a.max(), r.max()) - min(a.min(), r.min())
    if dynamic_range == 0:
        dynamic_range = r.max()
    c1 = (0.01 * dynamic_range) ** 2
    c2 = (0.03 * dynamic_range) ** 2

    def smooth(im):
        return gaussian_filter(im, _SSIM_SIGMA, truncate=_SSIM_TRUNCATE, mode="reflect")

    mu_a, mu_r = smooth(a), smooth(r)
    var_a = smooth(a * a) - mu_a * mu_a
    var_r = smooth(r * r) - mu_r * mu_r
    cov = smooth(a * r) - mu_a * mu_r
    num = (2 * mu_a * mu_r + c1) * (2 * cov + c2)
    den = (mu_a**2 + mu_r**2 + c1) * (var_a + var_r + c2)
    return float(np.mean(num / den))
