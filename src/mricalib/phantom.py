"""Seeded synthetic test objects with controllable domain shifts.

Three families: randomized ellipse stacks, piecewise-smooth blobs with
flat inserts, and smooth backgrounds carrying band-passed texture.  The
base magnitude is normalized to [0, 1]; domain shifts then remap it:
a contrast exponent, a multiplicative smooth bias field 1 + a*g with
max|g| = 1 (applied without renormalization so the pixelwise ratio to
the unshifted phantom stays inside [1-a, 1+a]), and a resolution scale
that blurs toward lower effective resolution (a Gaussian of width
1/scale - 1 pixels, at most the phantom size).  A gentle smooth phase
makes the output genuinely complex.

`PhantomSpec` declares each field with its help and rule (settings.py);
`simulate` and `ablate` generate their phantom flags from it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy.ndimage import gaussian_filter

from .errors import InvalidArgumentError
from .settings import POSITIVE, SEED, Rule, check_settings, integer_at_least, one_of, setting

PHANTOM_KINDS = ("ellipse-phantom", "piecewise-smooth", "texture-mix")

_PHASE_AMPLITUDE = 0.3  # radians


@dataclass(frozen=True)
class PhantomSpec:
    kind: str = setting("ellipse-phantom", "phantom family", one_of(*PHANTOM_KINDS),
                        flag="--phantom-kind")
    size: int = setting(64, "image side in pixels", integer_at_least(8))
    contrast_exponent: float = setting(1.0, "contrast shift: magnitude ** exponent", POSITIVE,
                                       flag="--contrast")
    bias_amplitude: float = setting(0.0, "amplitude a of the bias field 1 + a*g",
                                    Rule("a number in [0, 1)", lambda v: not 0 <= v < 1))
    resolution_scale: float = setting(1.0, "resolution shift: blur width 1/scale - 1 pixels",
                                      Rule("a number in (0, 1]", lambda v: not 0 < v <= 1))
    seed: int = setting(0, "seed of the phantom draw", SEED, flag="--seed-phantom")

    def __post_init__(self):
        check_settings(self)
        if not 1 / self.resolution_scale - 1 <= self.size:
            raise InvalidArgumentError(f"resolution_scale must give a blur width 1/scale - 1 "
                                       f"of at most size {self.size}, got {self.resolution_scale}")


def _smooth_field(n: int, rng: np.random.Generator, rel_sigma: float = 0.125) -> np.ndarray:
    """Band-limited field normalized to max|.| = 1."""
    g = gaussian_filter(rng.standard_normal((n, n)), sigma=rel_sigma * n, mode="wrap")
    peak = np.max(np.abs(g))
    return g / peak if peak > 0 else g


@functools.lru_cache(maxsize=8)
def _unit_grid(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only pixel coordinates (yn, xn) of an n x n grid, scaled to [-1, 1]."""
    y, x = np.mgrid[0:n, 0:n]
    yn = 2 * y / (n - 1) - 1
    xn = 2 * x / (n - 1) - 1
    yn.flags.writeable = xn.flags.writeable = False
    return yn, xn


def _ellipse(n: int, cy, cx, ay, ax, angle) -> np.ndarray:
    yn, xn = _unit_grid(n)
    dy, dx = yn - cy, xn - cx
    ca, sa = np.cos(angle), np.sin(angle)
    u = dx * ca + dy * sa
    v = -dx * sa + dy * ca
    return ((u / ax) ** 2 + (v / ay) ** 2 <= 1.0).astype(np.float64)


def _base_magnitude(spec: PhantomSpec, rng: np.random.Generator) -> np.ndarray:
    n = spec.size
    if spec.kind == "ellipse-phantom":
        img = _ellipse(n, 0.0, 0.0, 0.88, 0.72, 0.0)
        for _ in range(int(rng.integers(5, 9))):
            cy, cx = rng.uniform(-0.45, 0.45, size=2)
            ay, ax = rng.uniform(0.08, 0.38, size=2)
            angle = rng.uniform(0, np.pi)
            img += rng.uniform(-0.5, 0.6) * _ellipse(n, cy, cx, ay, ax, angle)
        img = np.clip(img, 0.0, None)
    elif spec.kind == "piecewise-smooth":
        img = 0.5 + 0.5 * _smooth_field(n, rng)
        img *= _ellipse(n, 0.0, 0.0, 0.9, 0.85, 0.0)
        y, x = np.mgrid[0:n, 0:n]
        for _ in range(int(rng.integers(3, 7))):
            cy, cx = rng.uniform(0.2, 0.8, size=2) * n
            r = rng.uniform(0.05, 0.18) * n
            disc = (y - cy) ** 2 + (x - cx) ** 2 <= r**2
            img[disc] = rng.uniform(0.1, 1.0)
        img = np.clip(img, 0.0, None)
    else:  # texture-mix
        support = _ellipse(n, 0.0, 0.0, 0.9, 0.85, 0.0)
        smooth = 0.6 + 0.4 * _smooth_field(n, rng)
        noise = rng.standard_normal((n, n))
        texture = gaussian_filter(noise, 1.0, mode="wrap") - gaussian_filter(noise, 3.0, mode="wrap")
        peak = np.max(np.abs(texture))
        img = support * np.clip(smooth + 0.25 * texture / peak, 0.0, None)

    lo, hi = img.min(), img.max()
    if hi > lo:
        img = (img - lo) / (hi - lo)
    return img


def make_phantom(spec: PhantomSpec) -> np.ndarray:
    """Deterministic complex phantom for the given spec."""
    rng = np.random.default_rng(spec.seed)
    mag = _base_magnitude(spec, rng)
    phase_field = _smooth_field(spec.size, rng)

    if spec.contrast_exponent != 1.0:
        mag = mag**spec.contrast_exponent
    if spec.resolution_scale != 1.0:
        mag = gaussian_filter(mag, sigma=1.0 / spec.resolution_scale - 1.0)
    if spec.bias_amplitude != 0.0:
        bias_rng = np.random.default_rng((spec.seed, 77))
        mag = mag * (1.0 + spec.bias_amplitude * _smooth_field(spec.size, bias_rng))

    return mag * np.exp(1j * _PHASE_AMPLITUDE * phase_field)
