"""Acquisition physics for undersampled multi-coil imaging.

Images are complex128 arrays of shape (H, W); multi-coil k-space is
(C, H, W).  The forward map per coil is  y_c = mask * fft2c(S_c * x),
its adjoint is  x = sum_c conj(S_c) * ifft2c(mask * y_c).  Sensitivities
are normalized so sum_c |S_c|^2 = 1 pointwise, which makes the adjoint a
sensitivity-weighted coil combination and AᴴA the identity under full
sampling.

apply_forward/apply_adjoint are the reference.  normal_operator(op) builds
v -> AᴴA v once for the many applications of a CG solve.  It works on the
k columns the mask occupies only (sub-column readout decoupling): the
W-direction DFT is a (W, k) matrix product, and the H-direction mask is
an FFT pair along each occupied column, skipped when those columns are
fully sampled (Gaussian1D, Uniform1D, full sampling), where no FFT is
left at all.  Within 1e-13 relative of the reference for every mask.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import FormatError, InvalidArgumentError
from .fourier import fft2c, ifft2c
from .settings import SEED
from .tensorio import read_tensor, write_tensor

MASK_KINDS = ("Gaussian1D", "Uniform1D", "Gaussian2D")


@dataclass
class SamplingMask:
    """Binary k-space selector: which entries were measured, and nothing else."""

    bits: np.ndarray  # (H, W) uint8 in {0, 1}

    @property
    def shape(self) -> tuple[int, int]:
        return self.bits.shape


@dataclass
class ForwardOperator:
    """Bundle of sampling mask and coil sensitivities, A_c = M F S_c."""

    mask: SamplingMask
    sens: np.ndarray  # (C, H, W) complex128

    def __post_init__(self):
        if self.sens.ndim != 3:
            raise InvalidArgumentError(f"sensitivities must be (C, H, W), got {self.sens.shape}")
        if self.sens.shape[1:] != self.mask.shape:
            raise InvalidArgumentError(
                f"mask {self.mask.shape} and sensitivities {self.sens.shape} disagree"
            )

    @property
    def coils(self) -> int:
        return self.sens.shape[0]

    @property
    def shape(self) -> tuple[int, int]:
        return self.mask.shape

    def with_mask(self, bits: np.ndarray) -> "ForwardOperator":
        """Same physics restricted to a different sampled set (e.g. a mask split)."""
        return replace(self, mask=SamplingMask(bits.astype(np.uint8)))


def _acs_band(n: int, fraction: float) -> tuple[int, int]:
    width = int(round(fraction * n))
    if width < 1:
        raise InvalidArgumentError(f"ACS fraction {fraction} selects no samples on axis {n}")
    start = (n - width) // 2
    return start, start + width


def _spread_over(candidates: np.ndarray, n_pick: int) -> np.ndarray:
    """Pick n_pick near-equispaced entries of a sorted candidate list; fewer picks than
    candidates lie more than 1 apart, so no two positions round to the same one."""
    if n_pick <= 0:
        return candidates[:0]
    if n_pick >= candidates.size:
        return candidates
    return candidates[np.round(np.linspace(0, candidates.size - 1, n_pick)).astype(int)]


def generate_mask(
    kind: str,
    height: int,
    width: int,
    accel: float,
    acs_fraction: float = 0.08,
    seed: int = 0,
) -> SamplingMask:
    """Build a deterministic sampling mask.

    1-D kinds sample whole columns with an exact budget of round(W/accel)
    lines (ACS band included); Gaussian1D draws the non-ACS lines without
    replacement with probability proportional to exp(-d^2 / (2 (W/6)^2)),
    Uniform1D spreads them evenly (no randomness).  Gaussian2D selects
    round(H*W/accel) individual samples around a fully kept central block.
    """
    if kind not in MASK_KINDS:
        raise InvalidArgumentError(f"unknown mask kind {kind!r}, expected one of {MASK_KINDS}")
    if height < 1 or width < 1:
        raise InvalidArgumentError("mask dimensions must be positive")
    if not 1 <= accel <= width:
        raise InvalidArgumentError(f"acceleration factor must lie in [1, width={width}], got {accel}")
    if not 0 < acs_fraction <= 1:
        raise InvalidArgumentError(f"acs_fraction must lie in (0, 1], got {acs_fraction}")
    SEED.check("seed", seed)

    bits = np.zeros((height, width), dtype=np.uint8)
    rng = np.random.default_rng(seed)

    if kind in ("Gaussian1D", "Uniform1D"):
        n_lines = int(round(width / accel))
        c0, c1 = _acs_band(width, acs_fraction)
        acs_cols = np.arange(c0, c1)
        if acs_cols.size > n_lines:
            raise InvalidArgumentError(
                f"ACS band ({acs_cols.size} lines) exceeds the budget round(W/R)={n_lines}"
            )
        candidates = np.setdiff1d(np.arange(width), acs_cols)
        n_extra = n_lines - acs_cols.size
        if kind == "Uniform1D":
            extra = _spread_over(candidates, n_extra)
        else:
            d = candidates - width // 2
            sigma = width / 6.0
            p = np.exp(-(d.astype(float) ** 2) / (2 * sigma**2))
            p /= p.sum()
            extra = rng.choice(candidates, size=n_extra, replace=False, p=p)
        bits[:, acs_cols] = 1
        bits[:, extra] = 1
    else:  # Gaussian2D
        budget = int(round(height * width / accel))
        r0, r1 = _acs_band(height, acs_fraction)
        c0, c1 = _acs_band(width, acs_fraction)
        block = np.zeros((height, width), dtype=bool)
        block[r0:r1, c0:c1] = True
        if block.sum() > budget:
            raise InvalidArgumentError("ACS block exceeds the sample budget round(H*W/R)")
        rows, cols = np.nonzero(~block)
        dr = (rows - height // 2) / (height / 6.0)
        dc = (cols - width // 2) / (width / 6.0)
        p = np.exp(-0.5 * (dr**2 + dc**2))
        p /= p.sum()
        n_extra = budget - int(block.sum())
        pick = rng.choice(rows.size, size=n_extra, replace=False, p=p)
        bits[block] = 1
        bits[rows[pick], cols[pick]] = 1

    return SamplingMask(bits)


def synth_coil_maps(coils: int, height: int, width: int, seed: int = 0) -> np.ndarray:
    """Smooth synthetic sensitivities with sum-of-squares 1 at every pixel.

    Each coil is a broad Gaussian bump centered on a ring, with a gentle
    low-order phase ramp.  A single coil degenerates to the identity map.
    """
    if coils < 1:
        raise InvalidArgumentError("need at least one coil")
    if height < 1 or width < 1:
        raise InvalidArgumentError("map dimensions must be positive")
    SEED.check("seed", seed)
    if coils == 1:
        return np.ones((1, height, width), dtype=np.complex128)

    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:height, 0:width]
    cy, cx = (height - 1) / 2.0, (width - 1) / 2.0
    ring = 0.38 * min(height, width)
    bump_width = 0.55 * min(height, width)

    maps = np.empty((coils, height, width), dtype=np.complex128)
    for c in range(coils):
        angle = 2 * np.pi * c / coils + rng.uniform(-0.2, 0.2)
        py = cy + ring * np.sin(angle)
        px = cx + ring * np.cos(angle)
        mag = np.exp(-((yy - py) ** 2 + (xx - px) ** 2) / (2 * bump_width**2))
        phase = (
            rng.uniform(-0.5, 0.5)
            + rng.uniform(-0.5, 0.5) * (xx / width)
            + rng.uniform(-0.5, 0.5) * (yy / height)
        )
        maps[c] = mag * np.exp(1j * phase)

    norm = np.sqrt(np.sum(np.abs(maps) ** 2, axis=0))
    return maps / norm


def apply_forward(x: np.ndarray, op: ForwardOperator) -> np.ndarray:
    """y_c = mask * fft2c(S_c * x); off-mask entries are exactly zero."""
    x = np.asarray(x, dtype=np.complex128)
    if x.shape != op.shape:
        raise InvalidArgumentError(f"image shape {x.shape} does not match operator {op.shape}")
    return fft2c(op.sens * x[None, :, :]) * op.mask.bits[None, :, :]


def apply_adjoint(y: np.ndarray, op: ForwardOperator) -> np.ndarray:
    """x = sum_c conj(S_c) * ifft2c(mask * y_c) — the exact adjoint."""
    y = np.asarray(y, dtype=np.complex128)
    if y.shape != (op.coils, *op.shape):
        raise InvalidArgumentError(
            f"k-space shape {y.shape} does not match operator ({op.coils}, *{op.shape})"
        )
    return np.sum(np.conj(op.sens) * ifft2c(y * op.mask.bits[None, :, :]), axis=0)


def normal_operator(op: ForwardOperator) -> Callable[[np.ndarray], np.ndarray]:
    """v -> AᴴA v for a fixed operator, set up once for many applications.

    AᴴA v = sum_c conj(S_c) * G((S_c v) Vᵀ) V̄, where V holds the rows of
    the centred orthonormal W-point DFT at the k occupied columns, and G
    applies the band bits bits[:, cols] along H to the (C, H, k) band:
    fft, multiply by the ifftshift-ed band bits, ifft.  Each band column
    then sees a circulant, which commutes with the centring shifts, so
    only the bits are shifted.  A fully sampled band makes G the
    identity, and the step is skipped.
    """
    sens = np.asarray(op.sens, dtype=np.complex128)  # real or complex64 maps size complex buffers
    bits = op.mask.bits
    cols = np.flatnonzero(bits.any(axis=0))
    eye = np.eye(sens.shape[-1], dtype=np.complex128)
    dft = np.fft.fftshift(np.fft.fft(np.fft.ifftshift(eye, axes=0), axis=0, norm="ortho"), axes=0)
    rows = dft[cols]  # V, (k, W)
    rows_conj = np.conj(rows)
    sens_conj = np.conj(sens)
    band_bits = bits[:, cols]
    h_mask = None if band_bits.all() else np.fft.ifftshift(band_bits, axes=0).astype(np.complex128)
    stack = np.empty_like(sens)
    band = np.empty((*sens.shape[:2], cols.size), dtype=np.complex128)

    def apply(v: np.ndarray) -> np.ndarray:
        np.multiply(sens, v, out=stack)
        np.matmul(stack, rows.T, out=band)
        if h_mask is not None:
            np.fft.fft(band, axis=1, out=band)
            np.multiply(band, h_mask, out=band)
            np.fft.ifft(band, axis=1, out=band)
        np.matmul(band, rows_conj, out=stack)
        np.multiply(stack, sens_conj, out=stack)
        return stack.sum(axis=0)

    return apply


def add_noise(y: np.ndarray, mask: SamplingMask, noise_std: float, seed: int = 0) -> np.ndarray:
    """Add i.i.d. complex Gaussian noise (per-component std) on sampled entries only."""
    if not 0 <= noise_std < np.inf:
        raise InvalidArgumentError(f"noise_std must be a finite number >= 0, got {noise_std}")
    SEED.check("seed", seed)
    y = np.asarray(y, dtype=np.complex128)
    if noise_std == 0:
        return y.copy()
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(y.shape) + 1j * rng.standard_normal(y.shape)
    return y + noise_std * noise * mask.bits[None, :, :]


def save_mask(path: str | os.PathLike, mask: SamplingMask) -> None:
    """Mask bits as a real 0/1 tensor file; the file is the whole mask."""
    write_tensor(path, mask.bits.astype(np.float64))


def load_mask(path: str | os.PathLike) -> SamplingMask:
    """Read a mask tensor; anything but a nonempty real rank-2 tensor of 0s and 1s raises
    FormatError.

    A `.meta` file beside it, as older versions wrote, is not read.
    """
    bits = read_tensor(path)
    if bits.ndim != 2:
        raise FormatError(f"mask tensor {os.fspath(path)} must be rank 2, got rank {bits.ndim}")
    if 0 in bits.shape:
        raise FormatError(f"mask tensor {os.fspath(path)} has an empty axis, shape {bits.shape}")
    if np.iscomplexobj(bits) or not np.all((bits == 0) | (bits == 1)):
        raise FormatError(f"mask tensor {os.fspath(path)} must hold only real 0s and 1s")
    return SamplingMask(bits.astype(np.uint8))
