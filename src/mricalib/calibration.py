"""Self-supervised calibration of the score prior.

The sampled k-space locations are split into a reconstruction set and a
held-out set (a Gaussian-weighted pointwise draw, so both children are
2-D subsampling patterns).  The calibration objective scores a one-step
reconstruction (denoise + data-fidelity solve from the reconstruction set
only, starting from an iterate that has itself only seen the
reconstruction set) by its residual on the held-out set relative to the
held-out energy (the SSDU split of Yaman et al., MRM 2020).  This module
only scores and steps: `pipeline.reconstruct` issues every denoise and
solve of a step, the calibration's one-step reconstruction and its adjoint
solve included.  Being relative, the held-out term stays O(1) at every
noise level, so the quadratic pull toward the all-ones vector keeps the
calibrated network anchored to the pretrained one throughout the ladder.

The objective's exact gradient feeds one adaptive-moment step per
reverse step, always clamped to [0, 2].
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import InvalidArgumentError, NumericError
from .forward import ForwardOperator, SamplingMask, apply_adjoint, apply_forward
from .priors import clamp_delta
from .regularization import moment_step


@dataclass
class MaskPartition:
    lambda_bits: np.ndarray  # reconstruction set, (H, W) uint8
    gamma_bits: np.ndarray  # held-out set


def partition_mask(mask: SamplingMask, holdout_fraction: float, seed: int = 0) -> MaskPartition:
    """Split sampled entries into complementary reconstruction/held-out masks.

    Each sampled entry goes to the held-out set independently with
    probability proportional to a centered 2-D Gaussian density, scaled
    so the expected held-out count is holdout_fraction * sampled count.
    Retries with a fresh substream if either side comes up empty.
    """
    if not 0 < holdout_fraction < 1:
        raise InvalidArgumentError("holdout_fraction must lie in (0, 1)")
    bits = mask.bits
    rows, cols = np.nonzero(bits)
    if rows.size < 2:
        raise InvalidArgumentError("mask must contain at least two sampled entries")

    H, W = bits.shape
    dr = (rows - H // 2) / (H / 6.0)
    dc = (cols - W // 2) / (W / 6.0)
    dens = np.exp(-0.5 * (dr**2 + dc**2))
    prob = np.minimum(holdout_fraction * dens / dens.mean(), 1.0)

    for attempt in range(8):
        rng = np.random.default_rng((seed, attempt))
        to_gamma = rng.random(rows.size) < prob
        if to_gamma.any() and not to_gamma.all():
            break
    else:
        raise NumericError("mask partition produced an empty side 8 times in a row")

    gamma_bits = np.zeros_like(bits)
    gamma_bits[rows[to_gamma], cols[to_gamma]] = 1
    lambda_bits = (bits & ~gamma_bits).astype(np.uint8)
    return MaskPartition(lambda_bits, gamma_bits)


def ssl_loss(x_hat: np.ndarray, y_gamma: np.ndarray,
             op_gamma: ForwardOperator) -> tuple[float, np.ndarray]:
    """Relative held-out k-space residual || y_held - A_held x_hat ||^2 / || y_held ||^2.

    Returns the value and its gradient with respect to x_hat in the real
    inner product Re<., .>, -2 A_heldᴴ (y_held - A_held x_hat) / || y_held ||^2.
    x_hat is the one-step reconstruction the caller built from the
    reconstruction set alone, so the held-out residual probes how well the
    calibrated prior generalizes.  A held-out set without energy leaves
    nothing to score and raises NumericError.
    """
    held_energy = float(np.real(np.vdot(y_gamma, y_gamma)))
    if not held_energy > 0:
        raise NumericError("held-out k-space has no energy to normalize the loss by")
    resid = y_gamma - apply_forward(x_hat, op_gamma)
    val = float(np.real(np.vdot(resid, resid))) / held_energy
    if not np.isfinite(val):
        raise NumericError("self-supervised loss evaluated to a non-finite value")
    return val, (-2.0 / held_energy) * apply_adjoint(resid, op_gamma)


def delta_penalty(delta: np.ndarray) -> float:
    """Quadratic anchor 0.5 * ||delta - 1||^2 (unit-Gaussian prior, constant dropped)."""
    d = np.asarray(delta, dtype=np.float64) - 1.0
    return 0.5 * float(d @ d)


@dataclass
class DeltaOptState:
    delta: np.ndarray
    iteration: int = 0
    loss_history: list[float] = field(default_factory=list)
    m: np.ndarray | None = None
    v: np.ndarray | None = None

    def __post_init__(self):
        self.delta = clamp_delta(self.delta)
        if self.m is None:
            self.m = np.zeros_like(self.delta)
        if self.v is None:
            self.v = np.zeros_like(self.delta)


def update_delta(
    state: DeltaOptState,
    objective: Callable[[np.ndarray], tuple[float, np.ndarray]],
    step_size: float,
) -> DeltaOptState:
    """One adaptive-moment step from the objective's (value, gradient); mutates and returns it."""
    value, grad = objective(state.delta)
    state.delta = clamp_delta(state.delta - moment_step(state, [value], grad, step_size, b1=0.9))
    return state
