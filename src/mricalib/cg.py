"""Conjugate gradient for Hermitian positive-definite systems.

Used for the proximal data-fidelity subproblem: given the denoised
estimate x_dot, solve

    (gamma AᴴA + I) x = gamma Aᴴy + x_dot

warm-started at x_dot.  The operator is well conditioned (eigenvalues in
[1, 1 + gamma * ||A||^2]) so a modest iteration budget suffices inside an
outer loop; callers that need oracle-grade accuracy pass a tighter config.

Each solve builds AᴴA once with forward.normal_operator, one path for
every mask (sub-column readout decoupling), within 1e-13 relative of
apply_adjoint(apply_forward(v)).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidArgumentError, NumericError
from .forward import ForwardOperator, apply_adjoint, normal_operator
from .settings import COUNT, POSITIVE, check_settings, setting


@dataclass(frozen=True)
class CGConfig:
    max_iters: int = setting(20, "CG iteration cap per solve", COUNT, flag="--cg-iters")
    tol: float = setting(1e-6, "relative residual at which CG stops", POSITIVE, flag="--cg-tol")

    def __post_init__(self):
        check_settings(self)


@dataclass
class CGResult:
    x: np.ndarray
    residual: float  # relative residual ||b - Op x|| / ||b||
    iters: int


def cg_solve(
    operator: Callable[[np.ndarray], np.ndarray],
    rhs: np.ndarray,
    x0: np.ndarray,
    cfg: CGConfig,
) -> CGResult:
    """Plain CG; raises NumericError on a non-HPD breakdown (pᴴOp p <= 0)."""
    rhs = np.asarray(rhs)
    b_norm = float(np.linalg.norm(rhs))
    if not np.isfinite(b_norm):
        raise NumericError("right-hand side contains non-finite values")
    if b_norm == 0.0:
        return CGResult(np.zeros_like(rhs), 0.0, 0)

    x = np.array(x0, copy=True)
    r = rhs - operator(x)
    p = r.copy()
    rs = float(np.real(np.vdot(r, r)))
    residual = np.sqrt(rs) / b_norm
    iters = 0
    while iters < cfg.max_iters and residual > cfg.tol:
        op_p = operator(p)
        p_op_p = float(np.real(np.vdot(p, op_p)))
        if p_op_p <= 0.0:
            raise NumericError(f"CG breakdown: pᴴOp(p) = {p_op_p:g}, operator not HPD")
        alpha = rs / p_op_p
        x = x + alpha * p
        r = r - alpha * op_p
        rs_new = float(np.real(np.vdot(r, r)))
        p = r + (rs_new / rs) * p
        rs = rs_new
        iters += 1
        residual = np.sqrt(rs) / b_norm
    return CGResult(x, residual, iters)


def solve_p3(
    x_dot: np.ndarray,
    y: np.ndarray,
    op: ForwardOperator,
    gamma: float,
    cfg: CGConfig,
) -> CGResult:
    """Proximal data-fidelity solve (gamma AᴴA + I) x = gamma Aᴴy + x_dot.

    gamma = 0 short-circuits to the proximity-only answer x_dot.  CG
    non-convergence is not an error: the best iterate and its residual
    are returned for the caller to record.
    """
    if gamma < 0:
        raise InvalidArgumentError("gamma must be >= 0")
    x_dot = np.asarray(x_dot, dtype=np.complex128)
    if gamma == 0:
        return CGResult(x_dot.copy(), 0.0, 0)

    rhs = gamma * apply_adjoint(y, op) + x_dot
    gram = normal_operator(op)  # after rhs: its buffers and apply_adjoint's temporaries never coexist

    def normal_op(v: np.ndarray) -> np.ndarray:
        return gamma * gram(v) + v

    return cg_solve(normal_op, rhs, x_dot, cfg)
