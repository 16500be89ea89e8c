"""Conjugate gradient for Hermitian positive-definite systems.

Used for the proximal data-fidelity subproblem: given the denoised
estimate x_dot, solve

    (gamma AᴴA + I) x = gamma Aᴴy + x_dot

warm-started at x_dot.  The operator is well conditioned (eigenvalues in
[1, 1 + gamma * ||A||^2]) so a modest iteration budget suffices inside an
outer loop; callers that need oracle-grade accuracy pass a tighter config.

The caller passes Aᴴy, computed once per measurement set.  solve_p3
solves at one weight; solve_p3_family solves at several weights from one
multi-shift CG sequence (Jegerlehner, hep-lat/9612014): the largest weight
runs plain CG, and every other weight follows on a shifted system that
shares its Krylov space, with no AᴴA application of its own.  Each member
stops at its own tolerance.  A family of one weight is solve_p3, and
solve_p3 is plain CG, operation for operation.  Each solve or family
builds AᴴA once with forward.normal_operator, one path for every mask
(sub-column readout decoupling), within 1e-13 relative of Aᴴ(A v).

One iteration does one AᴴA application (scaled by the weight, plus v, in
the Gram output's own buffer), two inner products, and in-place updates
of the seed's and each running follower's vectors in buffers allocated
once per sequence.  The scalar recurrences (zeta, alpha, beta, residuals,
stop tests) run in Python floats; a member that stops keeps its buffer as
its result and leaves the others' untouched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidArgumentError, NumericError
from .forward import ForwardOperator, normal_operator
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


@dataclass(eq=False, slots=True)
class _Follower:
    """A shifted system still running: its iterate and direction buffers and its recurrence."""

    index: int  # position in the result list
    shift: float
    b_norm: float
    x: np.ndarray
    p: np.ndarray
    zeta: float = 1.0  # residual factor against the seed's, this and the previous iteration
    zeta_old: float = 1.0
    residual: float = 0.0


def _shifted_cg(
    operator: Callable[[np.ndarray], np.ndarray],
    rhs: np.ndarray,
    x0: np.ndarray,
    cfg: CGConfig,
    shifts: Sequence[float] = (),
) -> list[CGResult]:
    """CG on Op x = rhs from x0, and on (Op + s I) x = rhs + s x0 for each shift s >= 0.

    Every system starts at x0 with the residual rhs - Op x0, so one Krylov
    sequence serves them all: a follower's residual is zeta times the
    seed's, and its zeta, alpha and beta follow from the seed's
    coefficients (Jegerlehner, hep-lat/9612014) with no operator
    application of its own.  Each system stops at its own cfg.tol relative
    to its own right-hand side; the sequence runs until all have stopped
    or cfg.max_iters is reached.  Returns the seed's result, then one per
    shift.  With no shifts this is plain CG, operation for operation.

    Each system's iterate and direction are updated in place in buffers
    allocated once; a stopped system's iterate buffer becomes its result.
    """
    rhs = np.asarray(rhs)
    b_norms = [float(np.linalg.norm(rhs))]
    for s in shifts:
        with np.errstate(over="ignore"):
            b_norm = float(np.linalg.norm(rhs + s * x0))
        if np.isinf(b_norm) and s > 1:  # a huge shift's sum may pass the float range: scale it
            b_norm = s * float(np.linalg.norm(rhs / s + x0))
        b_norms.append(b_norm)
    if not np.all(np.isfinite(b_norms)):
        raise NumericError("right-hand side contains non-finite values")
    results = [CGResult(np.zeros_like(rhs), 0.0, 0) if b == 0.0 else None for b in b_norms]
    if None not in results:
        return results

    x = np.array(x0, copy=True)
    r = rhs - operator(x)
    x = x.astype(np.result_type(x, r), copy=False)  # the dtype the first update gives x
    p = r.copy()
    scratch = np.empty_like(r)
    rs = float(np.real(np.vdot(r, r)))
    seed_norm = b_norms[0] or 1.0  # a settled seed's residual only tests rs for finiteness
    root = math.sqrt(rs)
    residual = root / seed_norm
    iters = 0
    followers = [_Follower(j, shifts[j - 1], b_norms[j], x.copy(), r.copy())
                 for j in range(1, len(results)) if results[j] is None]
    alpha_old, beta_old = 1.0, 0.0

    while True:
        if not math.isfinite(residual):
            raise NumericError(f"CG residual is not finite after {iters} iterations")
        if results[0] is None and residual <= cfg.tol:
            results[0] = CGResult(x, residual, iters)
        for f in followers:
            f.residual = abs(f.zeta) * root / f.b_norm
            if not math.isfinite(f.residual):
                raise NumericError(f"CG residual is not finite after {iters} iterations")
            if f.residual <= cfg.tol:
                results[f.index] = CGResult(f.x, f.residual, iters)
        followers = [f for f in followers if results[f.index] is None]
        if iters >= cfg.max_iters or (results[0] is not None and not followers):
            break

        op_p = operator(p)
        p_op_p = float(np.real(np.vdot(p, op_p)))
        if not p_op_p > 0.0:  # NaN fails too
            raise NumericError(f"CG breakdown: pᴴOp(p) = {p_op_p:g}, operator not HPD")
        alpha = rs / p_op_p
        if results[0] is None:
            x += np.multiply(alpha, p, out=scratch)
        r -= np.multiply(alpha, op_p, out=scratch)
        rs_new = float(np.real(np.vdot(r, r)))
        beta = rs_new / rs
        np.add(r, np.multiply(beta, p, out=p), out=p)
        for f in followers:
            zeta_new = f.zeta * f.zeta_old * alpha_old / (
                alpha_old * f.zeta_old * (1 + alpha * f.shift) + alpha * beta_old * (f.zeta_old - f.zeta))
            ratio = zeta_new / f.zeta
            f.x += np.multiply(f.p, alpha * ratio, out=scratch)
            f.p *= beta * (ratio * ratio)
            f.p += np.multiply(r, zeta_new, out=scratch)
            f.zeta_old, f.zeta = f.zeta, zeta_new
        alpha_old, beta_old = alpha, beta
        rs = rs_new
        iters += 1
        root = math.sqrt(rs)
        residual = root / seed_norm
    for f in followers:  # capped at max_iters above tol
        results[f.index] = CGResult(f.x, f.residual, iters)
    if results[0] is None:
        results[0] = CGResult(x, residual, iters)
    return results


def cg_solve(
    operator: Callable[[np.ndarray], np.ndarray],
    rhs: np.ndarray,
    x0: np.ndarray,
    cfg: CGConfig,
) -> CGResult:
    """Plain CG; raises NumericError on a breakdown (pᴴOp p not > 0) or a non-finite residual."""
    return _shifted_cg(operator, rhs, x0, cfg)[0]


def solve_p3_family(
    x_dot: np.ndarray,
    x_adj: np.ndarray,
    op: ForwardOperator,
    gammas: Sequence[float],
    cfg: CGConfig,
) -> list[CGResult]:
    """solve_p3 at every weight in gammas from one CG sequence; one result per weight, in order.

    The largest weight g0 seeds CG on M0 = g0 AᴴA + I.  Every other weight g
    follows on M0 + (g0/g - 1) I with its right-hand side scaled by g0/g:
    the same solution and, from x_dot, the same initial residual as the
    seed's.  Each weight stops at its own cfg.tol and reports its own
    iterations and residual, in its own scaling.  A single weight runs
    solve_p3's arithmetic exactly; weight 0 returns x_dot, and equal
    weights share one result.
    """
    if not all(0 <= g < np.inf for g in gammas):
        raise InvalidArgumentError(f"gamma must be finite and >= 0, got {list(gammas)}")
    if np.shape(x_adj) != op.shape:
        raise InvalidArgumentError(f"adjoint image shape {np.shape(x_adj)} is not {op.shape}")
    if np.shape(x_dot) != op.shape:
        raise InvalidArgumentError(f"denoised image shape {np.shape(x_dot)} is not {op.shape}")
    x_dot = np.asarray(x_dot, dtype=np.complex128)
    solved = {0: CGResult(x_dot.copy(), 0.0, 0)} if 0 in gammas else {}
    weights = sorted({g for g in gammas if g > 0}, reverse=True)
    if weights:
        g0 = weights[0]
        rhs = g0 * x_adj + x_dot
        gram = normal_operator(op)

        def normal_op(v: np.ndarray) -> np.ndarray:
            out = gram(v)
            return np.add(np.multiply(g0, out, out=out), v, out=out)

        shifts = [g0 / g - 1 for g in weights[1:]]
        solved.update(zip(weights, _shifted_cg(normal_op, rhs, x_dot, cfg, shifts)))
    return [solved[g] for g in gammas]


def solve_p3(
    x_dot: np.ndarray,
    x_adj: np.ndarray,
    op: ForwardOperator,
    gamma: float,
    cfg: CGConfig,
) -> CGResult:
    """Proximal data-fidelity solve (gamma AᴴA + I) x = gamma x_adj + x_dot, x_adj = Aᴴy.

    gamma = 0 short-circuits to the proximity-only answer x_dot.  CG
    non-convergence is not an error: the best iterate and its residual
    are returned for the caller to record.
    """
    return solve_p3_family(x_dot, x_adj, op, (gamma,), cfg)[0]
