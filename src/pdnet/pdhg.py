"""Unsupervised primal-dual solver and step-size utilities.

Solves  min_x  0.5 ||A x - z||^2 + ||L x||_1  by the primal-dual hybrid
gradient scheme

    x+ = x - tau A*(A x - z) - tau L* y
    y+ = clip(y + sigma L (2 x+ - x), -1, 1)

starting from x = A* z, y = 0.  Convergence requires the step sizes to
satisfy  1/tau - sigma ||L||^2 > ||A||^2 / 2  strictly.

``pd_step`` is the shared iteration kernel: the unrolled network applies the
exact same arithmetic, so a K-layer forward pass with shared parameters
reproduces K solver iterations bit for bit.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .operators import AnalysisOperator, LinearOperator
from .prox import prox_conj_l1


@dataclass
class StepSizes:
    tau: float
    sigma: float

    def __post_init__(self):
        if not (np.isfinite(self.tau) and np.isfinite(self.sigma)):
            raise ValueError("step sizes must be finite")
        if self.tau <= 0 or self.sigma <= 0:
            raise ValueError("step sizes must be positive")


@dataclass
class SolveReport:
    x_hat: np.ndarray
    iterations: int
    final_residual: float
    objective_trace: np.ndarray = field(repr=False)
    converged: bool


def check_stepsizes(tau: float, sigma: float, norm_a: float, norm_l: float) -> float:
    """Margin 1/tau - sigma ||L||^2 - ||A||^2 / 2; positive iff convergent."""
    return 1.0 / tau - sigma * norm_l**2 - norm_a**2 / 2.0


def constraint_distance(tau: float, sigma: float, norm_a: float, norm_l: float) -> float:
    """Squared hinge of the step-size condition violation (0 when satisfied)."""
    return max(0.0, -check_stepsizes(tau, sigma, norm_a, norm_l)) ** 2


def saturating_sigma(tau: float, norm_a: float, norm_l: float) -> float:
    """Largest representable sigma whose step-size margin is nonnegative.

    Evaluates (1/tau - ||A||^2/2) / ||L||^2 and steps down by ulps until the
    margin arithmetic itself rounds to >= 0, so the hinge distance is exactly
    zero even when 1/tau is large and float spacing is coarse.
    """
    sigma = (1.0 / tau - norm_a**2 / 2.0) / norm_l**2
    for _ in range(8):
        if check_stepsizes(tau, sigma, norm_a, norm_l) >= 0.0:
            return sigma
        sigma = float(np.nextafter(sigma, 0.0))
    return sigma


def pd_primal(a_op: LinearOperator, l_op: AnalysisOperator, tau: float,
              w: np.ndarray, x: np.ndarray, y: np.ndarray,
              gram_x: np.ndarray) -> np.ndarray:
    """x - tau (A*A x - A*z) - tau L* y, with A*A x precomputed."""
    return x - tau * (gram_x - w) - tau * l_op.apply_adjoint(y)


def pd_step(a_op: LinearOperator, l_op: AnalysisOperator, tau: float, sigma: float,
            w: np.ndarray, x: np.ndarray, y: np.ndarray):
    """One full primal-dual iteration.

    Returns (x_new, y_new, c_dual, gram_x) where c_dual is the dual
    pre-activation (before the clip) and gram_x = A*A x.
    """
    gram_x = a_op.gram(x)
    x_new = pd_primal(a_op, l_op, tau, w, x, y, gram_x)
    c_dual = y + sigma * l_op.apply(2.0 * x_new - x)
    return x_new, prox_conj_l1(c_dual), c_dual, gram_x


def objective(a_op: LinearOperator, l_op: AnalysisOperator, z: np.ndarray,
              x: np.ndarray) -> float:
    """0.5 ||A x - z||^2 + ||L x||_1."""
    r = a_op.apply(x) - z
    return 0.5 * float(np.vdot(r, r)) + float(np.abs(l_op.apply(x)).sum())


def pdhg_solve(a_op: LinearOperator, l_op: AnalysisOperator, z: np.ndarray,
               steps: StepSizes, tol: float = 1e-5, max_iter: int = 10_000,
               warn_only: bool = False) -> SolveReport:
    """Iterate to convergence from (A* z, 0).

    Stops when the relative primal change ||x+ - x|| / max(1, ||x||) drops
    below ``tol``; hitting ``max_iter`` flags the report as not converged
    instead of raising.  A nonpositive step-size margin raises unless
    ``warn_only`` is set.
    """
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 1 or z.shape[0] != a_op.out_dim:
        raise ValueError(f"measurement must be a vector of length {a_op.out_dim}")
    if l_op.in_dim != a_op.in_dim:
        raise ValueError("analysis and degradation operators disagree on N")
    margin = check_stepsizes(steps.tau, steps.sigma, a_op.cached_norm, l_op.norm())
    if margin <= 0:
        msg = (f"step sizes violate the convergence condition "
               f"(margin {margin:.3e}); iterates may not converge")
        if warn_only:
            warnings.warn(msg)
        else:
            raise ValueError(msg)

    # batch-of-one 2-D shape: identical arithmetic to the unrolled network
    w = a_op.apply_adjoint(z[None, :])
    x = w
    y = np.zeros((1, l_op.out_dim))
    trace = [objective(a_op, l_op, z, x[0])]
    converged = False
    rel = np.inf
    it = 0
    for it in range(1, int(max_iter) + 1):
        x_new, y_new, _, _ = pd_step(a_op, l_op, steps.tau, steps.sigma, w, x, y)
        rel = float(np.linalg.norm(x_new - x) / max(1.0, np.linalg.norm(x)))
        x, y = x_new, y_new
        trace.append(objective(a_op, l_op, z, x[0]))
        # the first primal update from x = A*z is stationary while y is still
        # zero, so the change test only starts once the dual has acted
        if rel < tol and it >= 2:
            converged = True
            break
    return SolveReport(
        x_hat=x[0],
        iterations=it,
        final_residual=rel,
        objective_trace=np.asarray(trace),
        converged=converged,
    )
