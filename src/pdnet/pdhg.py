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
from dataclasses import dataclass

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
    """One measurement's solve: the restored image and how the solver stopped.

    ``objective`` is the objective at ``x_hat`` and ``previous_objective``
    at the iterate before it, so their gap shows how far the objective had
    settled.
    """
    x_hat: np.ndarray
    iterations: int
    final_residual: float
    objective: float
    previous_objective: float
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
    zero even when 1/tau is large and float spacing is coarse.  Raises
    ``ValueError`` when no positive sigma exists (1/tau <= ||A||^2/2) or when
    eight ulp steps still leave the margin negative.
    """
    slack = 1.0 / tau - norm_a**2 / 2.0
    if not slack > 0.0:
        raise ValueError(f"no positive sigma satisfies the step-size condition: "
                         f"1/tau - ||A||^2/2 = {slack:.6g} (tau {tau!r})")
    sigma = slack / norm_l**2
    for _ in range(9):  # the first estimate, then eight ulp steps below it
        if check_stepsizes(tau, sigma, norm_a, norm_l) >= 0.0:
            return sigma
        sigma = float(np.nextafter(sigma, 0.0))
    raise ValueError(f"sigma margin still negative after 8 ulp steps "
                     f"(tau {tau!r}, ||A|| {norm_a!r}, ||L|| {norm_l!r})")


def pd_primal(a_op: LinearOperator, l_op: AnalysisOperator, tau: float,
              w: np.ndarray, x: np.ndarray, y: np.ndarray,
              gram_x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x - tau (A*A x - A*z) - tau L* y, with A*A x precomputed.

    Returns (x_new, L* y) so a caller can reuse the adjoint product.
    """
    lt_y = l_op.apply_adjoint(y)
    return x - tau * (gram_x - w) - tau * lt_y, lt_y


def pd_step(a_op: LinearOperator, l_op: AnalysisOperator, tau: float, sigma: float,
            w: np.ndarray, x: np.ndarray, y: np.ndarray):
    """One full primal-dual iteration.

    Returns (x_new, y_new, c_dual, gram_x, lt_y) where c_dual is the dual
    pre-activation (before the clip), gram_x = A*A x and lt_y = L* y.
    """
    gram_x = a_op.gram(x)
    x_new, lt_y = pd_primal(a_op, l_op, tau, w, x, y, gram_x)
    c_dual = y + sigma * l_op.apply(2.0 * x_new - x)
    return x_new, prox_conj_l1(c_dual), c_dual, gram_x, lt_y


def objective(a_op: LinearOperator, l_op: AnalysisOperator, z: np.ndarray,
              x: np.ndarray) -> float:
    """0.5 ||A x - z||^2 + ||L x||_1."""
    r = a_op.apply(x) - z
    return 0.5 * float(np.vdot(r, r)) + float(np.abs(l_op.apply(x)).sum())


def _row_norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of ``v``.

    Each is the BLAS dot that ``np.linalg.norm`` takes of a single vector;
    ``np.linalg.norm(v, axis=1)`` sums in another order, and a last-ulp
    difference can move a row's stopping iteration.
    """
    return np.sqrt(np.matmul(v[:, None, :], v[:, :, None])[:, 0, 0])


def pdhg_solve(a_op: LinearOperator, l_op: AnalysisOperator, z: np.ndarray,
               steps: StepSizes, tol: float = 1e-5, max_iter: int = 10_000,
               warn_only: bool = False) -> SolveReport | list[SolveReport]:
    """Iterate to convergence from (A* z, 0), for one measurement or a batch.

    ``z`` is (M,), which returns one report, or (B, M), which returns a list
    of B reports.  Each row stops on its own once the relative primal change
    ||x+ - x|| / max(1, ||x||) drops below ``tol``; hitting ``max_iter``
    flags its report as not converged instead of raising.  A stopped row
    leaves the batch, and each row's report is the one a solve of that row
    alone gives, bit for bit.  A nonpositive step-size margin raises unless
    ``warn_only`` is set.
    """
    z = np.asarray(z, dtype=np.float64)
    if z.ndim not in (1, 2) or z.shape[-1] != a_op.out_dim:
        raise ValueError(f"measurement must be (M,) or (B, M) with M = {a_op.out_dim}")
    if l_op.in_dim != a_op.in_dim:
        raise ValueError("analysis and degradation operators disagree on N")
    max_iter = int(max_iter)
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    margin = check_stepsizes(steps.tau, steps.sigma, a_op.cached_norm, l_op.norm())
    if margin <= 0:
        msg = (f"step sizes violate the convergence condition "
               f"(margin {margin:.3e}); iterates may not converge")
        if warn_only:
            warnings.warn(msg)
        else:
            raise ValueError(msg)

    # 2-D even for one measurement: identical arithmetic to the unrolled network
    zs = z.reshape(-1, a_op.out_dim)
    w = a_op.apply_adjoint(zs)
    x = w
    y = np.zeros((len(zs), l_op.out_dim))
    x_hat = np.empty_like(w)
    reports: list[SolveReport | None] = [None] * len(zs)
    rows = np.arange(len(zs))  # the measurement each active row solves
    it = 0
    while len(rows):
        it += 1
        x_new, y = pd_step(a_op, l_op, steps.tau, steps.sigma, w, x, y)[:2]
        rel = _row_norms(x_new - x) / np.maximum(1.0, _row_norms(x))
        # the first primal update from x = A*z is stationary while y is still
        # zero, so the change test only starts once the dual has acted
        converged = (rel < tol) & (it >= 2)
        stop = converged | (it == max_iter)
        if stop.any():
            for r in np.flatnonzero(stop):
                i = rows[r]
                x_hat[i] = x_new[r]
                reports[i] = SolveReport(
                    x_hat=x_hat[i],
                    iterations=it,
                    final_residual=float(rel[r]),
                    objective=objective(a_op, l_op, zs[i], x_new[r]),
                    previous_objective=objective(a_op, l_op, zs[i], x[r]),
                    converged=bool(converged[r]),
                )
            keep = ~stop
            rows, x_new, y, w = rows[keep], x_new[keep], y[keep], w[keep]
        x = x_new
    return reports[0] if z.ndim == 1 else reports
