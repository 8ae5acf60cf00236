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

from dataclasses import dataclass

import numpy as np

from .operators import AnalysisOperator, LinearOperator


@dataclass
class SolveReport:
    """One measurement's solve: the restored image and how the solver stopped."""
    x_hat: np.ndarray
    iterations: int
    final_residual: float
    converged: bool


def check_stepsizes(tau: float, sigma: float, norm_a: float, norm_l: float) -> float:
    """Margin 1/tau - sigma ||L||^2 - ||A||^2 / 2; positive iff convergent."""
    return 1.0 / tau - sigma * norm_l**2 - norm_a**2 / 2.0


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


def prox_conj_l1(v: np.ndarray) -> np.ndarray:
    """Prox of the conjugate of the l1 norm, for any step sigma > 0:
    componentwise clip to [-1, 1] (projection onto the l-inf ball)."""
    return np.clip(np.asarray(v, dtype=np.float64), -1.0, 1.0)


def pd_primal(a_op: LinearOperator, l_op: AnalysisOperator, tau: float,
              w: np.ndarray, x: np.ndarray, y: np.ndarray | None,
              work: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x - tau (A*A x - A*z) - tau L* y.

    Returns (x_new, V) with V = w - A*A x - L* y, formed in the buffer of the
    new array ``a_op.gram(x)``.  ``work`` is scratch of x's shape.  ``y``
    None is the zero dual of the first iteration: L* y is then not formed.
    """
    v = a_op.gram(x)
    np.subtract(w, v, out=v)
    x_new = np.multiply(v, tau)  # x + tau (w - A*A x) rounds as x - tau (A*A x - w)
    x_new += x
    if y is not None:
        lt_y = l_op.apply_adjoint(y)
        x_new -= np.multiply(lt_y, tau, out=work)
        v -= lt_y
    return x_new, v


def pd_step(a_op: LinearOperator, l_op: AnalysisOperator, tau: float, sigma: float,
            w: np.ndarray, x: np.ndarray, y: np.ndarray | None, work: np.ndarray):
    """One full primal-dual iteration.

    Returns (x_new, y_new, V): y_new = clip(y + sigma L (2 x_new - x)), inside
    (-1, 1) where the clip is inactive, and V = w - A*A x - L* y.  ``y`` None
    is the zero dual: the step then takes one L product, not two.  ``work``
    is scratch of x's shape; a caller reuses it across iterations.
    """
    x_new, v = pd_primal(a_op, l_op, tau, w, x, y, work)
    np.multiply(x_new, 2.0, out=work)
    work -= x
    c = l_op.apply(work)
    c *= sigma
    if y is not None:
        c += y
    return x_new, prox_conj_l1(c), v


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
               tau: float, sigma: float, tol: float,
               max_iter: int) -> SolveReport | list[SolveReport]:
    """Iterate to convergence from (A* z, 0), for one measurement or a batch.

    ``z`` is (M,), which returns one report, or (B, M), which returns a list
    of B reports.  Each row stops on its own once the relative primal change
    ||x+ - x|| / max(1, ||x||) drops below ``tol``; hitting ``max_iter``
    flags its report as not converged instead of raising.  A stopped row
    leaves the batch.  With first differences or lambda * Id (CSR products)
    or block-sparse parts (per-window GEMMs through ``_window_matmul``) as
    ``l_op``, each row's report is the one a solve of that row alone gives,
    bit for bit.  A ``DenseAnalysis`` part does not keep that, since BLAS
    rounds a dense product's rows differently with the batch's row count;
    there each row's ``x_hat`` is within ``tol * max(1, ||x_hat||)`` of a
    solo solve's in the Euclidean norm.
    Step sizes must be positive and finite.  As in ``network.forward``, the
    step-size margin is not checked: ``pdnet solve`` refuses steps that break it.
    """
    z = np.asarray(z, dtype=np.float64)
    if z.ndim not in (1, 2) or z.shape[-1] != a_op.out_dim:
        raise ValueError(f"measurement must be (M,) or (B, M) with M = {a_op.out_dim}")
    if l_op.in_dim != a_op.in_dim:
        raise ValueError("analysis and degradation operators disagree on N")
    max_iter = int(max_iter)
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    if not (0 < tau < np.inf and 0 < sigma < np.inf):  # NaN fails too
        raise ValueError(f"step sizes must be positive and finite: {tau!r}, {sigma!r}")

    # 2-D even for one measurement: identical arithmetic to the unrolled network
    zs = z.reshape(-1, a_op.out_dim)
    w = a_op.apply_adjoint(zs)
    x = w
    y = None  # the zero dual
    work = np.empty_like(w)
    x_hat = np.empty_like(w)
    reports: list[SolveReport | None] = [None] * len(zs)
    rows = np.arange(len(zs))  # the measurement each active row solves
    it = 0
    while len(rows):
        it += 1
        x_new, y = pd_step(a_op, l_op, tau, sigma, w, x, y, work[:len(rows)])[:2]
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
                    converged=bool(converged[r]),
                )
            keep = ~stop
            rows, x_new, y, w = rows[keep], x_new[keep], y[keep], w[keep]
        x = x_new
    return reports[0] if z.ndim == 1 else reports
