"""Analytic reverse-mode gradients through the unrolled network.

The squared-error loss over a batch is

    E = (1/B) sum_s || xbar_s - f(z_s) ||^2,

so the output error is dE/dout = (2/B)(out - xbar).  Errors pass backwards
through each layer's activation (identity on the primal block, the 0/1
diagonal of the clip on the dual block) and through the adjoint of the layer
matrix.  With e = (e1, e2) the error at the pre-activations, u = (u1, u2)
the layer input, w = A* z, and V = w - A*A u1 - L* u2, the per-layer
parameter gradients reduce to inner products and masked outer products:

    dE/dtau   = < e1 + 2 sigma L* e2 , V >
    dE/dsigma = < L* e2 , u1 + 2 tau V >
    dE/dL     = e2 (sigma (u1 + 2 tau V))^T  +  u2 (-tau (e1 + 2 sigma L* e2))^T

and the error reaching the layer input is

    dE/du1 = e1 + sigma L* e2 - tau A*A (e1 + 2 sigma L* e2)
    dE/du2 = e2 - tau L (e1 + 2 sigma L* e2).

The last layer is the e2 = 0 case of the same formulas (its sigma is inert),
the first layer the u2 = 0 case.  The dual activation contributes nothing
through its direct sigma dependence (projection onto the l-inf ball).
Everything is arbitrated against central finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .network import LayerTrace, NetworkParams, forward
from .prox import prox_conj_l1_diag_jacobian


@dataclass
class Gradients:
    """Per-layer gradients; d_weights mirrors each layer's weight storage."""

    d_tau: np.ndarray
    d_sigma: np.ndarray
    d_weights: list = field(repr=False)

    def all_finite(self) -> bool:
        ok = np.all(np.isfinite(self.d_tau)) and np.all(np.isfinite(self.d_sigma))
        return bool(ok) and all(
            np.all(np.isfinite(g)) for gs in self.d_weights for g in gs
        )


def loss(params: NetworkParams, clean: np.ndarray, degraded: np.ndarray) -> float:
    """Mean squared reconstruction error over the batch."""
    clean = np.atleast_2d(np.asarray(clean, dtype=np.float64))
    degraded = np.atleast_2d(np.asarray(degraded, dtype=np.float64))
    if clean.shape[0] != degraded.shape[0]:
        raise ValueError("clean and degraded batches differ in length")
    if clean.shape[0] == 0:
        raise ValueError("batch must be nonempty")
    if clean.shape[1] != params.image_dim:
        raise ValueError(f"clean images must have length {params.image_dim}")
    out, _ = forward(params, degraded)
    diff = out - clean
    return float(np.vdot(diff, diff)) / clean.shape[0]


def backward(params: NetworkParams, clean: np.ndarray,
             trace: LayerTrace) -> Gradients:
    """Gradients of the batch loss for every tau, sigma, and unmasked weight.

    ``trace`` must come from ``forward(params, degraded, keep_trace=True)``
    on the same batch that produced ``clean``.
    """
    if trace is None:
        raise ValueError("backward needs the trace kept by the forward pass")
    clean = np.atleast_2d(np.asarray(clean, dtype=np.float64))
    depth = params.depth
    a_op = params.degradation
    batch = clean.shape[0]
    if trace.xs[-1].shape != clean.shape:
        raise ValueError("trace and clean batch shapes disagree")

    d_tau = np.zeros(depth)
    d_sigma = np.zeros(depth)
    d_weights = [lp.analysis.grad_zeros() for lp in params.layers]

    gx = (2.0 / batch) * (trace.xs[-1] - clean)
    gy = None
    for k in range(depth - 1, -1, -1):
        lp = params.layers[k]
        l_op = lp.analysis
        x_in, y_in = trace.xs[k], trace.ys[k]
        v = trace.vs[k]
        e1 = gx
        if gy is None:  # last layer: identity activation, no dual row
            e2 = None
            lt_e2 = 0.0
        else:
            e2 = gy * prox_conj_l1_diag_jacobian(trace.c_duals[k])
            lt_e2 = l_op.apply_adjoint(e2)
        s2 = e1 if e2 is None else e1 + (2.0 * lp.sigma) * lt_e2
        d_tau[k] = float(np.vdot(s2, v))
        if e2 is not None:
            d_sigma[k] = float(np.vdot(lt_e2, x_in + 2.0 * lp.tau * v))
            l_op.grad_outer(d_weights[k], e2, lp.sigma * (x_in + 2.0 * lp.tau * v), 1.0)
        if k > 0:
            l_op.grad_outer(d_weights[k], y_in, s2, -lp.tau)
            gx = (e1 if e2 is None else e1 + lp.sigma * lt_e2) - lp.tau * a_op.gram(s2)
            gy = e2 - lp.tau * l_op.apply(s2) if e2 is not None \
                else -lp.tau * l_op.apply(s2)
    return Gradients(d_tau=d_tau, d_sigma=d_sigma, d_weights=d_weights)


def finite_diff_gradients(params: NetworkParams, clean: np.ndarray,
                          degraded: np.ndarray, epsilon: float = 1e-6) -> Gradients:
    """Central finite differences of the loss over every scalar parameter.

    Independent of :func:`backward`; masked weights are never perturbed and
    therefore report exactly zero.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    p = params.clone()

    def f() -> float:
        return loss(p, clean, degraded)

    depth = p.depth
    d_tau = np.zeros(depth)
    d_sigma = np.zeros(depth)
    d_weights = []
    for k, lp in enumerate(p.layers):
        base = lp.tau
        lp.tau = base + epsilon
        hi = f()
        lp.tau = base - epsilon
        lo = f()
        lp.tau = base
        d_tau[k] = (hi - lo) / (2.0 * epsilon)

        base = lp.sigma
        lp.sigma = base + epsilon
        hi = f()
        lp.sigma = base - epsilon
        lo = f()
        lp.sigma = base
        d_sigma[k] = (hi - lo) / (2.0 * epsilon)

        grads = []
        for arr in lp.analysis.weight_arrays():
            g = np.zeros_like(arr)
            flat = arr.reshape(-1)
            gflat = g.reshape(-1)
            for i in range(flat.size):
                base = flat[i]
                flat[i] = base + epsilon
                hi = f()
                flat[i] = base - epsilon
                lo = f()
                flat[i] = base
                gflat[i] = (hi - lo) / (2.0 * epsilon)
            grads.append(g)
        lp.analysis.invalidate_norm()
        d_weights.append(grads)
    return Gradients(d_tau=d_tau, d_sigma=d_sigma, d_weights=d_weights)


def compare_gradients(analytic: Gradients, reference: Gradients,
                      rel_tol: float = 1e-5, abs_floor: float = 1e-8) -> dict:
    """Worst relative error per parameter group (relative to the reference,
    with an absolute floor for near-zero entries)."""

    def rel(a: np.ndarray, b: np.ndarray) -> float:
        a = np.asarray(a, dtype=np.float64).ravel()
        b = np.asarray(b, dtype=np.float64).ravel()
        denom = np.maximum(np.abs(b), abs_floor / rel_tol)
        return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0

    worst_w = 0.0
    for ga, gb in zip(analytic.d_weights, reference.d_weights):
        for a, b in zip(ga, gb):
            worst_w = max(worst_w, rel(a, b))
    return {
        "tau": rel(analytic.d_tau, reference.d_tau),
        "sigma": rel(analytic.d_sigma, reference.d_sigma),
        "weights": worst_w,
    }
