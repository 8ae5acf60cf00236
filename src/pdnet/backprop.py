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

import functools
from dataclasses import dataclass, field

import numpy as np

from .network import LayerTrace, NetworkParams, forward

# Largest relative error between analytic and finite-difference gradients
# that the gradient oracle accepts.
GRADIENT_TOL = 1e-5


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


def prox_conj_l1_diag_jacobian(c: np.ndarray) -> np.ndarray:
    """Diagonal Jacobian of the clip: 1 where |c| < 1, else 0 (ties, NaN); same at clip(c)."""
    c = np.asarray(c, dtype=np.float64)
    return (np.abs(c) < 1.0).astype(np.float64)


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
    on the same batch that produced ``clean``; it is only read.  The (B, N)
    temporaries live in workspaces allocated once per call and reused by
    every layer.  A layer's two weight-gradient terms are one product,
    ``[e2 | -tau u2]^T [sigma (u1 + 2 tau V) ; e1 + 2 sigma L* e2]`` with
    inner dimension 2B; the first and last layers have one term each.
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
    d_weights = [None] * depth
    # stacked operands of a layer's weight gradient [e2 | -tau y_in]^T [sigma x_ext ; s2];
    # left is column-major, so the left.T that grad_outer multiplies is contiguous
    left = np.empty((params.feature_dim, 2 * batch)).T
    right = np.empty((2 * batch, params.image_dim))
    e2, neg_tau_y = left[:batch], left[batch:]
    x_ext, s2 = right[:batch], right[batch:]

    gx = np.subtract(trace.xs[-1], clean, out=s2)  # the last layer's s2 is e1 = gx
    gx *= 2.0 / batch
    gy = None
    for k in range(depth - 1, -1, -1):
        lp = params.layers[k]
        l_op = lp.analysis
        v = trace.vs[k]
        dual = gy is not None  # the last layer has identity activation, no dual row
        if dual:
            np.multiply(gy, prox_conj_l1_diag_jacobian(trace.ys[k + 1]), out=e2)
            lt_e2 = l_op.apply_adjoint(e2)
            np.multiply(lt_e2, 2.0 * lp.sigma, out=s2)
            s2 += gx  # e1 + 2 sigma L* e2
        d_tau[k] = float(np.vdot(s2, v))
        if dual:
            np.multiply(v, 2.0 * lp.tau, out=x_ext)
            x_ext += trace.xs[k]  # u1 + 2 tau V
            d_sigma[k] = float(np.vdot(lt_e2, x_ext))
            x_ext *= lp.sigma
        if k > 0:
            np.multiply(trace.ys[k], -lp.tau, out=neg_tau_y)
        # one product over the stacked rows of whichever terms the layer has
        lo, hi = (0 if dual else batch), (2 * batch if k > 0 else batch)
        if lo < hi:
            d_weights[k] = l_op.grad_outer(left[lo:hi], right[lo:hi])
        else:  # a one-layer network: neither term
            d_weights[k] = [np.zeros_like(p.weights) for p in l_op.parts()]
        if k > 0:
            l_s2 = l_op.apply(s2)
            l_s2 *= lp.tau
            gy = np.subtract(e2, l_s2, out=l_s2) if dual else np.negative(l_s2, out=l_s2)
            tau_gram = a_op.gram(s2)
            tau_gram *= lp.tau
            if dual:
                lt_e2 *= lp.sigma
                gx += lt_e2  # e1 + sigma L* e2
            gx = np.subtract(gx, tau_gram, out=tau_gram)
    return Gradients(d_tau=d_tau, d_sigma=d_sigma, d_weights=d_weights)


def finite_diff_gradients(params: NetworkParams, clean: np.ndarray,
                          degraded: np.ndarray, epsilon: float) -> Gradients:
    """Central finite differences of the loss over every scalar parameter.

    Independent of :func:`backward`; masked weights are never perturbed and
    therefore report exactly zero.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    p = params.clone()

    def central(put, base) -> float:
        """(E(base + eps) - E(base - eps)) / (2 eps), where put(v) sets the
        parameter to v; put(base) restores it afterwards."""
        put(base + epsilon)
        hi = loss(p, clean, degraded)
        put(base - epsilon)
        lo = loss(p, clean, degraded)
        put(base)
        return (hi - lo) / (2.0 * epsilon)

    depth = p.depth
    d_tau = np.zeros(depth)
    d_sigma = np.zeros(depth)
    d_weights = []
    for k, lp in enumerate(p.layers):
        d_tau[k] = central(functools.partial(setattr, lp, "tau"), lp.tau)
        d_sigma[k] = central(functools.partial(setattr, lp, "sigma"), lp.sigma)
        grads = []
        for part in lp.analysis.parts():
            g = np.zeros_like(part.weights)
            flat = part.weights.reshape(-1)
            gflat = g.reshape(-1)
            for i in range(flat.size):
                gflat[i] = central(functools.partial(flat.__setitem__, i), flat[i])
            grads.append(g)
        lp.analysis.invalidate_norm()
        d_weights.append(grads)
    return Gradients(d_tau=d_tau, d_sigma=d_sigma, d_weights=d_weights)


def compare_gradients(analytic: Gradients, reference: Gradients) -> dict:
    """Worst relative error per parameter group (relative to the reference).

    Near-zero reference entries are floored at 1e-8 / GRADIENT_TOL, so an
    absolute error of 1e-8 still passes the :data:`GRADIENT_TOL` bound."""

    def rel(a: np.ndarray, b: np.ndarray) -> float:
        a = np.asarray(a, dtype=np.float64).ravel()
        b = np.asarray(b, dtype=np.float64).ravel()
        denom = np.maximum(np.abs(b), 1e-8 / GRADIENT_TOL)
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
