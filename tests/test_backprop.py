import numpy as np
import pytest

from pdnet import backprop as bp
from pdnet import network as net
from pdnet import operators as ops
from pdnet.rng import Stream, derive

from helpers import degrade, dense_d_l, mask_dense


def small_instance(seed, depth=2, side=4, p=4, block=False, blur=True, batch=2):
    """Seeded small problem with partially saturated duals."""
    n = side * side
    a_op = ops.UniformBlur(3, side) if blur else ops.IdentityOperator(n)
    if block:
        # side 3 has one 2x2 window site at stride 2, side 4 has four
        sites = 1 if side == 3 else 4
        spec = [net.BlockSpec(2, 2, max(1, p // sites), "fit")]
    else:
        spec = [net.DenseSpec(p)]
    params = net.init_network(a_op, depth, spec, "full", seed=derive(seed, 1),
                              stddev=0.5)
    clean = (Stream(derive(seed, 2)).uniform(batch * n) * 8.0).reshape(batch, n)
    degraded = np.stack([
        degrade(clean[i], a_op, 0.5, derive(seed, 3, i)) for i in range(batch)
    ])
    return params, clean, degraded


def grad_pair(params, clean, degraded, eps=1e-6):
    out, trace = net.forward(params, degraded, keep_trace=True)
    analytic = bp.backward(params, clean, trace)
    reference = bp.finite_diff_gradients(params, clean, degraded, epsilon=eps)
    return analytic, reference


def test_loss_zero_when_output_matches():
    params, clean, degraded = small_instance(5)
    out, _ = net.forward(params, degraded)
    assert bp.loss(params, out, degraded) == 0.0


def test_loss_single_pixel_error():
    params, clean, degraded = small_instance(6, batch=1)
    out, _ = net.forward(params, degraded)
    target = out.copy()
    target[0, 3] += 0.25
    assert bp.loss(params, target, degraded) == pytest.approx(0.25**2, rel=1e-12)


def test_loss_invariant_to_batch_order():
    params, clean, degraded = small_instance(7, batch=4)
    perm = [2, 0, 3, 1]
    assert bp.loss(params, clean, degraded) == pytest.approx(
        bp.loss(params, clean[perm], degraded[perm]), rel=1e-14)


def test_zero_residual_batch_gives_zero_gradients():
    params, clean, degraded = small_instance(8)
    out, trace = net.forward(params, degraded, keep_trace=True)
    grads = bp.backward(params, out, trace)
    assert not grads.d_tau.any() and not grads.d_sigma.any()
    assert all(not g.any() for gs in grads.d_weights for g in gs)


def test_backward_requires_trace():
    params, clean, degraded = small_instance(9)
    with pytest.raises(ValueError):
        bp.backward(params, clean, None)


def test_gradient_oracle_20_instances():
    """Analytic vs central finite differences over dense/block, blur/identity."""
    worst = {"tau": 0.0, "sigma": 0.0, "weights": 0.0}
    configs = []
    for t in range(20):
        configs.append(dict(
            seed=derive(0xACE, t),
            depth=2 + t % 2,
            side=3 + t % 2,
            p=4 if t % 3 else 8,
            block=(t % 4 == 1),
            blur=(t % 3 != 2),
        ))
    for c in configs:
        params, clean, degraded = small_instance(**c)
        analytic, reference = grad_pair(params, clean, degraded)
        errs = bp.compare_gradients(analytic, reference)
        for k in worst:
            worst[k] = max(worst[k], errs[k])
    assert worst["tau"] <= 1e-5, worst
    assert worst["sigma"] <= 1e-5, worst
    assert worst["weights"] <= 1e-5, worst


def test_sigma_gradient_nonzero_when_duals_active():
    params, clean, degraded = small_instance(12, depth=3)
    out, trace = net.forward(params, degraded, keep_trace=True)
    inside = [float(np.mean(np.abs(y) < 1)) for y in trace.ys[1:]]
    assert any(f > 0.05 for f in inside), "fixture lost its active duals"
    grads = bp.backward(params, clean, trace)
    assert np.abs(grads.d_sigma[:-1]).max() > 0
    # the last layer's sigma never enters the forward computation
    assert grads.d_sigma[-1] == 0.0


def test_directional_derivative_single_weight():
    params, clean, degraded = small_instance(13)
    out, trace = net.forward(params, degraded, keep_trace=True)
    grads = bp.backward(params, clean, trace)
    arr = params.layers[0].analysis.weights
    g = grads.d_weights[0][0]
    i, j = 1, arr.shape[1] - 1
    base_loss = bp.loss(params, clean, degraded)
    results = []
    for delta in (1e-4, 5e-5):
        arr[i, j] += delta
        changed = bp.loss(params, clean, degraded)
        arr[i, j] -= delta
        results.append((changed - base_loss) / delta)
    # first-order term dominates, second-order shrinks linearly in delta
    assert results[1] == pytest.approx(g[i, j], rel=1e-3, abs=1e-10)
    err0 = abs(results[0] - g[i, j])
    err1 = abs(results[1] - g[i, j])
    assert err1 <= 0.75 * err0 + 1e-12


def test_finite_diff_richardson_consistency():
    params, clean, degraded = small_instance(14, depth=2)
    g1 = bp.finite_diff_gradients(params, clean, degraded, epsilon=1e-4)
    g2 = bp.finite_diff_gradients(params, clean, degraded, epsilon=2e-4)
    # central differences: error O(eps^2), so estimates agree closely
    diff = np.abs(g1.d_tau - g2.d_tau).max()
    scale = np.abs(g1.d_tau).max() + 1.0
    assert diff <= 1e-5 * scale


def test_masked_entries_never_perturbed_and_zero():
    params, clean, degraded = small_instance(15, block=True)
    analytic, reference = grad_pair(params, clean, degraded)
    for k in range(params.depth):
        mask = mask_dense(params.layers[k].analysis)
        dense_a = dense_d_l(analytic, params, k)
        dense_f = dense_d_l(reference, params, k)
        assert not dense_a[mask == 0].any()
        assert not dense_f[mask == 0].any()


def test_gradients_on_fused_operator():
    side, n = 4, 16
    a_op = ops.UniformBlur(3, side)
    params = net.init_network(
        a_op, 2, [net.DenseSpec(3), net.BlockSpec(2, 2, 1, "fit")], "full",
        seed=31, stddev=0.5)
    clean = (Stream(32).uniform(2 * n) * 8.0).reshape(2, n)
    degraded = np.stack([degrade(clean[i], a_op, 0.5, derive(33, i))
                         for i in range(2)])
    analytic, reference = grad_pair(params, clean, degraded)
    errs = bp.compare_gradients(analytic, reference)
    assert max(errs.values()) <= 1e-5


def test_gradcheck_on_decimation():
    side, n = 4, 16
    a_op = ops.Decimation(2, side)
    params = net.init_network(a_op, 2, [net.DenseSpec(4)], "full", seed=41,
                              stddev=0.5)
    clean = (Stream(42).uniform(2 * n) * 8.0).reshape(2, n)
    degraded = np.stack([a_op.apply(clean[i]) for i in range(2)])
    analytic, reference = grad_pair(params, clean, degraded)
    assert max(bp.compare_gradients(analytic, reference).values()) <= 1e-5


@pytest.mark.parametrize("depth", [1, 4])
def test_gradient_oracle_one_layer_and_four_layers(depth):
    # one layer has neither weight-gradient term, four have two middle layers
    params, clean, degraded = small_instance(18, depth=depth)
    analytic, reference = grad_pair(params, clean, degraded)
    assert max(bp.compare_gradients(analytic, reference).values()) <= 1e-5
    if depth == 1:
        assert all(not g.any() for g in analytic.d_weights[0])


@pytest.mark.parametrize("block", [False, True], ids=["dense", "block"])
def test_second_pass_leaves_first_trace_and_gradients_intact(block):
    """Workspaces belong to one call: nothing a pass returns aliases another's."""
    params, clean, degraded = small_instance(16, depth=3, block=block, batch=3)
    _, clean2, degraded2 = small_instance(17, depth=3, block=block, batch=3)
    _, trace = net.forward(params, degraded, keep_trace=True)
    grads = bp.backward(params, clean, trace)
    kept = [trace.xs, trace.ys, trace.vs,
            [grads.d_tau, grads.d_sigma], *grads.d_weights]
    arrays = [a for group in kept for a in group]
    before = [a.copy() for a in arrays]
    for i, a in enumerate(arrays):
        assert not any(np.shares_memory(a, b) for b in arrays[i + 1:])
    _, trace2 = net.forward(params, degraded2, keep_trace=True)
    grads2 = bp.backward(params, clean2, trace2)
    assert not np.array_equal(grads2.d_tau, grads.d_tau)
    assert all(np.array_equal(a, b) for a, b in zip(arrays, before))
