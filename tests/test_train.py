import weakref

import numpy as np
import pytest

from pdnet import backprop as bp
from pdnet import network as net
from pdnet import operators as ops
from pdnet import training as tr
from pdnet.data import degrade_set
from pdnet.pdhg import check_stepsizes
from pdnet.rng import Stream, derive

from helpers import grad_zeros, mask_dense, synthetic_strokes, to_dense


SIDE = 8
N = SIDE * SIDE


def tiny_setup(mode="full", depth=2, p=6, n_train=24, n_val=8, seed=101):
    a_op = ops.UniformBlur(3, SIDE)
    clean = synthetic_strokes(n_train + n_val, side=SIDE, seed=derive(seed, 1))
    ds = degrade_set(clean, a_op, 10.0, derive(seed, 2))
    params = net.init_network(a_op, depth, [net.DenseSpec(p)], mode,
                              seed=derive(seed, 3))
    return (params, ds.clean[:n_train], ds.degraded[:n_train],
            ds.clean[n_train:], ds.degraded[n_train:])


def zero_grads(params):
    return bp.Gradients(
        d_tau=np.zeros(params.depth),
        d_sigma=np.zeros(params.depth),
        d_weights=[grad_zeros(lp.analysis) for lp in params.layers],
    )


def test_sgd_zero_gradients_leave_params_unchanged():
    params, *_ = tiny_setup()
    taus = [lp.tau for lp in params.layers]
    weights = [to_dense(lp.analysis) for lp in params.layers]
    tr.sgd_step(params, zero_grads(params), 0.1)
    assert [lp.tau for lp in params.layers] == taus
    for lp, w in zip(params.layers, weights):
        assert np.array_equal(to_dense(lp.analysis), w)


def test_sgd_gamma_zero_is_identity_update():
    params, xtr, ztr, *_ = tiny_setup()
    out, trace = net.forward(params, ztr[:4], keep_trace=True)
    grads = bp.backward(params, xtr[:4], trace)
    before = [to_dense(lp.analysis) for lp in params.layers]
    tr.sgd_step(params, grads, 0.0)
    for lp, w in zip(params.layers, before):
        assert np.array_equal(to_dense(lp.analysis), w)


def test_sgd_positivity_clamp():
    params, xtr, ztr, *_ = tiny_setup()
    grads = zero_grads(params)
    grads.d_tau[:] = 1e12
    grads.d_sigma[:] = 1e12
    tr.sgd_step(params, grads, 1.0)
    for lp in params.layers:
        assert lp.tau == 1e-8
        assert lp.sigma == 1e-8


def test_sgd_rejects_non_finite():
    params, *_ = tiny_setup()
    grads = zero_grads(params)
    grads.d_tau[0] = np.nan
    with pytest.raises(tr.NonFiniteGradientError):
        tr.sgd_step(params, grads, 0.1)


def test_partial_mode_margin_zero_after_steps():
    params, xtr, ztr, *_ = tiny_setup(mode="partial")
    norm_a = params.degradation.cached_norm
    for t in range(5):
        out, trace = net.forward(params, ztr[4 * t:4 * t + 4], keep_trace=True)
        grads = bp.backward(params, xtr[4 * t:4 * t + 4], trace)
        tr.sgd_step(params, grads, 1e-8)
        for lp in params.layers:
            margin = check_stepsizes(lp.tau, lp.sigma, norm_a, lp.analysis.norm())
            assert abs(margin) <= 1e-9


@pytest.mark.parametrize("specs", [
    [net.DenseSpec(6)],
    [net.BlockSpec(3, 2, 2, "fit")],
    [net.DenseSpec(6), net.BlockSpec(3, 2, 2, "fit")],
], ids=["dense", "block", "fused"])
def test_partial_margin_nonnegative_against_svd(specs):
    # sigma saturates against an upper bound on ||L||, so the margin against
    # the true norm is >= 0 at init and after every partial step
    a_op = ops.UniformBlur(3, SIDE)
    clean = synthetic_strokes(16, side=SIDE, seed=derive(0x5BD, 1))
    ds = degrade_set(clean, a_op, 10.0, derive(0x5BD, 2))
    params = net.init_network(a_op, 2, specs, "partial", seed=derive(0x5BD, 3))
    norm_a = a_op.cached_norm

    def margins():
        return [check_stepsizes(lp.tau, lp.sigma, norm_a,
                                np.linalg.svd(to_dense(lp.analysis), compute_uv=False)[0])
                for lp in params.layers]

    assert min(margins()) >= 0.0
    for t in range(4):
        out, trace = net.forward(params, ds.degraded[4 * t:4 * t + 4], keep_trace=True)
        grads = bp.backward(params, ds.clean[4 * t:4 * t + 4], trace)
        tr.sgd_step(params, grads, 1e-6)
        assert min(margins()) >= 0.0


def test_mask_invariance_under_training():
    a_op = ops.UniformBlur(3, SIDE)
    params = net.init_network(a_op, 2, [net.BlockSpec(3, 3, 2, "fit")], "full", seed=5)
    masks = [mask_dense(lp.analysis) for lp in params.layers]
    clean = synthetic_strokes(16, side=SIDE, seed=1)
    ds = degrade_set(clean, a_op, 10.0, 2)
    tr.train(params, ds.clean[:12], ds.degraded[:12], ds.clean[12:],
             ds.degraded[12:],
             gamma=1e-8, batch_size=4, max_iter=12, seed=3,
             val_cadence=100, lr_decay_every=None, lr_decay_factor=0.5)
    for lp, mask in zip(params.layers, masks):
        assert not to_dense(lp.analysis)[mask == 0].any()


def test_history_iteration_zero_is_initial_loss():
    params, xtr, ztr, xv, zv = tiny_setup()
    init = params.clone()
    result = tr.train(params, xtr, ztr, xv, zv,
                      gamma=1e-9, batch_size=8, max_iter=6, seed=7,
                      val_cadence=2, lr_decay_every=None, lr_decay_factor=0.5)
    first = result.history.records[0]
    assert first["iter"] == 0
    # loss at iteration 0 equals the initialized network's loss on that batch
    order = Stream(derive(7, 0xBA7C4)).permutation(xtr.shape[0])
    idx = order[:8]
    assert first["loss"] == pytest.approx(bp.loss(init, xtr[idx], ztr[idx]), rel=1e-12)


def test_training_determinism_byte_identical(tmp_path):
    outputs = []
    for run in range(2):
        params, xtr, ztr, xv, zv = tiny_setup(seed=55)
        result = tr.train(params, xtr, ztr, xv, zv,
                          gamma=1e-9, batch_size=6, max_iter=10, seed=9,
                          val_cadence=5, lr_decay_every=None, lr_decay_factor=0.5)
        model = tmp_path / f"model_{run}.json"
        hist = tmp_path / f"history_{run}.csv"
        net.serialize(result.final_params, str(model))
        result.history.to_csv(str(hist))
        outputs.append((model.read_bytes(), hist.read_bytes()))
    assert outputs[0] == outputs[1]


def test_best_checkpoint_tracks_val_psnr():
    params, xtr, ztr, xv, zv = tiny_setup()
    result = tr.train(params, xtr, ztr, xv, zv,
                      gamma=1e-9, batch_size=8, max_iter=8, seed=3,
                      val_cadence=2, lr_decay_every=None, lr_decay_factor=0.5)
    best_logged = max(r["val_psnr"] for r in result.history.records)
    assert result.best_psnr == pytest.approx(best_logged)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_guard_aborts():
    params, xtr, ztr, xv, zv = tiny_setup()
    with pytest.raises((tr.TrainingDivergedError, tr.NonFiniteGradientError)):
        tr.train(params, xtr, ztr, xv, zv,
                 gamma=1e2, batch_size=8, max_iter=400, seed=3,
                 val_cadence=100, lr_decay_every=None, lr_decay_factor=0.5)


def test_lr_decay_applies():
    params, xtr, ztr, xv, zv = tiny_setup()
    result = tr.train(params, xtr, ztr, xv, zv,  # smoke: no blowup
                      gamma=1e-9, batch_size=8, max_iter=4, seed=3,
                      val_cadence=2, lr_decay_every=2, lr_decay_factor=0.5)
    assert result.history.losses.shape == (4,)


def test_lr_decay_schedule(monkeypatch):
    params, xtr, ztr, xv, zv = tiny_setup()
    gammas = []
    real_step = tr.sgd_step

    def recording_step(params, grads, gamma):
        gammas.append(gamma)
        real_step(params, grads, gamma)

    monkeypatch.setattr(tr, "sgd_step", recording_step)
    g = 1e-9
    tr.train(params, xtr, ztr, xv, zv,
             gamma=g, batch_size=8, max_iter=5, seed=3,
             val_cadence=2, lr_decay_every=2, lr_decay_factor=0.5)
    assert gammas == [g, g, g / 2, g / 2, g / 4]


def test_history_csv_layout(tmp_path):
    params, xtr, ztr, xv, zv = tiny_setup(depth=3)
    result = tr.train(params, xtr, ztr, xv, zv,
                      gamma=1e-9, batch_size=8, max_iter=4, seed=3,
                      val_cadence=2, lr_decay_every=None, lr_decay_factor=0.5)
    path = tmp_path / "h.csv"
    result.history.to_csv(str(path))
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "iter,loss,val_psnr,val_ssim,dc_layer_1,dc_layer_2,dc_layer_3"
    assert len(lines) == 1 + len(result.history.records)
    assert lines[1].split(",")[0] == "0"


def test_train_releases_each_iterations_arrays(monkeypatch):
    # the trace of one iteration is dead before the next traced forward, and
    # its gradients before the next backward: neither peak holds two
    params, xtr, ztr, xv, zv = tiny_setup(depth=3)
    traces, grads = [], []
    real_forward, real_backward = tr.forward, tr.backward

    def forward(params, z, keep_trace=False):
        if keep_trace:
            assert all(ref() is None for ref in traces)
        out, trace = real_forward(params, z, keep_trace)
        if keep_trace:
            traces.append(weakref.ref(trace))
        return out, trace

    def backward(*args):
        assert all(ref() is None for ref in grads)
        g = real_backward(*args)
        grads.append(weakref.ref(g))
        return g

    monkeypatch.setattr(tr, "forward", forward)
    monkeypatch.setattr(tr, "backward", backward)
    tr.train(params, xtr, ztr, xv, zv, gamma=1e-9, batch_size=8, max_iter=4, seed=3,
             val_cadence=2, lr_decay_every=None, lr_decay_factor=0.5)
    assert len(traces) == len(grads) == 4
