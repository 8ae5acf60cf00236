import base64
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from pdnet import network as net
from pdnet import operators as ops
from pdnet import pdhg
from pdnet.pdhg import prox_conj_l1
from pdnet.rng import Stream, derive

from helpers import nnz, to_dense


def _shared_params(a_op, depth, p=5, seed=77, mode="full"):
    """Standard-initialized params with the layer-0 values shared by all layers."""
    base = net.init_network(a_op, 1, [net.DenseSpec(p)], mode, seed=seed)
    lp = base.layers[0]
    return net.NetworkParams(
        a_op,
        [net.LayerParams(lp.tau, lp.sigma, lp.analysis.clone()) for _ in range(depth)],
        mode=mode,
    )


def test_init_tau_is_one_and_margin_zero():
    a = ops.UniformBlur(3, 6)
    params = net.init_network(a, 4, [net.DenseSpec(10)], "full", seed=3)
    for lp in params.layers:
        assert lp.tau == 1.0
        margin = pdhg.check_stepsizes(lp.tau, lp.sigma, a.cached_norm,
                                      lp.analysis.norm())
        assert abs(margin) <= 1e-9


def test_init_deterministic_models():
    a = ops.UniformBlur(3, 6)
    p1 = net.init_network(a, 3, [net.DenseSpec(8)], "full", seed=11)
    p2 = net.init_network(a, 3, [net.DenseSpec(8)], "full", seed=11)
    for l1, l2 in zip(p1.layers, p2.layers):
        assert l1.tau == l2.tau and l1.sigma == l2.sigma
        assert np.array_equal(to_dense(l1.analysis), to_dense(l2.analysis))


def test_init_layers_draw_different_weights():
    a = ops.UniformBlur(3, 6)
    p = net.init_network(a, 2, [net.DenseSpec(8)], "full", seed=11)
    assert not np.array_equal(to_dense(p.layers[0].analysis),
                              to_dense(p.layers[1].analysis))


def test_init_rejects_zero_stddev():
    a = ops.IdentityOperator(9)
    with pytest.raises(ValueError, match="stddev"):
        net.init_network(a, 2, [net.DenseSpec(4)], "full", seed=1, stddev=0.0)


@pytest.mark.parametrize("side", [4, 8])
@pytest.mark.parametrize("depth", [1, 2, 6])
def test_unrolled_equivalence(side, depth):
    a = ops.UniformBlur(3, side)
    params = _shared_params(a, depth, p=6, seed=13)
    z = Stream(derive(0xE0, side, depth)).uniform(side * side)[None] * 255
    out, _ = net.forward(params, z)
    lp = params.layers[0]
    x_hat = pdhg.pdhg_solve(a, lp.analysis, z, lp.tau, lp.sigma,
                            tol=0.0, max_iter=depth)[0]
    assert np.abs(out - x_hat).max() <= 1e-12


def test_forward_zero_analysis_is_gradient_descent():
    side = 4
    a = ops.UniformBlur(3, side)
    layers = [net.LayerParams(0.7, 0.3, ops.DenseAnalysis(np.zeros((3, 16))))
              for _ in range(2)]
    params = net.NetworkParams(a, layers, mode="full")
    z = Stream(21).uniform(16)[None] * 255
    out, _ = net.forward(params, z)
    x = a.apply_adjoint(z)
    for _ in range(2):
        x = x - 0.7 * (a.gram(x) - a.apply_adjoint(z))
    assert np.abs(out - x).max() <= 1e-10


def test_forward_zero_tau_returns_measurement():
    ident = ops.IdentityOperator(9)
    layers = [net.LayerParams(0.0, 0.5, ops.make_dense_analysis(4, 9, seed=2))
              for _ in range(3)]
    params = net.NetworkParams(ident, layers, mode="full")
    z = Stream(33).normal(9)[None] * 50
    out, _ = net.forward(params, z)
    assert np.array_equal(out, z)


def test_forward_batch_matches_single():
    a = ops.UniformBlur(3, 6)
    params = net.init_network(a, 3, [net.DenseSpec(7)], "full", seed=5)
    zb = Stream(8).uniform(4 * 36).reshape(4, 36) * 255
    batch_out, _ = net.forward(params, zb)
    for i in range(4):
        single, _ = net.forward(params, zb[i:i + 1])
        assert np.abs(batch_out[i] - single[0]).max() <= 1e-9 * 255


def test_trace_consistency():
    a = ops.UniformBlur(3, 6)
    params = net.init_network(a, 4, [net.DenseSpec(7)], "full", seed=5, stddev=0.5)
    zb = Stream(8).uniform(2 * 36).reshape(2, 36) * 255
    out, trace = net.forward(params, zb, keep_trace=True)
    assert np.array_equal(trace.xs[-1], out)
    for k in range(params.depth - 1):
        lp = params.layers[k]
        c = lp.sigma * lp.analysis.apply(2.0 * trace.xs[k + 1] - trace.xs[k]) + trace.ys[k]
        assert np.array_equal(trace.ys[k + 1], prox_conj_l1(c))
    # pre-activation primal equals stored next primal by construction;
    # dual activations replay exactly through the clip
    assert len(trace.ys) == params.depth
    assert len(trace.vs) == params.depth


def test_forward_without_trace_returns_none_and_the_same_output():
    a = ops.UniformBlur(3, 6)
    params = net.init_network(a, 4, [net.DenseSpec(7), net.BlockSpec(3, 3, 2, "fit")],
                              "full", seed=5, stddev=0.5)
    zb = Stream(8).uniform(2 * 36).reshape(2, 36) * 255
    plain, none = net.forward(params, zb)
    traced, trace = net.forward(params, zb, keep_trace=True)
    assert none is None and trace is not None
    assert np.array_equal(plain, traced)


def test_trace_holds_the_forward_residual_direction():
    a = ops.UniformBlur(3, 6)
    params = net.init_network(a, 4, [net.DenseSpec(7), net.BlockSpec(3, 3, 2, "fit")],
                              "full", seed=5, stddev=0.5)
    zb = Stream(8).uniform(2 * 36).reshape(2, 36) * 255
    _, trace = net.forward(params, zb, keep_trace=True)
    w = a.apply_adjoint(zb)
    for k, lp in enumerate(params.layers):
        expected = w - a.gram(trace.xs[k]) - lp.analysis.apply_adjoint(trace.ys[k])
        assert np.array_equal(trace.vs[k], expected)


def test_distance_report_zero_at_init_and_partial():
    a = ops.UniformBlur(3, 6)
    for mode in ("full", "partial"):
        params = net.init_network(a, 3, [net.DenseSpec(5)], mode, seed=9)
        assert np.all(net.distance_report(params) <= 1e-18)


def test_distance_report_after_doubling_sigma():
    a = ops.UniformBlur(3, 6)
    params = net.init_network(a, 3, [net.DenseSpec(5)], "full", seed=9)
    lp = params.layers[-1]
    sigma0 = lp.sigma
    lp.sigma = 2.0 * sigma0
    report = net.distance_report(params)
    norm_l = lp.analysis.norm()
    assert report[-1] == pytest.approx((sigma0 * norm_l**2) ** 2, rel=1e-6)
    assert np.all(report[:-1] <= 1e-18)


def _one_layer(sigma, scale):
    """tau = 1 and sigma over the identity degradation and ``scale`` * Id as L."""
    return net.NetworkParams(ops.IdentityOperator(4), [net.LayerParams(
        1.0, sigma, ops.make_scaled_identity_analysis(4, scale))], "full")


def test_distance_report_values():
    assert net.distance_report(_one_layer(0.1, 1.0))[0] == 0.0
    assert net.distance_report(_one_layer(1.0, 1.0))[0] == pytest.approx(0.25)


def test_distance_report_monotone_in_sigma():
    grid = np.linspace(0.0, 3.0, 50)
    vals = [net.distance_report(_one_layer(s, 1.2))[0] for s in grid]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_forward_cost_linear_in_nnz_and_depth():
    a = ops.UniformBlur(3, 12)
    z = Stream(4).uniform(144)[None] * 255

    def macs(depth, filters):
        params = net.init_network(
            a, depth, [net.BlockSpec(3, 3, filters, "fit")], "full", seed=2)
        ops.ANALYSIS_MACS.count = 0
        net.forward(params, z)
        count = ops.ANALYSIS_MACS.count
        ops.ANALYSIS_MACS.count = 0
        return count, nnz(params.layers[0].analysis)

    c1, nnz1 = macs(3, 2)
    c2, nnz2 = macs(3, 4)
    assert nnz2 == 2 * nnz1
    # K-1 apply+adjoint pairs plus the last layer's adjoint, less the first
    # layer's adjoint of the zero dual
    assert c1 == (2 * 3 - 2) * nnz1
    assert c2 == 2 * c1
    c3, _ = macs(6, 2)
    assert c3 == (2 * 6 - 2) * nnz1


@pytest.mark.parametrize("n", [1, 49, 99, 100, 150, 180, 600])
def test_row_pieces_are_array_split_cuts(n):
    cuts = np.array_split(np.arange(n), max(1, n // 50))
    assert [(s.start, s.stop) for s in net.row_pieces(n)] == \
        [(int(c[0]), int(c[-1]) + 1) for c in cuts]


_PIECE_BATCHES = [60, 99, 100, 180]


@pytest.mark.parametrize("batch", _PIECE_BATCHES)
@pytest.mark.parametrize("spec", [net.DenseSpec(100), net.BlockSpec(5, 2, 10, "fit")],
                         ids=["dense-blur", "block-blur"])
def test_untraced_forward_runs_in_pieces(monkeypatch, spec, batch):
    a = ops.UniformBlur(3, 28)
    params = net.init_network(a, 3, [spec], "full", seed=23, stddev=0.3)
    zb = Stream(derive(0x5B, batch)).uniform(batch * 784).reshape(batch, 784) * 255
    ops.ANALYSIS_MACS.count = 0
    traced, _ = net.forward(params, zb, keep_trace=True)
    whole = ops.ANALYSIS_MACS.count
    rows = []
    step = pdhg.pd_step
    monkeypatch.setattr(pdhg, "pd_step", lambda *args: rows.append(len(args[5])) or step(*args))
    ops.ANALYSIS_MACS.count = 0
    plain, trace = net.forward(params, zb)
    assert trace is None
    assert ops.ANALYSIS_MACS.count == whole
    ops.ANALYSIS_MACS.count = 0
    pieces = 1 if batch < 100 else batch // 50
    assert len(rows) == pieces * (params.depth - 1)
    assert all(50 <= r <= 99 for r in rows) and sum(rows) == batch * (params.depth - 1)
    assert np.abs(plain - traced).max() <= 1e-12 * np.abs(traced).max()


_BITWISE_PIECES = f"""
import numpy as np
from pdnet import network as net, operators as ops
from pdnet.rng import Stream, derive
a = ops.UniformBlur(3, 28)
params = net.init_network(a, 3, [net.DenseSpec(100)], "full", seed=23, stddev=0.3)
for batch in {_PIECE_BATCHES}:
    zb = Stream(derive(0x5B, batch)).uniform(batch * 784).reshape(batch, 784) * 255
    assert np.array_equal(net.forward(params, zb)[0],
                          net.forward(params, zb, keep_trace=True)[0]), batch
"""


def test_untraced_dense_blur_pieces_are_bitwise_on_one_blas_thread():
    # a multithreaded GEMM splits its rows by count, which can move last bits;
    # with one thread, as the benchmark runs, every row keeps its bits
    src = os.path.join(os.path.dirname(os.path.abspath(net.__file__)), os.pardir)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONPATH=os.path.abspath(src))
    done = subprocess.run([sys.executable, "-c", _BITWISE_PIECES], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _mixed_params():
    a = ops.UniformBlur(3, 6)
    specs = [net.DenseSpec(4), net.BlockSpec(3, 3, 2, "fit")]
    return net.init_network(a, 2, specs, "partial", seed=17)


def test_serialize_round_trip_bitwise(tmp_path):
    params = _mixed_params()
    p1 = os.path.join(tmp_path, "m1.json")
    p2 = os.path.join(tmp_path, "m2.json")
    net.serialize(params, p1)
    again = net.deserialize(p1)
    net.serialize(again, p2)
    with open(p1, "rb") as f1, open(p2, "rb") as f2:
        assert f1.read() == f2.read()
    for lp, lq in zip(params.layers, again.layers):
        assert lp.tau == lq.tau and lp.sigma == lq.sigma
        assert np.array_equal(to_dense(lp.analysis), to_dense(lq.analysis))
    assert again.mode == "partial"
    assert again.degradation.spec() == params.degradation.spec()


def _whole_document_bytes(params):
    """The model file as one json.dumps of the whole document."""
    doc = {
        "version": net.MODEL_VERSION,
        "degradation": params.degradation.spec(),
        "K": params.depth,
        "mode": params.mode,
        "g": net.MODEL_PENALTY,
        "layers": [{
            "tau": float(lp.tau),
            "sigma": float(lp.sigma),
            "parts": [{**net._part_record(part),
                       "weights": base64.b64encode(
                           part.weights.astype("<f8").tobytes()).decode()}
                      for part in lp.analysis.parts()],
        } for lp in params.layers],
    }
    return (json.dumps(doc, separators=(",", ":")) + "\n").encode("ascii")


@pytest.mark.parametrize("mode", ["full", "partial"])
@pytest.mark.parametrize("specs", [
    [net.DenseSpec(4)],
    [net.BlockSpec(3, 3, 2, "fit")],
    [net.DenseSpec(4), net.BlockSpec(3, 3, 2, "fit")],
], ids=["dense", "block-sparse", "fused"])
def test_serialize_writes_whole_document_bytes(tmp_path, specs, mode):
    params = net.init_network(ops.UniformBlur(3, 6), 3, specs, mode, seed=17)
    path = os.path.join(tmp_path, "m.json")
    net.serialize(params, path)
    with open(path, "rb") as f:
        assert f.read() == _whole_document_bytes(params)


def test_deserialize_block_sparse_draws_no_random_numbers(tmp_path, monkeypatch):
    params = net.init_network(ops.UniformBlur(3, 6), 2, [net.BlockSpec(3, 3, 2, "fit")],
                              "full", seed=17)
    path = os.path.join(tmp_path, "m.json")
    net.serialize(params, path)

    def refuse(*args, **kwargs):
        raise AssertionError("deserialize drew random numbers")

    monkeypatch.setattr(Stream, "normal", refuse)
    again = net.deserialize(path)
    for lp, lq in zip(params.layers, again.layers):
        assert np.array_equal(lp.analysis.weights, lq.analysis.weights)


@pytest.mark.parametrize("mode", ["full", "partial"])
@pytest.mark.parametrize("specs", [
    [net.DenseSpec(4)],
    [net.BlockSpec(3, 3, 2, "fit")],
    [net.DenseSpec(4), net.BlockSpec(3, 3, 2, "fit")],
], ids=["dense", "block-sparse", "fused"])
def test_deserialize_restores_weights_exactly(tmp_path, specs, mode):
    params = net.init_network(ops.UniformBlur(3, 6), 2, specs, mode, seed=17)
    extremes = [-0.0, 5e-324, -1.7976931348623157e308, 0.1, 1.0 / 3.0]
    for part in params.layers[0].analysis.parts():
        part.weights.flat[:len(extremes)] = extremes
    path = os.path.join(tmp_path, "m.json")
    net.serialize(params, path)
    again = net.deserialize(path)
    assert again.mode == mode
    for lp, lq in zip(params.layers, again.layers):
        for a, b in zip(lp.analysis.parts(), lq.analysis.parts()):
            wa, wb = a.weights, b.weights
            assert wb.dtype == np.float64 and wb.flags.writeable
            assert np.array_equal(wa, wb)
            assert np.array_equal(np.signbit(wa), np.signbit(wb))


def test_deserialize_rejects_bad_version(tmp_path):
    params = _mixed_params()
    path = os.path.join(tmp_path, "m.json")
    net.serialize(params, path)
    doc = open(path).read().replace('"version":"2"', '"version":"1"')
    open(path, "w").write(doc)
    with pytest.raises(net.ModelFormatError,
                       match=r"unsupported model version '1' \(expected '2'\)"):
        net.deserialize(path)


def test_deserialize_rejects_weight_count_off_by_one(tmp_path):
    params = _mixed_params()
    path = os.path.join(tmp_path, "m.json")
    net.serialize(params, path)
    doc = json.load(open(path))
    part = doc["layers"][0]["parts"][0]
    raw = base64.b64decode(part["weights"]) + np.zeros(1, "<f8").tobytes()
    part["weights"] = base64.b64encode(raw).decode()
    json.dump(doc, open(path, "w"))
    with pytest.raises(net.ModelFormatError, match="weights"):
        net.deserialize(path)


@pytest.mark.parametrize("index,edit,message", [
    (0, lambda text: "*" + text[1:], "dense part weights are not valid base64"),
    (1, lambda text: text[:-4], r"block part needs 72 weights \(576 bytes\), found 573"),
], ids=["dense-non-alphabet", "block-short"])
def test_deserialize_names_the_part_with_bad_weights(tmp_path, index, edit, message):
    path = os.path.join(tmp_path, "m.json")
    net.serialize(_mixed_params(), path)
    doc = json.load(open(path))
    part = doc["layers"][0]["parts"][index]
    part["weights"] = edit(part["weights"])
    json.dump(doc, open(path, "w"))
    with pytest.raises(net.ModelFormatError, match=message):
        net.deserialize(path)


def test_deserialize_rejects_unknown_fields(tmp_path):
    params = _mixed_params()
    path = os.path.join(tmp_path, "m.json")
    net.serialize(params, path)
    doc = json.load(open(path))
    doc["extra"] = 1
    json.dump(doc, open(path, "w"))
    with pytest.raises(net.ModelFormatError, match="unexpected"):
        net.deserialize(path)


def test_deserialize_rejects_garbage(tmp_path):
    path = os.path.join(tmp_path, "m.json")
    open(path, "w").write("not json {")
    with pytest.raises(net.ModelFormatError):
        net.deserialize(path)


def _paths(node, path=()):
    """(path, value) of every entry below a JSON document's root."""
    keys = node if isinstance(node, dict) else range(len(node))
    for key in keys:
        yield path + (key,), node[key]
        if isinstance(node[key], (dict, list)):
            yield from _paths(node[key], path + (key,))


_LEAF_VALUES = [None, True, -1, 1.5, "x", [], {}, math.nan]
_FLIP_CHARS = "AZaz09+/=\n -\u00e9"  # alphabet, padding, whitespace, outsiders


def _mutate_once(doc, stream):
    """Replace a leaf, edit a weights string, or delete an object key."""
    def pick(seq):
        return seq[int(stream.integers(1, len(seq))[0])]

    kind = pick(["leaf", "weights", "delete"])
    entries = list(_paths(doc))
    if kind == "leaf":
        paths = [p for p, v in entries if not isinstance(v, (dict, list))]
    elif kind == "weights":
        paths = [p for p, _ in entries if p[-1] == "weights"]
    else:
        paths = [p for p, _ in entries if isinstance(p[-1], str)]
    if not paths:  # an earlier edit removed every target of this kind
        return
    path = pick(paths)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if kind == "leaf":
        parent[path[-1]] = pick(_LEAF_VALUES)
    elif kind == "delete":
        del parent[path[-1]]
    elif isinstance(parent["weights"], str) and parent["weights"]:
        text = parent["weights"]
        at = pick(range(len(text)))
        parent["weights"] = pick([
            text[:at],                                    # truncate
            text + text[:at % 12 + 1],                    # extend
            text[:at] + pick(_FLIP_CHARS) + text[at + 1:],  # flip one character
        ])


def test_deserialize_fuzz_raises_only_model_format_errors(tmp_path):
    # seeded one- and two-field mutations of a fused model document: each
    # either loads or raises ModelFormatError, never another exception
    params = net.init_network(ops.UniformBlur(3, 6), 2,
                              [net.DenseSpec(4), net.BlockSpec(3, 3, 2, "fit")], "full", seed=5)
    path = os.path.join(tmp_path, "m.json")
    net.serialize(params, path)
    original = open(path).read()
    stream = Stream(derive(2024, 8))
    loaded = refused = 0
    for trial in range(1200):
        doc = json.loads(original)
        for _ in range(1 + trial % 2):
            _mutate_once(doc, stream)
        with open(path, "w") as f:
            json.dump(doc, f)
        try:
            net.deserialize(path)
            loaded += 1
        except net.ModelFormatError:
            refused += 1
    assert refused > loaded > 0


def test_network_validates_layer_dims():
    a = ops.IdentityOperator(9)
    good = net.LayerParams(1.0, 1.0, ops.make_dense_analysis(4, 9, seed=1))
    bad_n = net.LayerParams(1.0, 1.0, ops.make_dense_analysis(4, 8, seed=1))
    bad_p = net.LayerParams(1.0, 1.0, ops.make_dense_analysis(5, 9, seed=1))
    with pytest.raises(ValueError):
        net.NetworkParams(a, [good, bad_n], "full")
    with pytest.raises(ValueError):
        net.NetworkParams(a, [good, bad_p], "full")
    with pytest.raises(ValueError):
        net.NetworkParams(a, [], "full")
