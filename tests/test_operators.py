import json
import os
import subprocess
import sys

import numpy as np
import pytest

from pdnet import operators as ops
from pdnet.rng import Stream, derive

from helpers import (block_columns, first_difference_tables, grad_zeros, mask_dense, nnz,
                     reference_apply, reference_apply_adjoint, reference_grad_outer,
                     reference_window_gram, to_dense)


def rand(n, tag=0, scale=1.0):
    return Stream(derive(0xFACE, tag)).normal(n) * scale


# ---------------------------------------------------------------------------
# degradation operators
# ---------------------------------------------------------------------------


def test_blur_size_one_is_identity():
    a = ops.UniformBlur(1, 6)
    v = rand(36)
    assert np.allclose(a.apply(v), v, atol=1e-13)
    assert abs(a.cached_norm - 1.0) < 1e-12


def test_blur_constant_image_unchanged():
    a = ops.UniformBlur(3, 8)
    v = np.full(64, 7.0)
    assert np.abs(a.apply(v) - 7.0).max() < 1e-13


_ODD_SIZES_TO_64 = [(size, side) for side in range(1, 65) for size in range(1, side + 1, 2)]


@pytest.mark.parametrize("size, side", _ODD_SIZES_TO_64)
def test_blur_norm_is_one(size, side):
    # exact, not to the last ulp of a DFT: step-size margins rest on it
    assert ops.UniformBlur(size, side).cached_norm == 1.0


def _blur_matrix(size, side):
    """Dense periodic box blur: each pixel sums its size x size window,
    wrapped modulo side, with weight 1/size^2 per tap."""
    n = side * side
    rows = np.arange(n)
    i, j = np.divmod(rows, side)
    a = np.zeros((n, n))
    for di in range(-(size // 2), size // 2 + 1):
        for dj in range(-(size // 2), size // 2 + 1):
            a[rows, ((i + di) % side) * side + (j + dj) % side] += 1.0 / size**2
    return a


@pytest.mark.parametrize("size, side", [
    (size, side) for side in list(range(1, 13)) + [28] for size in range(1, side + 1, 2)
])
def test_blur_matches_dense_kernel_sum(size, side):
    op, a = ops.UniformBlur(size, side), _blur_matrix(size, side)
    x = Stream(derive(0xB1B, size, side)).normal(3 * side * side).reshape(3, -1)
    for got, want in ((op.apply(x), x @ a.T), (op.apply_adjoint(x), x @ a),
                      (op.gram(x), x @ a.T @ a), (op.gram(x[0]), a.T @ a @ x[0])):
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12


def test_blur_batch_rows_match_single_images_bitwise():
    # pdhg_solve drops finished rows from its batch and relies on this
    op = ops.UniformBlur(3, 28)
    x = rand(50 * 784, tag=9).reshape(50, 784)
    for f in (op.apply, op.apply_adjoint, op.gram):
        out = f(x)
        assert all(np.array_equal(out[b], f(x[b])) for b in range(50))


def test_blur_delta_spreads_uniformly_with_wrap():
    side = 8
    a = ops.UniformBlur(3, side)
    d = np.zeros(side * side)
    d[0] = 1.0  # corner: the window must wrap periodically
    out = a.apply(d).reshape(side, side)
    expect = np.zeros((side, side))
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            expect[di % side, dj % side] = 1.0 / 9.0
    assert np.abs(out - expect).max() < 1e-14


def test_blur_construction_errors():
    with pytest.raises(ValueError):
        ops.UniformBlur(4, 8)
    with pytest.raises(ValueError):
        ops.UniformBlur(9, 8)


def test_decimation_identity_when_factor_one():
    a = ops.Decimation(1, 4)
    v = rand(16)
    assert np.array_equal(a.apply(v), v)


def test_decimation_of_ones():
    a = ops.Decimation(2, 4)
    assert np.array_equal(a.apply(np.ones(16)), np.ones(4))


def test_decimation_adjoint_zero_fills():
    a = ops.Decimation(2, 4)
    up = a.apply_adjoint(np.ones(4)).reshape(4, 4)
    assert up.sum() == 4
    assert np.array_equal(up[::2, ::2], np.ones((2, 2)))
    assert up[1::2, :].sum() == 0


def test_decimation_requires_divisor():
    with pytest.raises(ValueError):
        ops.Decimation(3, 8)


def test_dimension_mismatch_raises():
    a = ops.UniformBlur(3, 4)
    with pytest.raises(ValueError):
        a.apply(np.ones(15))
    with pytest.raises(ValueError):
        a.apply_adjoint(np.ones(15))


# ---------------------------------------------------------------------------
# adjoint identity across every operator kind
# ---------------------------------------------------------------------------


def _adjoint_gap(op, tag):
    x = Stream(derive(0xAD, tag)).normal(op.in_dim)
    y = Stream(derive(0xAD, tag + 1)).normal(op.out_dim)
    lhs = float(np.dot(op.apply(x), y))
    rhs = float(np.dot(x, op.apply_adjoint(y)))
    scale = 1.0 + np.linalg.norm(x) * np.linalg.norm(y)
    return abs(lhs - rhs) / scale


@pytest.mark.parametrize("op", [
    ops.IdentityOperator(30),
    ops.UniformBlur(3, 8),
    ops.UniformBlur(5, 12),
    ops.Decimation(2, 8),
    ops.Decimation(4, 8),
    ops.make_dense_analysis(11, 25, seed=1),
    ops.make_block_sparse_analysis(3, 2, 4, 7, seed=2, site_rule="fit"),
    ops.make_first_difference(6),
    ops.make_scaled_identity_analysis(20, 2.5),
    ops.fuse_analysis([ops.make_dense_analysis(5, 36, seed=3),
                       ops.make_block_sparse_analysis(3, 3, 2, 6, seed=4, site_rule="fit")]),
], ids=["identity", "blur3", "blur5", "dec2", "dec4", "dense", "block",
        "firstdiff", "scaledid", "fused"])
def test_adjoint_identity_100_pairs(op):
    worst = max(_adjoint_gap(op, 2 * t) for t in range(100))
    assert worst <= 1e-12


# ---------------------------------------------------------------------------
# spectral norms
# ---------------------------------------------------------------------------


def test_norm_identity():
    assert ops.DenseAnalysis(np.eye(5)).norm() == pytest.approx(1.0, abs=1e-9)


def test_norm_diagonal():
    d = ops.DenseAnalysis(np.diag([3.0, 1.0]))
    assert d.norm() == pytest.approx(3.0, rel=1e-9)


def test_norm_matches_svd_on_small_matrices():
    for t in range(12):
        p = 3 + t % 6
        n = 2 + (t * 7) % 9
        w = Stream(derive(0x51D, t)).normal(p * n).reshape(p, n)
        op = ops.DenseAnalysis(w)
        svd = np.linalg.svd(w, compute_uv=False)[0]
        est = op.norm()
        assert abs(est - svd) <= 1e-6 * svd


def test_norm_matches_svd_random_6x4():
    w = Stream(0xBEEF).normal(24).reshape(6, 4)
    est = ops.DenseAnalysis(w).norm()
    assert est == pytest.approx(np.linalg.svd(w, compute_uv=False)[0], abs=1e-6)


def test_norm_of_blur_matches_cached():
    a = ops.UniformBlur(3, 12)
    matrix = ops.DenseAnalysis(a.apply(np.eye(a.in_dim)).T)
    assert matrix.norm() == pytest.approx(a.cached_norm, rel=1e-4)


def test_zero_operator_norm_is_zero():
    z = ops.DenseAnalysis(np.zeros((4, 9)))
    assert z.norm() == 0.0


@pytest.mark.parametrize("weight", [np.nan, 1e200])
def test_norm_stops_at_first_non_finite_estimate(weight):
    op = ops.DenseAnalysis(np.full((3, 4), weight))
    ops.ANALYSIS_MACS.count = 0
    with pytest.raises(ops.NonFiniteNormError, match="not finite"):
        op.norm()
    assert ops.ANALYSIS_MACS.count <= 2 * nnz(op)  # at most one product pair
    ops.ANALYSIS_MACS.count = 0


def _read_back(tmp_path):
    """Layer 1's L of a block-sparse network after a serialize/deserialize
    round trip, built while the written network (whose layout has built its
    Gram pattern) is still alive."""
    from pdnet import network as net

    params = net.init_network(ops.Decimation(2, 16), 2, [net.BlockSpec(5, 2, 10, "fit")],
                              "partial", seed=5)
    path = str(tmp_path / "m.json")
    net.serialize(params, path)
    return net.deserialize(path).layers[0].analysis


# builders of the operators under test, each given a scratch directory
_LANCZOS_CASES = {f"first-diff-{side}": lambda _, side=side: ops.make_first_difference(side)
                  for side in range(4, 29)}
_LANCZOS_CASES.update({
    f"scaled-identity-{lam:g}": lambda _, lam=lam: ops.make_scaled_identity_analysis(16, lam)
    for lam in (0.1, 1.0, 5.0)})
# window parts (F > 1): the bound runs on their explicit Gram
_LANCZOS_CASES.update({
    "window-f5s2n10-28": lambda _: ops.make_block_sparse_analysis(5, 2, 10, 28, seed=21,
                                                                  site_rule="fit"),
    "window-f3s2n2-8": lambda _: ops.make_block_sparse_analysis(3, 2, 2, 8, seed=22,
                                                                site_rule="fit"),
    "window-f5s2n10-12-interior": lambda _: ops.make_block_sparse_analysis(
        5, 2, 10, 12, seed=23, site_rule="interior"),
    "window-read-back": _read_back,
})


@pytest.mark.parametrize("build", _LANCZOS_CASES.values(), ids=_LANCZOS_CASES.keys())
def test_lanczos_norm_bound_is_at_most_1e7_above_svd(build, tmp_path):
    # first differences at an even side have a simple top eigenvalue, at an
    # odd side a four-fold one; both end the Krylov space early.  Each bound
    # is checked cold, then warm after a weight update of a tenth of the
    # weights' own scale
    op = build(tmp_path)
    svd = np.linalg.svd(to_dense(op), compute_uv=False)[0]
    assert svd <= op.norm() <= svd * (1 + 1e-7)
    w = op.weights
    op.update_weights([0.1 * np.abs(w).max() * Stream(24).normal(w.size).reshape(w.shape)], 1.0)
    svd = np.linalg.svd(to_dense(op), compute_uv=False)[0]
    assert svd <= op.norm() <= svd * (1 + 1e-7)


def _run_python(code: str, cwd=None) -> str:
    """Stdout of ``code`` run in a fresh interpreter that imports this pdnet."""
    src = os.path.join(os.path.dirname(os.path.abspath(ops.__file__)), os.pardir)
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_import_leaves_scipy_linalg_unloaded():
    # a norm route through scipy.linalg, or a top-level scipy.sparse import,
    # would add its import time and shared libraries to every command
    code = ("import sys, pdnet.cli; print([m for m in "
            "('scipy.linalg', 'scipy.sparse.linalg', 'scipy.sparse') if m in sys.modules])")
    assert _run_python(code) == "[]"


def test_dense_prior_commands_leave_scipy_sparse_unloaded(tmp_path):
    # only a masked part (block-sparse, first differences, lambda * Id)
    # needs scipy.sparse; degrade and a dense-prior train and eval do not
    cfg = {"task": "deblur", "seed": 7, "output_dir": "out",
           "degradation": {"kind": "uniform-blur", "size": 3, "alpha": 10.0},
           "data": {"source": "synthetic", "count": 20, "image_side": 8,
                    "train_frac": 0.6, "val_frac": 0.2},
           "network": {"K": 2, "mode": "full", "L": ["dense:6"]},
           "train": {"gamma": 1e-9, "batch_size": 4, "max_iter": 2, "val_cadence": 1}}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    code = ("import sys; from pdnet.cli import main\n"
            "for argv in (['degrade', '--output', 'data'], ['train'],\n"
            "             ['eval', '--model', 'out/model_final.json', '--beta', '2']):\n"
            "    assert main(argv[:1] + ['--config', 'cfg.json'] + argv[1:]) == 0, argv\n"
            "print('scipy.sparse' in sys.modules)")
    assert _run_python(code, cwd=tmp_path) == "False"


def test_masked_commands_leave_scipy_sparse_unloaded(tmp_path):
    # a masked part loads scipy's compiled kernels alone: neither solve prior
    # nor a block-sparse train and eval imports scipy.sparse, or scipy
    base = {"task": "deblur", "seed": 7, "output_dir": "out",
            "degradation": {"kind": "uniform-blur", "size": 3, "alpha": 10.0},
            "data": {"source": "synthetic", "count": 20, "image_side": 8,
                     "train_frac": 0.6, "val_frac": 0.2},
            "network": {"K": 2, "mode": "partial", "L": ["f3s2n2"]},
            "train": {"gamma": 1e-9, "batch_size": 4, "max_iter": 2, "val_cadence": 1}}
    for prior in ("first-diff", "identity"):
        cfg = dict(base, solve={"prior": prior, "lambda": 1.5, "max_iter": 50})
        (tmp_path / f"{prior}.json").write_text(json.dumps(cfg))
    code = ("import sys; from pdnet.cli import main\n"
            "for argv in (['degrade', '--config', 'first-diff.json', '--output', 'data'],\n"
            "             ['solve', '--config', 'first-diff.json'],\n"
            "             ['solve', '--config', 'identity.json'],\n"
            "             ['train', '--config', 'first-diff.json'],\n"
            "             ['eval', '--config', 'first-diff.json',\n"
            "              '--model', 'out/model_final.json', '--beta', '2']):\n"
            "    assert main(argv) == 0, argv\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert _run_python(code, cwd=tmp_path) == "['scipy.sparse._sparsetools']"


@pytest.mark.parametrize("first", ["pdnet", "scipy.sparse"])
def test_sparse_kernels_are_one_module_in_either_import_order(first):
    # pdnet's kernel-only load registers the module under its own name, so
    # scipy.sparse imported after it uses the same one, and pdnet imported
    # after scipy.sparse takes scipy's: the products keep the bits of ``@``
    build = ("from pdnet import operators as ops\n"
             "parts = [ops.make_first_difference(9, 1.5),\n"
             "         ops.make_scaled_identity_analysis(81, 0.7),\n"
             "         ops.make_block_sparse_analysis(3, 2, 1, 9, seed=5, site_rule='fit')]\n")
    load = "import numpy as np, scipy.sparse as sp\nfrom scipy.sparse import _compressed\n"
    code = ("import sys\n" + (build + load if first == "pdnet" else load + build) +
            "kernels = sys.modules['scipy.sparse._sparsetools']\n"
            "assert _compressed._sparsetools is kernels\n"
            "v = np.linspace(-1.0, 1.0, 3 * 81).reshape(3, 81) ** 3\n"
            "for op in parts:\n"
            "    assert op._layout.kernels is kernels\n"
            "    csr = sp.csr_matrix((op.weights.ravel(), *op._layout.csr_pattern),\n"
            "                        shape=(op.out_dim, op.in_dim))\n"
            "    w = op.apply(v)\n"
            "    assert np.array_equal(w, (csr @ v.T).T)\n"
            "    assert np.array_equal(op.apply_adjoint(w), (csr.T @ w.T).T)\n"
            "print('ok')")
    assert _run_python(code) == "ok"


def test_warm_commands_take_no_minor_faults(tmp_path):
    # with glibc's default thresholds each step's 150-300 KB temporaries are
    # mapped and page-faulted afresh; main's pinned thresholds keep them in
    # the heap, so a command's second run in one process faults next to never
    ctypes = pytest.importorskip("ctypes")
    try:
        ctypes.CDLL(None).mallopt
    except (AttributeError, TypeError):
        pytest.skip("libc has no mallopt")
    cfg = {"task": "deblur", "seed": 7, "output_dir": "out",
           "degradation": {"kind": "uniform-blur", "size": 3, "alpha": 10.0},
           "data": {"source": "synthetic", "count": 40, "image_side": 28,
                    "train_frac": 0.2, "val_frac": 0.2},
           "network": {"K": 3, "mode": "full", "L": ["dense:20"]},
           "train": {"gamma": 1e-9, "batch_size": 8, "max_iter": 2, "val_cadence": 2},
           "solve": {"prior": "first-diff", "lambda": 1.5}}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    code = ("import resource; from pdnet.cli import main\n"
            "def faults(argv):\n"
            "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "    assert main(argv[:1] + ['--config', 'cfg.json'] + argv[1:]) == 0, argv\n"
            "    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before\n"
            "assert main(['train', '--config', 'cfg.json']) == 0\n"
            "for argv in (['eval', '--model', 'out/model_final.json', '--beta', '2'],\n"
            "             ['solve']):\n"
            "    print(argv[0], [faults(argv) for _ in range(2)][1])")
    counts = dict(line.split() for line in _run_python(code, cwd=tmp_path).splitlines())
    assert {name: int(count) < 200 for name, count in counts.items()} == {
        "eval": True, "solve": True}, counts


def test_analysis_norm_cache_invalidated_by_update():
    op = ops.make_dense_analysis(6, 10, seed=9)
    before = op.norm()
    op.update_weights([np.ones((6, 10))], 0.5)
    after = op.norm()
    assert after != before
    assert after == pytest.approx(
        np.linalg.svd(to_dense(op), compute_uv=False)[0], rel=1e-8)


# ---------------------------------------------------------------------------
# dense analysis
# ---------------------------------------------------------------------------


def test_dense_seed_determinism():
    a = ops.make_dense_analysis(7, 13, seed=42)
    b = ops.make_dense_analysis(7, 13, seed=42)
    assert np.array_equal(to_dense(a), to_dense(b))


def test_dense_zero_stddev_gives_zero_matrix():
    assert not to_dense(ops.make_dense_analysis(3, 4, seed=1, stddev=0.0)).any()


def test_dense_entry_statistics():
    w = to_dense(ops.make_dense_analysis(1000, 1000, seed=5, stddev=1e-2))
    assert abs(w.mean()) < 1e-4
    assert abs(w.std() - 1e-2) < 1e-4


def test_dense_row_sum_example():
    row = ops.DenseAnalysis(np.ones((1, 9)))
    assert row.apply(np.ones(9)) == pytest.approx([9.0])


# ---------------------------------------------------------------------------
# block-sparse analysis and the fQsSnF table
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("q,stride,rule,p,sparsity", [
    (28, 28, "fit", 10, 0.0),
    (14, 14, "fit", 40, 0.75),
    (14, 7, "fit", 90, 0.75),
    (9, 9, "fit", 90, 0.896683),
    (7, 7, "fit", 160, 0.9375),
    (5, 5, "fit", 250, 0.968112),
    (3, 3, "fit", 810, 0.988520),
    (9, 4, "interior", 160, 0.896683),
    (7, 3, "interior", 490, 0.9375),
    (5, 2, "interior", 1210, 0.968112),
])
def test_block_sparse_row_counts_28(q, stride, rule, p, sparsity):
    op = ops.make_block_sparse_analysis(q, stride, 10, 28, seed=1, site_rule=rule)
    assert op.out_dim == p
    assert 1.0 - q * q / 784.0 == pytest.approx(sparsity, abs=1e-4)


def test_block_sparse_window_shape():
    op = ops.make_block_sparse_analysis(3, 3, 2, 9, seed=8, site_rule="fit")
    mask = mask_dense(op)
    assert np.array_equal(mask.sum(axis=1), np.full(op.out_dim, 9.0))
    # first row's window sits at the top-left corner
    first = mask[0].reshape(9, 9)
    assert first[:3, :3].sum() == 9 and first.sum() == 9


def test_block_sparse_rejects_oversized_window():
    with pytest.raises(ValueError):
        ops.make_block_sparse_analysis(10, 1, 1, 8, seed=0, site_rule="fit")


def test_block_apply_matches_dense():
    op = ops.make_block_sparse_analysis(3, 2, 3, 6, seed=11, site_rule="fit")
    dense = to_dense(op)
    v = rand(36, tag=5)
    assert np.allclose(op.apply(v), dense @ v, atol=1e-12)
    w = rand(op.out_dim, tag=6)
    assert np.allclose(op.apply_adjoint(w), dense.T @ w, atol=1e-12)


def test_explicit_site_injection():
    sites = [(0, 0), (2, 3)]
    op = ops.block_sparse_analysis(3, 1, 4, 6, sites,
                                   Stream(2).normal(len(sites) * 4 * 9, std=ops.INIT_STDDEV))
    assert op.out_dim == 8
    assert op.block_spec["sites"] == [(0, 0), (2, 3)]


def _bitwise_equal(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("scale", [1.5, -0.7, 0.0])
@pytest.mark.parametrize("side", [2, 3, 4, 5, 6, 7, 8, 9, 27, 28])
def test_first_difference_tables_match_the_pixel_loop(side, scale):
    # bytewise, so the signbit of a zero scale's weights counts too
    op = ops.make_first_difference(side, scale=scale)
    cols, vals = first_difference_tables(side, scale)
    assert _bitwise_equal(op._layout.cols, cols)
    assert _bitwise_equal(op.weights, vals)


@pytest.mark.parametrize("q,stride,filters,side,rule", [
    (5, 2, 10, 28, "fit"), (9, 4, 10, 28, "interior"), (3, 2, 2, 8, "fit"),
    (28, 28, 10, 28, "fit")])
def test_block_columns_match_the_site_loop(q, stride, filters, side, rule):
    op = ops.make_block_sparse_analysis(q, stride, filters, side, seed=3, site_rule=rule)
    want = block_columns(q, filters, side, ops.block_sites(side, q, stride, rule))
    assert _bitwise_equal(op._layout.cols, want)


@pytest.mark.parametrize("bad", [(4, 0), (0, -1), (-2, 3)])
def test_out_of_bounds_site_is_named(bad):
    sites = [(0, 0), bad, (5, 5)]
    with pytest.raises(ValueError, match=rf"site \({bad[0]}, {bad[1]}\) puts a 3x3 window"):
        ops.block_sparse_analysis(3, 1, 2, 6, sites, np.ones(len(sites) * 2 * 9))


# ---------------------------------------------------------------------------
# fusion
# ---------------------------------------------------------------------------


def test_fusion_single_part_is_same_object():
    a = ops.make_dense_analysis(4, 9, seed=1)
    assert ops.fuse_analysis([a]) is a


def test_fusion_row_count_1800():
    parts = [
        ops.make_block_sparse_analysis(5, 2, 10, 28, seed=1, site_rule="interior"),
        ops.make_block_sparse_analysis(7, 3, 10, 28, seed=2, site_rule="interior"),
        ops.make_block_sparse_analysis(14, 7, 10, 28, seed=3, site_rule="fit"),
        ops.make_block_sparse_analysis(28, 28, 10, 28, seed=4, site_rule="fit"),
    ]
    assert [p.out_dim for p in parts] == [1210, 490, 90, 10]
    fused = ops.fuse_analysis(parts)
    assert fused.out_dim == 1800


def test_fusion_apply_is_concatenation():
    parts = [ops.make_dense_analysis(3, 16, seed=1),
             ops.make_block_sparse_analysis(2, 2, 2, 4, seed=2, site_rule="fit")]
    fused = ops.fuse_analysis(parts)
    v = rand(16, tag=9)
    expect = np.concatenate([p.apply(v) for p in parts])
    assert np.array_equal(fused.apply(v), expect)


def test_fusion_rejects_mismatched_n():
    with pytest.raises(ValueError):
        ops.fuse_analysis([ops.make_dense_analysis(2, 9, seed=1),
                           ops.make_dense_analysis(2, 16, seed=2)])


# ---------------------------------------------------------------------------
# masks and instrumentation
# ---------------------------------------------------------------------------


def test_mask_preserved_under_updates():
    op = ops.make_block_sparse_analysis(3, 3, 2, 6, seed=7, site_rule="fit")
    mask = mask_dense(op)
    for t in range(5):
        deltas = [Stream(derive(0x0DD, t)).normal(g.size).reshape(g.shape)
                  for g in grad_zeros(op)]
        op.update_weights(deltas, -0.1)
    assert not to_dense(op)[mask == 0].any()


def test_adjoint_follows_weight_updates():
    # integer weights and inputs: every sum is exact, so equality is exact
    op = ops.make_first_difference(6)
    w = np.arange(3 * op.out_dim, dtype=np.float64).reshape(3, op.out_dim) % 7 - 3
    op.apply_adjoint(w)
    op.update_weights([np.arange(nnz(op), dtype=np.float64).reshape(op.out_dim, 2) % 5], 1.0)
    assert np.array_equal(op.apply_adjoint(w), w @ to_dense(op))
    assert np.array_equal(op.apply_adjoint(w[0]), w[0] @ to_dense(op))


def test_grad_outer_matches_dense_masked_product():
    op = ops.make_block_sparse_analysis(3, 2, 2, 5, seed=3, site_rule="fit")
    b, p, n = 4, op.out_dim, op.in_dim
    left = Stream(1).normal(b * p).reshape(b, p)
    right = Stream(2).normal(b * n).reshape(b, n)
    (got,) = op.grad_outer(2.0 * left, right)
    dense = np.zeros((p, n))
    dense[mask_dense(op) == 1.0] = got.ravel()
    assert np.allclose(dense, 2.0 * (left.T @ right) * mask_dense(op), atol=1e-12)


# ---------------------------------------------------------------------------
# product oracle: dense matrices read off the column index and the weights
# ---------------------------------------------------------------------------


def _oracle(op):
    """The (P, N) matrix of ``op`` placed from each part's ``_layout.cols`` and
    weights, never from a product."""
    blocks = []
    for part in op.parts():
        w = part.weights
        if isinstance(part, ops.DenseAnalysis):
            blocks.append(w.copy())
            continue
        m = np.zeros((part.out_dim, part.in_dim))
        np.put_along_axis(m, part._layout.cols, w, axis=1)
        blocks.append(m)
    return np.vstack(blocks)


def _oracle_grad(op, left, right, coeff):
    """coeff * left^T right on each part's mask, in the layout of its weights."""
    full, out, row = coeff * (left.T @ right), [], 0
    for part in op.parts():
        rows = full[row:row + part.out_dim]
        row += part.out_dim
        out.append(rows.copy() if isinstance(part, ops.DenseAnalysis)
                   else np.take_along_axis(rows, part._layout.cols, axis=1))
    return out


def _close(got, want):
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


# (operator, rows per window F of each masked part)
_ORACLE_CASES = {
    "firstdiff": (lambda: ops.make_first_difference(6, scale=0.7), [1]),
    "scaledid": (lambda: ops.make_scaled_identity_analysis(30, 2.5), [1]),
    "block-f1": (lambda: ops.make_block_sparse_analysis(
        3, 2, 1, 7, seed=5, site_rule="fit"), [1]),
    "block-f2-fit": (lambda: ops.make_block_sparse_analysis(
        3, 2, 2, 8, seed=6, site_rule="fit"), [2]),
    "block-f10-interior": (lambda: ops.make_block_sparse_analysis(
        5, 2, 10, 12, seed=7, site_rule="interior"), [10]),
    "block-f10-fit": (lambda: ops.make_block_sparse_analysis(
        5, 2, 10, 12, seed=8, site_rule="fit"), [10]),
    # a repeated site makes a run of 2F rows; it still splits into windows of F
    "block-f2-injected": (lambda: ops.block_sparse_analysis(
        3, 1, 2, 7, [(0, 0), (0, 0), (2, 3), (4, 1)],
        Stream(9).normal(4 * 2 * 9, std=ops.INIT_STDDEV)), [2]),
    "fused-dense-block": (lambda: ops.fuse_analysis([
        ops.make_dense_analysis(6, 49, seed=10),
        ops.make_block_sparse_analysis(3, 2, 10, 7, seed=11, site_rule="fit")]), [10]),
}


@pytest.mark.parametrize("batch", [None, 1, 7, 60])
@pytest.mark.parametrize("case", list(_ORACLE_CASES))
def test_masked_products_match_oracle(case, batch):
    build, windows = _ORACLE_CASES[case]
    op = build()
    masked = [p for p in op.parts() if isinstance(p, ops.MaskedRowAnalysis)]
    assert [p._site_w.shape[1] for p in masked] == windows
    dense = _oracle(op)
    shape = () if batch is None else (batch,)
    x = Stream(derive(0x0AC, 1)).normal((batch or 1) * op.in_dim).reshape(shape + (op.in_dim,))
    y = Stream(derive(0x0AC, 2)).normal((batch or 1) * op.out_dim).reshape(shape + (op.out_dim,))
    _close(op.apply(x), x @ dense.T)
    _close(op.apply_adjoint(y), y @ dense)
    if batch is not None:
        grads = op.grad_outer(-0.3 * y, x)
        assert len(grads) == len(op.parts())
        for got, want in zip(grads, _oracle_grad(op, y, x, -0.3)):
            _close(got, want)


@pytest.mark.parametrize("case", list(_ORACLE_CASES))
def test_in_place_updates_reach_products_and_clones_are_independent(case):
    op = _ORACLE_CASES[case][0]()
    x = Stream(derive(0x0AD, 1)).normal(7 * op.in_dim).reshape(7, op.in_dim)
    y = Stream(derive(0x0AD, 2)).normal(7 * op.out_dim).reshape(7, op.out_dim)
    twin = op.clone()
    before = op.apply(x), op.apply_adjoint(y)
    deltas = [Stream(derive(0x0AD, 3, i)).normal(g.size).reshape(g.shape)
              for i, g in enumerate(grad_zeros(op))]
    op.update_weights([d.copy() for d in deltas], 0.5)  # update_weights consumes them
    dense = _oracle(op)
    _close(op.apply(x), x @ dense.T)
    _close(op.apply_adjoint(y), y @ dense)
    assert np.array_equal(twin.apply(x), before[0])
    assert np.array_equal(twin.apply_adjoint(y), before[1])
    twin.update_weights(deltas, -1.0)
    _close(op.apply(x), x @ dense.T)
    twin_dense = _oracle(twin)
    _close(twin.apply(x), x @ twin_dense.T)
    _close(twin.apply_adjoint(y), y @ twin_dense)
    # a write through each part's ``weights`` reaches both products, of a
    # batch and of a single vector
    for part in twin.parts():
        part.weights *= -2.0
    _close(twin.apply(x), x @ (-2.0 * twin_dense).T)
    _close(twin.apply_adjoint(y), y @ (-2.0 * twin_dense))
    _close(twin.apply(x[0]), x[0] @ (-2.0 * twin_dense).T)
    _close(twin.apply_adjoint(y[0]), y[0] @ (-2.0 * twin_dense))
    assert nnz(twin) == np.count_nonzero(mask_dense(twin))


def test_mac_counter_tracks_nnz_exactly():
    op = ops.make_block_sparse_analysis(3, 3, 2, 6, seed=7, site_rule="fit")
    ops.ANALYSIS_MACS.count = 0
    op.apply(np.zeros(36))
    assert ops.ANALYSIS_MACS.count == nnz(op)
    op.apply_adjoint(np.zeros((5, op.out_dim)))
    assert ops.ANALYSIS_MACS.count == nnz(op) + 5 * nnz(op)
    ops.ANALYSIS_MACS.count = 0


def test_gram_route_macs_per_norm_call_are_exact():
    # N = 25 < the Lanczos basis, so the Krylov space ends within one cycle
    op = ops.make_block_sparse_analysis(3, 2, 2, 5, seed=7, site_rule="fit")
    s, f, k = op._site_w.shape
    mask = mask_dense(op)
    gram_nnz = np.count_nonzero(mask.T @ mask)  # pixel pairs sharing a window
    for call in ("cold", "warm"):
        ops.ANALYSIS_MACS.count = 0
        op.norm()
        # the (S, k, k) blocks, their S k^2 assembly terms, one G v per step
        steps = op._norm_step + 1
        assert ops.ANALYSIS_MACS.count == s * f * k * k + s * k * k + steps * gram_nnz, call
        op.update_weights([np.full((op.out_dim, k), 1e-3)], 1.0)
    ops.ANALYSIS_MACS.count = 0


def test_window_layouts_are_shared_by_layers_clones_and_read_back_models(tmp_path):
    from pdnet import network as net

    params = net.init_network(ops.Decimation(2, 12), 3, [net.BlockSpec(3, 2, 2, "fit")],
                              "partial", seed=3)
    path = str(tmp_path / "m.json")
    net.serialize(params, path)
    analyses = [lp.analysis for lp in params.layers]
    analyses += [lp.analysis for lp in params.clone().layers]
    analyses += [lp.analysis for lp in net.deserialize(path).layers]
    assert len({id(op._layout) for op in analyses}) == 1
    assert len({id(op.weights) for op in analyses}) == len(analyses)


def test_first_difference_on_constant_is_zero():
    op = ops.make_first_difference(5, scale=2.0)
    assert not op.apply(np.full(25, 3.3)).any()
    assert op.out_dim == 50


@pytest.mark.parametrize("build", [lambda: ops.make_first_difference(9, 1.5),
                                   lambda: ops.make_scaled_identity_analysis(81, 0.7),
                                   lambda: ops.make_block_sparse_analysis(3, 2, 1, 9, seed=5,
                                                                          site_rule="fit")],
                         ids=["first-diff", "scaled-identity", "f3s2n1"])
@pytest.mark.parametrize("batch", [1, 2, 7, 50, 99])
def test_one_row_window_batches_match_scipy_products(build, batch):
    # every product of a one-row-window part runs scipy's private compiled
    # kernels directly: pinned here against scipy's public ``@`` on a CSR
    # matrix of the same arrays, for a batch and for each of its rows, as a
    # batch of one and as a single vector
    import scipy.sparse as sp

    op = build()
    assert op._layout.f == 1
    assert not any(sp.issparse(value) for value in [*vars(op).values(),
                                                     *vars(op._layout).values()])
    csr = sp.csr_matrix((op.weights.ravel(), *op._layout.csr_pattern),
                        shape=(op.out_dim, op.in_dim))
    v = Stream(derive(0xB7, batch)).normal(batch * op.in_dim).reshape(batch, -1)
    w = Stream(derive(0xB8, batch)).normal(batch * op.out_dim).reshape(batch, -1)
    lv, ltw = op.apply(v), op.apply_adjoint(w)
    assert np.array_equal(lv, (csr @ v.T).T)
    assert np.array_equal(ltw, (csr.T @ w.T).T)
    for b in range(batch):
        assert np.array_equal(lv[b], op.apply(v[b:b + 1])[0])
        assert np.array_equal(ltw[b], op.apply_adjoint(w[b:b + 1])[0])
        assert np.array_equal(op.apply(v[b]), csr @ v[b])
        assert np.array_equal(op.apply_adjoint(w[b]), csr.T @ w[b])


# F > 1 parts, each last in its operator: alone, on interior sites, and
# after a dense part as in a fused prior's Lanczos bound
_WINDOW_CASES = {
    "f3s2n2": lambda: ops.make_block_sparse_analysis(3, 2, 2, 12, seed=21,
                                                     site_rule="interior"),
    "f5s2n10": lambda: ops.make_block_sparse_analysis(5, 2, 10, 12, seed=22,
                                                      site_rule="interior"),
    "f3s1n3": lambda: ops.make_block_sparse_analysis(3, 1, 3, 10, seed=23,
                                                     site_rule="interior"),
    "fused-dense-f3s2n2": lambda: ops.fuse_analysis([
        ops.make_dense_analysis(6, 144, seed=24),
        ops.make_block_sparse_analysis(3, 2, 2, 12, seed=25, site_rule="interior")]),
}


@pytest.mark.parametrize("batch", [None, 1, 2, 7, 50])
@pytest.mark.parametrize("case", list(_WINDOW_CASES))
def test_window_scatter_and_gram_match_scipy_products(case, batch):
    # the F > 1 adjoint's scatter and the window Gram run scipy's private
    # compiled kernels on the layout's arrays: pinned here against scipy's
    # public ``@`` on the matrices they replace, for a batch and a vector
    import scipy.sparse as sp

    op = _WINDOW_CASES[case]()
    *dense, part = op.parts()
    layout, (s, f, k), n = part._layout, part._site_w.shape, op.in_dim
    assert f > 1
    shape = () if batch is None else (batch,)
    y = Stream(derive(0xB9, batch or 0)).normal((batch or 1) * op.out_dim)
    y = y.reshape(shape + (op.out_dim,))
    want = reference_apply_adjoint(part, y[..., -part.out_dim:])
    if dense:
        want = dense[0].apply_adjoint(y[..., :dense[0].out_dim]) + want
    assert np.array_equal(op.apply_adjoint(y), want)

    assembly, indices, indptr = reference_window_gram(layout)
    blocks = np.matmul(np.ascontiguousarray(part._site_w.transpose(0, 2, 1)), part._site_w)
    gram = sp.csr_matrix((assembly @ blocks.ravel(), indices, indptr), shape=(n, n))
    product, _ = part._lanczos_product()
    # G times a unit vector is a column of G's values, exactly
    assert np.array_equal(np.stack([product(e)[1] for e in np.eye(n)]), gram.toarray().T)
    for v in Stream(derive(0xBA, batch or 0)).normal((batch or 1) * n).reshape(-1, n):
        alpha, gv = product(v)
        assert np.array_equal(gv, gram @ v)
        assert alpha == float(np.dot(v, gram @ v))


# block-sparse parts with F > 1 whose products run in blocks of windows
_BLOCK_CASES = {
    "f5s2n10-fit-28": lambda: ops.make_block_sparse_analysis(5, 2, 10, 28, seed=41,
                                                             site_rule="fit"),
    "f3s2n2-fit-16": lambda: ops.make_block_sparse_analysis(3, 2, 2, 16, seed=42,
                                                            site_rule="fit"),
    "f3s1n3-interior-12": lambda: ops.make_block_sparse_analysis(3, 1, 3, 12, seed=43,
                                                                 site_rule="interior"),
    "f5s1n4-fit-13": lambda: ops.make_block_sparse_analysis(5, 1, 4, 13, seed=44,
                                                            site_rule="fit"),
}


@pytest.mark.parametrize("blocks", ["one", "two", "many"])
@pytest.mark.parametrize("batch", [None, 1, 2, 7, 50, 100])
@pytest.mark.parametrize("case", list(_BLOCK_CASES))
def test_blocked_products_match_one_stack_bitwise(case, batch, blocks, monkeypatch):
    # each window keeps its own GEMM and each pixel adds its slots in
    # ascending order, so the bits cannot depend on the block size
    part = _BLOCK_CASES[case]()
    (s, f, k), rows = part._site_w.shape, batch or 1
    windows = {"one": s, "two": s // 2 + 1, "many": 5}[blocks]
    assert blocks == "one" or s % windows  # a partial last block
    shape = () if batch is None else (batch,)
    x = Stream(derive(0xBC, rows, 1)).normal(rows * part.in_dim).reshape(shape + (-1,))
    y = Stream(derive(0xBC, rows, 2)).normal(rows * part.out_dim).reshape(shape + (-1,))
    monkeypatch.setattr(ops, "_BLOCK_DOUBLES", windows * k * rows)
    assert len(ops._window_blocks(s, k * rows)) == -(-s // windows)
    assert np.array_equal(part.apply(x), reference_apply(part, x))
    assert np.array_equal(part.apply_adjoint(y), reference_apply_adjoint(part, y))
    if batch is not None:
        left, right = y.reshape(rows, -1), x.reshape(rows, -1)
        assert np.array_equal(part.grad_outer(left, right)[0],
                              reference_grad_outer(part, left, right))


@pytest.mark.parametrize("case", list(_BLOCK_CASES))
def test_blocked_products_take_an_empty_batch(case):
    part = _BLOCK_CASES[case]()
    x, y = np.zeros((0, part.in_dim)), np.zeros((0, part.out_dim))
    assert part.apply(x).shape == y.shape
    assert part.apply_adjoint(y).shape == x.shape
    assert np.array_equal(part.grad_outer(y, x)[0], np.zeros_like(part.weights))


@pytest.mark.parametrize("blocks", [1, 2, 5])
def test_fused_products_and_bound_match_one_stack_bitwise(blocks, monkeypatch):
    # a fused operator's Lanczos bound multiplies single vectors by its block part
    def build():
        return ops.fuse_analysis([ops.make_dense_analysis(6, 196, seed=45),
                                  ops.make_block_sparse_analysis(3, 2, 2, 14, seed=46,
                                                                 site_rule="fit")])

    op = build()
    dense, part = op.parts()
    (s, f, k), n = part._site_w.shape, op.in_dim

    def budget(windows, rows):
        monkeypatch.setattr(ops, "_BLOCK_DOUBLES", windows * k * rows)

    x = Stream(derive(0xBD, 1)).normal(7 * n).reshape(7, n)
    y = Stream(derive(0xBD, 2)).normal(7 * op.out_dim).reshape(7, -1)
    budget(-(-s // blocks), 7)
    assert np.array_equal(op.apply(x), np.hstack([dense.apply(x), reference_apply(part, x)]))
    assert np.array_equal(op.apply_adjoint(y), dense.apply_adjoint(y[:, :6])
                          + reference_apply_adjoint(part, y[:, 6:]))
    assert np.array_equal(op.grad_outer(y, x)[1], reference_grad_outer(part, y[:, 6:], x))
    budget(-(-s // blocks), 1)
    assert np.array_equal(op.apply(x[0]), np.hstack([dense.apply(x[0]),
                                                     reference_apply(part, x[0])]))
    assert np.array_equal(op.apply_adjoint(y[0]), dense.apply_adjoint(y[0, :6])
                          + reference_apply_adjoint(part, y[0, 6:]))
    blocked = op.norm()
    budget(s, 1)
    assert build().norm() == blocked


def test_blocked_products_hold_one_block_of_gathered_inputs():
    # the heap peak of a product, above its result, is one block's gathered
    # inputs (at most 8 * _BLOCK_DOUBLES bytes) plus index views and numpy's
    # call overhead; a gather over all 144 windows took 2.88 MB for
    # grad_outer at R = 100 and 1.44 MB for apply and apply_adjoint at B = 50
    import tracemalloc

    part = ops.make_block_sparse_analysis(5, 2, 10, 28, seed=47, site_rule="fit")
    (s, f, k), slack = part._site_w.shape, 64 << 10
    x = Stream(derive(0xBE, 1)).normal(100 * part.in_dim).reshape(100, -1)
    y = Stream(derive(0xBE, 2)).normal(100 * part.out_dim).reshape(100, -1)
    calls = {"grad_outer R = 100": lambda: part.grad_outer(y, x)[0],
             "apply B = 50": lambda: part.apply(x[:50]),
             "apply_adjoint B = 50": lambda: part.apply_adjoint(y[:50])}
    assert len(ops._window_blocks(s, k * 50)) >= 3
    for name, call in calls.items():
        call()  # warm
        tracemalloc.start()
        try:
            result = call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - result.nbytes <= 8 * ops._BLOCK_DOUBLES + slack, name


def test_masked_parts_build_no_scipy_matrix(monkeypatch):
    # every masked product, scatter and window Gram calls scipy's compiled
    # kernels on the layout's own arrays; none constructs a scipy matrix
    import scipy.sparse as sp

    from pdnet import backprop as bp
    from pdnet import network as net
    from pdnet import training as tr

    def refuse(*args, **kwargs):
        raise AssertionError("a scipy.sparse matrix was constructed")

    for name in ("csr_matrix", "csc_matrix", "coo_matrix"):
        monkeypatch.setattr(sp, name, refuse)
    builds = [lambda: ops.make_first_difference(11, 0.9),
              lambda: ops.make_scaled_identity_analysis(121, 1.3),
              lambda: ops.make_block_sparse_analysis(3, 2, 1, 11, seed=31, site_rule="fit"),
              lambda: ops.make_block_sparse_analysis(3, 2, 2, 11, seed=32, site_rule="fit"),
              lambda: ops.make_block_sparse_analysis(5, 2, 10, 11, seed=33,
                                                     site_rule="interior"),
              lambda: ops.fuse_analysis([ops.make_dense_analysis(6, 121, seed=34),
                                         ops.make_block_sparse_analysis(
                                             3, 2, 2, 11, seed=35, site_rule="fit")])]
    for build in builds:
        op = build()
        masked = [p for p in op.parts() if isinstance(p, ops.MaskedRowAnalysis)]
        assert not any(sp.issparse(value) for part in masked
                       for value in [*vars(part).values(), *vars(part._layout).values()])
        x = Stream(derive(0xBB, op.out_dim)).normal(3 * op.in_dim).reshape(3, -1)
        y = op.apply(x)
        op.apply(x[0])
        op.apply_adjoint(y)
        op.apply_adjoint(y[0])
        cold = op.norm()
        op.update_weights([np.full(g.shape, 1e-3) for g in grad_zeros(op)], 1.0)
        assert op.norm() != cold  # a warm bound of the moved weights

    a_op = ops.Decimation(2, 12)
    params = net.init_network(a_op, 2, [net.BlockSpec(3, 2, 2, "fit")], "partial", seed=36)
    clean = Stream(37).uniform(4 * 144).reshape(4, 144) * 255.0
    _, trace = net.forward(params, a_op.apply(clean), keep_trace=True)
    tr.sgd_step(params, bp.backward(params, clean, trace), 1e-9)
