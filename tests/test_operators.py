import numpy as np
import pytest

from pdnet import operators as ops
from pdnet.rng import Stream, derive

from helpers import mask_dense, to_dense


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


def test_blur_norm_is_one():
    a = ops.UniformBlur(3, 28)
    assert abs(a.cached_norm - 1.0) <= 1e-9


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
    ops.make_block_sparse_analysis(3, 2, 4, 7, seed=2),
    ops.make_first_difference(6),
    ops.make_scaled_identity_analysis(20, 2.5),
    ops.fuse_analysis([ops.make_dense_analysis(5, 36, seed=3),
                       ops.make_block_sparse_analysis(3, 3, 2, 6, seed=4)]),
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
    assert d.norm(tol=1e-12) == pytest.approx(3.0, rel=1e-9)


def test_norm_matches_svd_on_small_matrices():
    for t in range(12):
        p = 3 + t % 6
        n = 2 + (t * 7) % 9
        w = Stream(derive(0x51D, t)).normal(p * n).reshape(p, n)
        op = ops.DenseAnalysis(w)
        svd = np.linalg.svd(w, compute_uv=False)[0]
        est = op.norm(tol=1e-12, max_iter=200_000)
        assert abs(est - svd) <= 1e-6 * svd


def test_norm_matches_svd_random_6x4():
    w = Stream(0xBEEF).normal(24).reshape(6, 4)
    est = ops.DenseAnalysis(w).norm(tol=1e-12)
    assert est == pytest.approx(np.linalg.svd(w, compute_uv=False)[0], abs=1e-6)


def test_norm_of_blur_matches_cached():
    a = ops.UniformBlur(3, 12)
    matrix = ops.DenseAnalysis(a.apply(np.eye(a.in_dim)).T)
    assert matrix.norm(tol=1e-10) == pytest.approx(a.cached_norm, rel=1e-4)


def test_zero_operator_norm_is_zero():
    z = ops.DenseAnalysis(np.zeros((4, 9)))
    assert z.norm() == 0.0


def test_power_iteration_max_iter_error_carries_estimate():
    w = Stream(0xD1AB).normal(12).reshape(3, 4)
    with pytest.raises(ops.PowerIterationError) as err:
        ops.DenseAnalysis(w).norm(tol=1e-15, max_iter=2)
    assert err.value.last_estimate > 0


@pytest.mark.parametrize("weight", [np.nan, 1e200])
def test_power_iteration_stops_at_first_non_finite_estimate(weight):
    op = ops.DenseAnalysis(np.full((3, 4), weight))
    ops.ANALYSIS_MACS.reset()
    with pytest.raises(ops.PowerIterationError, match="not finite"):
        op.norm()
    assert ops.ANALYSIS_MACS.count <= 2 * op.nnz  # at most one product pair
    ops.ANALYSIS_MACS.reset()


def test_analysis_norm_cache_invalidated_by_update():
    op = ops.make_dense_analysis(6, 10, seed=9)
    before = op.norm(tol=1e-12)
    op.update_weights([np.ones((6, 10))], 0.5)
    after = op.norm(tol=1e-12)
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
    op = ops.make_block_sparse_analysis(3, 3, 2, 9, seed=8)
    mask = mask_dense(op)
    assert np.array_equal(mask.sum(axis=1), np.full(op.out_dim, 9.0))
    # first row's window sits at the top-left corner
    first = mask[0].reshape(9, 9)
    assert first[:3, :3].sum() == 9 and first.sum() == 9


def test_block_sparse_rejects_oversized_window():
    with pytest.raises(ValueError):
        ops.make_block_sparse_analysis(10, 1, 1, 8, seed=0)


def test_block_apply_matches_dense():
    op = ops.make_block_sparse_analysis(3, 2, 3, 6, seed=11)
    dense = to_dense(op)
    v = rand(36, tag=5)
    assert np.allclose(op.apply(v), dense @ v, atol=1e-12)
    w = rand(op.out_dim, tag=6)
    assert np.allclose(op.apply_adjoint(w), dense.T @ w, atol=1e-12)


def test_explicit_site_injection():
    sites = [(0, 0), (2, 3)]
    op = ops.make_block_sparse_analysis(3, 1, 4, 6, seed=2, sites=sites)
    assert op.out_dim == 8
    assert op.block_spec["sites"] == [(0, 0), (2, 3)]


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
        ops.make_block_sparse_analysis(14, 7, 10, 28, seed=3),
        ops.make_block_sparse_analysis(28, 28, 10, 28, seed=4),
    ]
    assert [p.out_dim for p in parts] == [1210, 490, 90, 10]
    fused = ops.fuse_analysis(parts)
    assert fused.out_dim == 1800


def test_fusion_apply_is_concatenation():
    parts = [ops.make_dense_analysis(3, 16, seed=1),
             ops.make_block_sparse_analysis(2, 2, 2, 4, seed=2)]
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
    op = ops.make_block_sparse_analysis(3, 3, 2, 6, seed=7)
    mask = mask_dense(op)
    for t in range(5):
        deltas = [Stream(derive(0x0DD, t)).normal(g.size).reshape(g.shape)
                  for g in op.grad_zeros()]
        op.update_weights(deltas, -0.1)
    assert not to_dense(op)[mask == 0].any()


def test_adjoint_follows_weight_updates():
    # integer weights and inputs: every sum is exact, so equality is exact
    op = ops.make_first_difference(6)
    w = np.arange(3 * op.out_dim, dtype=np.float64).reshape(3, op.out_dim) % 7 - 3
    op.apply_adjoint(w)
    op.update_weights([np.arange(op.nnz, dtype=np.float64).reshape(op.out_dim, 2) % 5], 1.0)
    assert np.array_equal(op.apply_adjoint(w), w @ to_dense(op))
    assert np.array_equal(op.apply_adjoint(w[0]), w[0] @ to_dense(op))


def test_grad_outer_matches_dense_masked_product():
    op = ops.make_block_sparse_analysis(3, 2, 2, 5, seed=3)
    b, p, n = 4, op.out_dim, op.in_dim
    left = Stream(1).normal(b * p).reshape(b, p)
    right = Stream(2).normal(b * n).reshape(b, n)
    acc = op.grad_zeros()
    op.grad_outer(acc, left, right, 2.0)
    dense = np.zeros((p, n))
    dense[mask_dense(op) == 1.0] = acc[0].ravel()
    assert np.allclose(dense, 2.0 * (left.T @ right) * mask_dense(op), atol=1e-12)


def test_mac_counter_tracks_nnz_exactly():
    op = ops.make_block_sparse_analysis(3, 3, 2, 6, seed=7)
    ops.ANALYSIS_MACS.reset()
    op.apply(np.zeros(36))
    assert ops.ANALYSIS_MACS.count == op.nnz
    op.apply_adjoint(np.zeros((5, op.out_dim)))
    assert ops.ANALYSIS_MACS.count == op.nnz + 5 * op.nnz
    ops.ANALYSIS_MACS.reset()


def test_first_difference_on_constant_is_zero():
    op = ops.make_first_difference(5, scale=2.0)
    assert not op.apply(np.full(25, 3.3)).any()
    assert op.out_dim == 50
