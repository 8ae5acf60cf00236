import numpy as np
import pytest

from pdnet import data as dm
from pdnet import network as net
from pdnet import operators as ops
from pdnet import pdhg
from pdnet.rng import Stream, derive

from helpers import prox_l1


def test_margin_arithmetic():
    assert pdhg.check_stepsizes(1.0, 0.0, 1.0, 5.0) == pytest.approx(0.5)
    assert pdhg.check_stepsizes(1.0, 0.5, 1.0, 1.0) == pytest.approx(0.0)


def test_partial_sigma_saturates_margin():
    for tau in (0.5, 1.0, 1.7):
        for norm_l in (0.2, 1.0, 3.0):
            sigma = (1.0 / tau - 0.5) / norm_l**2
            assert pdhg.check_stepsizes(tau, sigma, 1.0, norm_l) == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("tau", [3.0, 2.0])
def test_saturating_sigma_rejects_tau_without_positive_sigma(tau):
    # 1/tau <= ||A||^2 / 2: sigma would be negative (tau 3) or zero (tau 2)
    with pytest.raises(ValueError, match="no positive sigma"):
        pdhg.saturating_sigma(tau, 1.0, 1.0)


def test_saturating_sigma_raises_when_ulp_steps_run_out(monkeypatch):
    monkeypatch.setattr(pdhg, "check_stepsizes", lambda *args: -1e-300)
    with pytest.raises(ValueError, match="8 ulp steps"):
        pdhg.saturating_sigma(1.0, 1.0, 1.0)


@pytest.mark.parametrize("tau,sigma", [
    (0.0, 0.3), (-1.0, 0.3), (np.inf, 0.3), (np.nan, 0.3),
    (1.0, 0.0), (1.0, -1.0), (1.0, np.inf), (1.0, np.nan),
], ids=["tau-0", "tau-negative", "tau-inf", "tau-nan",
        "sigma-0", "sigma-negative", "sigma-inf", "sigma-nan"])
def test_solve_rejects_stepsizes_not_positive_and_finite(tau, sigma):
    ident = ops.IdentityOperator(4)
    l_id = ops.make_scaled_identity_analysis(4, 1.0)
    with pytest.raises(ValueError, match="positive and finite"):
        pdhg.pdhg_solve(ident, l_id, np.ones((1, 4)), tau, sigma, tol=1e-5, max_iter=10_000)


def test_solve_identity_no_prior_returns_measurement():
    ident = ops.IdentityOperator(9)
    l_zero = ops.DenseAnalysis(np.zeros((4, 9)))
    z = Stream(5).normal(9) * 10
    x_hat, _, _, converged = pdhg.pdhg_solve(ident, l_zero, z[None], 1.0, 0.3, tol=1e-9,
                                             max_iter=10_000)
    assert converged[0]
    assert np.abs(x_hat[0] - z).max() < 1e-12
    assert pdhg.objective(ident, l_zero, z, x_hat[0]) == pytest.approx(0.0, abs=1e-20)


def test_solve_denoising_matches_soft_threshold():
    ident = ops.IdentityOperator(3)
    l_id = ops.make_scaled_identity_analysis(3, 1.0)
    z = np.array([3.0, -0.5, 0.2])
    x_hat, _, _, converged = pdhg.pdhg_solve(ident, l_id, z[None], 1.0, 0.45,
                                             tol=1e-10, max_iter=int(1e5))
    assert converged[0]
    assert np.abs(x_hat[0] - np.array([2.0, 0.0, 0.0])).max() < 1e-8


@pytest.mark.parametrize("lam", [0.1, 1.0, 5.0])
def test_denoising_oracle_over_lambda(lam):
    ident = ops.IdentityOperator(25)
    l_id = ops.make_scaled_identity_analysis(25, lam)
    worst = 0.0
    for t in range(20):
        z = Stream(derive(0x7E57, t)).normal(25) * 4
        x_hat = pdhg.pdhg_solve(ident, l_id, z[None],
                                1.0, 0.9 * 0.5 / lam**2,
                                tol=1e-10, max_iter=int(1e5))[0][0]
        worst = max(worst, float(np.abs(x_hat - prox_l1(z, lam)).max()))
    assert worst <= 1e-6


def _piecewise_image():
    img = np.zeros((8, 8))
    img[:4, :4] = 40.0
    img[:4, 4:] = 200.0
    img[4:, :4] = 120.0
    img[4:, 4:] = 80.0
    return img.ravel()


def test_blur_first_difference_fixed_point():
    a = ops.UniformBlur(3, 8)
    l_fd = ops.make_first_difference(8, scale=2.0)
    z = a.apply(_piecewise_image()) + Stream(3).normal(64) * 5
    sigma = 0.9 * (1.0 - 0.5) / l_fd.norm() ** 2
    steps = 1.0, sigma
    x_hat, iterations, _, converged = pdhg.pdhg_solve(a, l_fd, z[None], *steps, tol=1e-10,
                                                      max_iter=int(2e5))
    x_hat, iterations = x_hat[0], int(iterations[0])
    assert converged[0]
    # objective settled: the iterate before the last is a rerun one iteration shorter
    before = pdhg.pdhg_solve(a, l_fd, z[None], *steps, tol=1e-10, max_iter=iterations - 1)[0]
    objective = pdhg.objective(a, l_fd, z, x_hat)
    previous_objective = pdhg.objective(a, l_fd, z, before[0])
    assert abs(objective - previous_objective) <= 1e-8 * abs(objective)
    # one extra iteration moves the solution by at most 10*tol
    after = pdhg.pdhg_solve(a, l_fd, z[None], *steps, tol=1e-10, max_iter=iterations + 1)[0]
    assert np.abs(after[0] - x_hat).max() <= 10 * 1e-10 * max(1.0, np.linalg.norm(x_hat))


def test_solver_flags_non_convergence():
    a = ops.UniformBlur(3, 8)
    l_fd = ops.make_first_difference(8)
    z = a.apply(_piecewise_image())
    _, iterations, _, converged = pdhg.pdhg_solve(a, l_fd, z[None], 1.0, 0.4 / l_fd.norm() ** 2,
                                                  tol=1e-12, max_iter=3)
    assert not converged[0]
    assert iterations[0] == 3


def test_tightening_tol_changes_objective_little():
    a = ops.UniformBlur(3, 8)
    l_fd = ops.make_first_difference(8, scale=1.5)
    z = a.apply(_piecewise_image()) + Stream(9).normal(64) * 3
    sigma = 0.9 * 0.5 / l_fd.norm() ** 2
    loose = pdhg.pdhg_solve(a, l_fd, z[None], 1.0, sigma, tol=1e-7,
                            max_iter=int(2e5))[0][0]
    tight = pdhg.pdhg_solve(a, l_fd, z[None], 1.0, sigma, tol=1e-8,
                            max_iter=int(2e5))[0][0]
    loose_objective = pdhg.objective(a, l_fd, z, loose)
    tight_objective = pdhg.objective(a, l_fd, z, tight)
    rel = abs(loose_objective - tight_objective) / abs(tight_objective)
    assert rel <= 1e-6


def _blurred_batch(count=6):
    a = ops.UniformBlur(3, 8)
    l_fd = ops.make_first_difference(8, scale=1.5)
    z = np.stack([a.apply(_piecewise_image() * (0.5 + 0.2 * t))
                  + Stream(derive(0xBA7C, t)).normal(64) * (1 + 2 * t)
                  for t in range(count)])
    return a, l_fd, z, (1.0, 0.9 * 0.5 / l_fd.norm() ** 2)


def _row(solved, r):
    """Row r of ``pdhg_solve``'s (x_hat, iterations, residual, converged)."""
    return tuple(v[r] for v in solved)


def _assert_rows_equal(a, l_op, z, r, batched, steps, tol, max_iter):
    """``batched``, row r's results from a batch solve of z, against a solve of
    z[r] alone; the iterates before the last come from reruns one shorter."""
    single = _row(pdhg.pdhg_solve(a, l_op, z[r:r + 1], *steps, tol=tol, max_iter=max_iter), 0)
    assert np.array_equal(batched[0], single[0])
    assert batched[1] == single[1]  # iterations
    assert batched[3] == single[3]  # converged
    assert batched[2] == single[2]  # residual
    assert (pdhg.objective(a, l_op, z[r], batched[0])
            == pdhg.objective(a, l_op, z[r], single[0]))
    shorter = int(batched[1]) - 1
    batched_before = pdhg.pdhg_solve(a, l_op, z, *steps, tol=tol, max_iter=shorter)[0][r]
    single_before = pdhg.pdhg_solve(a, l_op, z[r:r + 1], *steps, tol=tol, max_iter=shorter)[0][0]
    assert (pdhg.objective(a, l_op, z[r], batched_before)
            == pdhg.objective(a, l_op, z[r], single_before))


def test_row_norms_match_single_vector_norms():
    # np.linalg.norm(d, axis=1) differs in the last bits on some of these rows
    d = Stream(0x40A5).normal(40 * 64).reshape(40, 64) * 100
    assert [float(v) for v in pdhg._row_norms(d)] == [float(np.linalg.norm(r)) for r in d]


def test_batched_solve_matches_row_by_row():
    a, l_fd, z, steps = _blurred_batch()
    solved = pdhg.pdhg_solve(a, l_fd, z, *steps, tol=1e-8, max_iter=int(2e5))
    assert len(solved[0]) == len(z)
    assert solved[3].all()
    assert len(set(solved[1].tolist())) > 1  # rows leave at different times
    for r in range(len(z)):
        _assert_rows_equal(a, l_fd, z, r, _row(solved, r), steps, 1e-8, int(2e5))


def test_batched_solve_with_block_prior_matches_row_by_row():
    # block parts multiply per window with GEMMs; a lone row must not take
    # a GEMV path that rounds differently
    a, _, z, _ = _blurred_batch()
    l_block = ops.make_block_sparse_analysis(3, 1, 4, 8, seed=5, site_rule="fit", stddev=0.3)
    steps = 1.0, 0.9 * 0.5 / l_block.norm() ** 2
    solved = pdhg.pdhg_solve(a, l_block, z, *steps, tol=1e-6, max_iter=2000)
    assert len(set(solved[1].tolist())) > 1
    for r in range(len(z)):
        _assert_rows_equal(a, l_block, z, r, _row(solved, r), steps, 1e-6, 2000)


def test_batched_solve_with_dense_prior_is_within_tol_of_row_by_row():
    # BLAS rounds a dense product's rows by the batch's row count, so rows
    # are not bit for bit a solo solve's; they stay within the stated bound
    a, _, z, _ = _blurred_batch()
    l_dense = ops.DenseAnalysis(Stream(derive(0xDE45, 1)).normal(12 * 64).reshape(12, 64) * 0.3)
    steps = 1.0, 0.9 * 0.5 / l_dense.norm() ** 2
    tol = 1e-6
    x_hat, _, _, converged = pdhg.pdhg_solve(a, l_dense, z, *steps, tol=tol, max_iter=20_000)
    assert converged.all()
    for r in range(len(z)):
        single = _row(pdhg.pdhg_solve(a, l_dense, z[r:r + 1], *steps, tol=tol,
                                      max_iter=20_000), 0)
        assert single[3]
        gap = np.linalg.norm(x_hat[r] - single[0])
        assert gap <= tol * max(1.0, np.linalg.norm(single[0]))


def test_batched_solve_cut_off_by_max_iter():
    a, l_fd, z, steps = _blurred_batch()
    counts = sorted(pdhg.pdhg_solve(a, l_fd, z, *steps, tol=1e-8, max_iter=int(2e5))[1].tolist())
    max_iter = counts[len(counts) // 2]
    solved = pdhg.pdhg_solve(a, l_fd, z, *steps, tol=1e-8, max_iter=max_iter)
    assert set(solved[3].tolist()) == {True, False}
    for r in range(len(z)):
        assert solved[1][r] <= max_iter
        _assert_rows_equal(a, l_fd, z, r, _row(solved, r), steps, 1e-8, max_iter)


def test_solve_return_shapes_and_max_iter_check():
    a, l_fd, z, steps = _blurred_batch(2)
    assert [v.shape for v in pdhg.pdhg_solve(a, l_fd, z[:1], *steps, tol=1e-5,
                                             max_iter=3)] == [(1, 64), (1,), (1,), (1,)]
    assert [(v.shape, v.dtype) for v in pdhg.pdhg_solve(a, l_fd, z[:0], *steps, tol=1e-5,
                                                        max_iter=3)] == [
        ((0, 64), np.float64), ((0,), np.int64), ((0,), np.float64), ((0,), bool)]
    with pytest.raises(ValueError, match="max_iter"):
        pdhg.pdhg_solve(a, l_fd, z, *steps, tol=1e-5, max_iter=0)
    with pytest.raises(ValueError, match="measurement"):
        pdhg.pdhg_solve(a, l_fd, z[None], *steps, tol=1e-5, max_iter=10_000)


@pytest.mark.parametrize("call", ["forward", "pdhg_solve", "ssim"])
def test_numeric_core_refuses_a_single_1d_image(call):
    # one image goes in as a (1, M) batch; a bare (M,) vector is refused
    a, l_fd, z, steps = _blurred_batch(1)
    params = net.init_network(a, 2, [net.DenseSpec(4)], "full", seed=3)
    run = {"forward": lambda: net.forward(params, z[0]),
           "pdhg_solve": lambda: pdhg.pdhg_solve(a, l_fd, z[0], *steps, tol=1e-5, max_iter=3),
           "ssim": lambda: dm.ssim(z[0], z[0])}[call]
    with pytest.raises(ValueError, match=r"\(B, [MN]\)"):
        run()


@pytest.mark.parametrize("part", ["dense", "first-diff", "block"])
def test_step_without_v_has_the_same_iterates(part):
    # V is formed for backprop only; skipping it changes no bit of x+ or y+
    side = 8
    a_op = ops.UniformBlur(3, side)
    l_op = {"dense": lambda: ops.make_dense_analysis(10, side * side, seed=3, stddev=0.3),
            "first-diff": lambda: ops.make_first_difference(side, 1.5),
            "block": lambda: ops.make_block_sparse_analysis(3, 2, 2, side, seed=3,
                                                            site_rule="fit", stddev=0.3)}[part]()
    z = Stream(derive(0x7E, 1)).uniform(5 * side * side).reshape(5, -1) * 255
    w = a_op.apply_adjoint(z)
    y = np.clip(Stream(derive(0x7E, 2)).normal(5 * l_op.out_dim).reshape(5, -1), -1, 1)
    work = np.empty_like(w)
    for dual in (None, y):
        x_v, y_v, v = pdhg.pd_step(a_op, l_op, 0.9, 0.2, w, w, dual, work, True)
        x_n, y_n, none = pdhg.pd_step(a_op, l_op, 0.9, 0.2, w, w, dual, work, False)
        assert v is not None and none is None
        assert np.array_equal(x_v, x_n) and np.array_equal(y_v, y_n)
        out_v, v = pdhg.pd_primal(a_op, l_op, 0.9, w, w, dual, work, True)
        out_n, none = pdhg.pd_primal(a_op, l_op, 0.9, w, w, dual, work, False)
        assert v is not None and none is None
        assert np.array_equal(out_v, out_n)


# name: one layer's L on 12 x 12 images, for each kind of analysis part
_UNROLL_PARTS = {
    "first-diff": lambda: ops.make_first_difference(12, 1.5),
    "scaled-identity": lambda: ops.make_scaled_identity_analysis(144, 0.7),
    "f3s1n1": lambda: ops.make_block_sparse_analysis(3, 1, 1, 12, seed=4, site_rule="fit"),
    "f2s1n2": lambda: ops.make_block_sparse_analysis(2, 1, 2, 12, seed=5, site_rule="fit"),
    "f5s2n10": lambda: ops.make_block_sparse_analysis(5, 2, 10, 12, seed=6, site_rule="fit"),
    "dense:20": lambda: ops.make_dense_analysis(20, 144, seed=7),
}


@pytest.mark.parametrize("depth", [1, 2, 6])
@pytest.mark.parametrize("part", list(_UNROLL_PARTS))
def test_shared_layers_unroll_the_solver_bit_for_bit(part, depth):
    # K layers sharing one (tau, sigma, L) run the solver's K iterations:
    # the same steps through the same products, so the same bits
    a_op = ops.UniformBlur(3, 12)
    l_op = _UNROLL_PARTS[part]()
    sigma = pdhg.saturating_sigma(1.0, a_op.cached_norm, l_op.norm())
    params = net.NetworkParams(
        a_op, [net.LayerParams(1.0, sigma, l_op.clone()) for _ in range(depth)], "full")
    z = Stream(derive(0xD2, depth)).uniform(7 * 144).reshape(7, -1) * 255
    out, _ = net.forward(params, z)
    x_hat, iterations, _, _ = pdhg.pdhg_solve(a_op, l_op, z, 1.0, sigma, tol=0.0,
                                              max_iter=depth)
    assert (iterations == depth).all()
    assert np.array_equal(out, x_hat)
