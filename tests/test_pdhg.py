import numpy as np
import pytest

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


def test_constraint_distance_values():
    assert pdhg.constraint_distance(1.0, 0.1, 1.0, 1.0) == 0.0
    assert pdhg.constraint_distance(1.0, 1.0, 1.0, 1.0) == pytest.approx(0.25)


def test_constraint_distance_monotone_in_sigma():
    grid = np.linspace(0.0, 3.0, 50)
    vals = [pdhg.constraint_distance(1.0, s, 1.0, 1.2) for s in grid]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


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
        pdhg.pdhg_solve(ident, l_id, np.ones(4), tau, sigma, tol=1e-5, max_iter=10_000,
                        warn_only=True)


def test_solve_identity_no_prior_returns_measurement():
    ident = ops.IdentityOperator(9)
    l_zero = ops.DenseAnalysis(np.zeros((4, 9)))
    z = Stream(5).normal(9) * 10
    rep = pdhg.pdhg_solve(ident, l_zero, z, 1.0, 0.3, tol=1e-9, max_iter=10_000)
    assert rep.converged
    assert np.abs(rep.x_hat - z).max() < 1e-12
    assert pdhg.objective(ident, l_zero, z, rep.x_hat) == pytest.approx(0.0, abs=1e-20)


def test_solve_denoising_matches_soft_threshold():
    ident = ops.IdentityOperator(3)
    l_id = ops.make_scaled_identity_analysis(3, 1.0)
    z = np.array([3.0, -0.5, 0.2])
    rep = pdhg.pdhg_solve(ident, l_id, z, 1.0, 0.45,
                          tol=1e-10, max_iter=int(1e5))
    assert rep.converged
    assert np.abs(rep.x_hat - np.array([2.0, 0.0, 0.0])).max() < 1e-8


@pytest.mark.parametrize("lam", [0.1, 1.0, 5.0])
def test_denoising_oracle_over_lambda(lam):
    ident = ops.IdentityOperator(25)
    l_id = ops.make_scaled_identity_analysis(25, lam)
    worst = 0.0
    for t in range(20):
        z = Stream(derive(0x7E57, t)).normal(25) * 4
        rep = pdhg.pdhg_solve(ident, l_id, z,
                              1.0, 0.9 * 0.5 / lam**2,
                              tol=1e-10, max_iter=int(1e5))
        worst = max(worst, float(np.abs(rep.x_hat - prox_l1(z, lam)).max()))
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
    rep = pdhg.pdhg_solve(a, l_fd, z, *steps, tol=1e-10, max_iter=int(2e5))
    assert rep.converged
    # objective settled: the iterate before the last is a rerun one iteration shorter
    before = pdhg.pdhg_solve(a, l_fd, z, *steps, tol=1e-10, max_iter=rep.iterations - 1)
    objective = pdhg.objective(a, l_fd, z, rep.x_hat)
    previous_objective = pdhg.objective(a, l_fd, z, before.x_hat)
    assert abs(objective - previous_objective) <= 1e-8 * abs(objective)
    # one extra iteration moves the solution by at most 10*tol
    w = a.apply_adjoint(rep.x_hat[None, :])  # reuse internal formulation
    x = rep.x_hat[None, :]
    rep2 = pdhg.pdhg_solve(a, l_fd, z, *steps, tol=1e-10, max_iter=rep.iterations + 1)
    assert np.abs(rep2.x_hat - rep.x_hat).max() <= 10 * 1e-10 * max(1.0, np.linalg.norm(rep.x_hat))


def test_solver_flags_non_convergence():
    a = ops.UniformBlur(3, 8)
    l_fd = ops.make_first_difference(8)
    z = a.apply(_piecewise_image())
    rep = pdhg.pdhg_solve(a, l_fd, z, 1.0, 0.4 / l_fd.norm() ** 2,
                          tol=1e-12, max_iter=3)
    assert not rep.converged
    assert rep.iterations == 3


def test_solver_rejects_bad_stepsizes_unless_warned():
    ident = ops.IdentityOperator(4)
    l_id = ops.make_scaled_identity_analysis(4, 1.0)
    bad = 1.0, 10.0
    with pytest.raises(ValueError):
        pdhg.pdhg_solve(ident, l_id, np.ones(4), *bad, tol=1e-5, max_iter=10_000)
    with pytest.warns(UserWarning):
        pdhg.pdhg_solve(ident, l_id, np.ones(4), *bad, tol=1e-5, max_iter=5, warn_only=True)


def test_tightening_tol_changes_objective_little():
    a = ops.UniformBlur(3, 8)
    l_fd = ops.make_first_difference(8, scale=1.5)
    z = a.apply(_piecewise_image()) + Stream(9).normal(64) * 3
    sigma = 0.9 * 0.5 / l_fd.norm() ** 2
    loose = pdhg.pdhg_solve(a, l_fd, z, 1.0, sigma, tol=1e-7,
                            max_iter=int(2e5))
    tight = pdhg.pdhg_solve(a, l_fd, z, 1.0, sigma, tol=1e-8,
                            max_iter=int(2e5))
    loose_objective = pdhg.objective(a, l_fd, z, loose.x_hat)
    tight_objective = pdhg.objective(a, l_fd, z, tight.x_hat)
    rel = abs(loose_objective - tight_objective) / abs(tight_objective)
    assert rel <= 1e-6


def _blurred_batch(count=6):
    a = ops.UniformBlur(3, 8)
    l_fd = ops.make_first_difference(8, scale=1.5)
    z = np.stack([a.apply(_piecewise_image() * (0.5 + 0.2 * t))
                  + Stream(derive(0xBA7C, t)).normal(64) * (1 + 2 * t)
                  for t in range(count)])
    return a, l_fd, z, (1.0, 0.9 * 0.5 / l_fd.norm() ** 2)


def _assert_reports_equal(a, l_op, z, r, batched, steps, tol, max_iter):
    """``batched``, row r's report from a batch solve of z, against a solve of
    z[r] alone; the iterates before the last come from reruns one shorter."""
    single = pdhg.pdhg_solve(a, l_op, z[r], *steps, tol=tol, max_iter=max_iter)
    assert np.array_equal(batched.x_hat, single.x_hat)
    assert batched.iterations == single.iterations
    assert batched.converged == single.converged
    assert batched.final_residual == single.final_residual
    assert (pdhg.objective(a, l_op, z[r], batched.x_hat)
            == pdhg.objective(a, l_op, z[r], single.x_hat))
    shorter = batched.iterations - 1
    batched_before = pdhg.pdhg_solve(a, l_op, z, *steps, tol=tol, max_iter=shorter)[r]
    single_before = pdhg.pdhg_solve(a, l_op, z[r], *steps, tol=tol, max_iter=shorter)
    assert (pdhg.objective(a, l_op, z[r], batched_before.x_hat)
            == pdhg.objective(a, l_op, z[r], single_before.x_hat))


def test_row_norms_match_single_vector_norms():
    # np.linalg.norm(d, axis=1) differs in the last bits on some of these rows
    d = Stream(0x40A5).normal(40 * 64).reshape(40, 64) * 100
    assert [float(v) for v in pdhg._row_norms(d)] == [float(np.linalg.norm(r)) for r in d]


def test_batched_solve_matches_row_by_row():
    a, l_fd, z, steps = _blurred_batch()
    reports = pdhg.pdhg_solve(a, l_fd, z, *steps, tol=1e-8, max_iter=int(2e5))
    assert len(reports) == len(z)
    assert all(rep.converged for rep in reports)
    assert len({rep.iterations for rep in reports}) > 1  # rows leave at different times
    for r, rep in enumerate(reports):
        _assert_reports_equal(a, l_fd, z, r, rep, steps, 1e-8, int(2e5))


def test_batched_solve_with_block_prior_matches_row_by_row():
    # block parts multiply per window with GEMMs; a lone row must not take
    # a GEMV path that rounds differently
    a, _, z, _ = _blurred_batch()
    l_block = ops.make_block_sparse_analysis(3, 1, 4, 8, seed=5, site_rule="fit", stddev=0.3)
    steps = 1.0, 0.9 * 0.5 / l_block.norm() ** 2
    reports = pdhg.pdhg_solve(a, l_block, z, *steps, tol=1e-6, max_iter=2000)
    assert len({rep.iterations for rep in reports}) > 1
    for r, rep in enumerate(reports):
        _assert_reports_equal(a, l_block, z, r, rep, steps, 1e-6, 2000)


def test_batched_solve_with_dense_prior_is_within_tol_of_row_by_row():
    # BLAS rounds a dense product's rows by the batch's row count, so rows
    # are not bit for bit a solo solve's; they stay within the stated bound
    a, _, z, _ = _blurred_batch()
    l_dense = ops.DenseAnalysis(Stream(derive(0xDE45, 1)).normal(12 * 64).reshape(12, 64) * 0.3)
    steps = 1.0, 0.9 * 0.5 / l_dense.norm() ** 2
    tol = 1e-6
    reports = pdhg.pdhg_solve(a, l_dense, z, *steps, tol=tol, max_iter=20_000)
    assert all(rep.converged for rep in reports)
    for r, rep in enumerate(reports):
        single = pdhg.pdhg_solve(a, l_dense, z[r], *steps, tol=tol, max_iter=20_000)
        assert single.converged
        gap = np.linalg.norm(rep.x_hat - single.x_hat)
        assert gap <= tol * max(1.0, np.linalg.norm(single.x_hat))


def test_batched_solve_cut_off_by_max_iter():
    a, l_fd, z, steps = _blurred_batch()
    counts = sorted(rep.iterations for rep in
                    pdhg.pdhg_solve(a, l_fd, z, *steps, tol=1e-8, max_iter=int(2e5)))
    max_iter = counts[len(counts) // 2]
    reports = pdhg.pdhg_solve(a, l_fd, z, *steps, tol=1e-8, max_iter=max_iter)
    assert {rep.converged for rep in reports} == {True, False}
    for r, rep in enumerate(reports):
        assert rep.iterations <= max_iter
        _assert_reports_equal(a, l_fd, z, r, rep, steps, 1e-8, max_iter)


def test_solve_return_shapes_and_max_iter_check():
    a, l_fd, z, steps = _blurred_batch(2)
    assert isinstance(pdhg.pdhg_solve(a, l_fd, z[0], *steps, tol=1e-5, max_iter=3),
                      pdhg.SolveReport)
    assert len(pdhg.pdhg_solve(a, l_fd, z[:1], *steps, tol=1e-5, max_iter=3)) == 1
    assert pdhg.pdhg_solve(a, l_fd, z[:0], *steps, tol=1e-5, max_iter=3) == []
    with pytest.raises(ValueError, match="max_iter"):
        pdhg.pdhg_solve(a, l_fd, z, *steps, tol=1e-5, max_iter=0)
    with pytest.raises(ValueError, match="measurement"):
        pdhg.pdhg_solve(a, l_fd, z[None], *steps, tol=1e-5, max_iter=10_000)
