import numpy as np
import pytest

from pdnet import operators as ops
from pdnet import pdhg
from pdnet.prox import prox_l1
from pdnet.rng import Stream, derive


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


def test_stepsizes_validate():
    with pytest.raises(ValueError):
        pdhg.StepSizes(0.0, 1.0)
    with pytest.raises(ValueError):
        pdhg.StepSizes(1.0, -2.0)


def test_solve_identity_no_prior_returns_measurement():
    ident = ops.IdentityOperator(9)
    l_zero = ops.DenseAnalysis(np.zeros((4, 9)))
    z = Stream(5).normal(9) * 10
    rep = pdhg.pdhg_solve(ident, l_zero, z, pdhg.StepSizes(1.0, 0.3), tol=1e-9)
    assert rep.converged
    assert np.abs(rep.x_hat - z).max() < 1e-12
    assert rep.objective_trace[-1] == pytest.approx(0.0, abs=1e-20)


def test_solve_denoising_matches_soft_threshold():
    ident = ops.IdentityOperator(3)
    l_id = ops.make_scaled_identity_analysis(3, 1.0)
    z = np.array([3.0, -0.5, 0.2])
    rep = pdhg.pdhg_solve(ident, l_id, z, pdhg.StepSizes(1.0, 0.45),
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
                              pdhg.StepSizes(1.0, 0.9 * 0.5 / lam**2),
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
    steps = pdhg.StepSizes(1.0, sigma)
    rep = pdhg.pdhg_solve(a, l_fd, z, steps, tol=1e-10, max_iter=int(2e5))
    assert rep.converged
    # objective settled
    assert abs(rep.objective_trace[-1] - rep.objective_trace[-2]) <= 1e-8 * abs(rep.objective_trace[-1])
    # one extra iteration moves the solution by at most 10*tol
    w = a.apply_adjoint(rep.x_hat[None, :])  # reuse internal formulation
    x = rep.x_hat[None, :]
    rep2 = pdhg.pdhg_solve(a, l_fd, z, steps, tol=1e-10, max_iter=rep.iterations + 1)
    assert np.abs(rep2.x_hat - rep.x_hat).max() <= 10 * 1e-10 * max(1.0, np.linalg.norm(rep.x_hat))


def test_solver_flags_non_convergence():
    a = ops.UniformBlur(3, 8)
    l_fd = ops.make_first_difference(8)
    z = a.apply(_piecewise_image())
    rep = pdhg.pdhg_solve(a, l_fd, z, pdhg.StepSizes(1.0, 0.4 / l_fd.norm() ** 2),
                          tol=1e-12, max_iter=3)
    assert not rep.converged
    assert rep.iterations == 3


def test_solver_rejects_bad_stepsizes_unless_warned():
    ident = ops.IdentityOperator(4)
    l_id = ops.make_scaled_identity_analysis(4, 1.0)
    bad = pdhg.StepSizes(1.0, 10.0)
    with pytest.raises(ValueError):
        pdhg.pdhg_solve(ident, l_id, np.ones(4), bad)
    with pytest.warns(UserWarning):
        pdhg.pdhg_solve(ident, l_id, np.ones(4), bad, max_iter=5, warn_only=True)


def test_tightening_tol_changes_objective_little():
    a = ops.UniformBlur(3, 8)
    l_fd = ops.make_first_difference(8, scale=1.5)
    z = a.apply(_piecewise_image()) + Stream(9).normal(64) * 3
    sigma = 0.9 * 0.5 / l_fd.norm() ** 2
    loose = pdhg.pdhg_solve(a, l_fd, z, pdhg.StepSizes(1.0, sigma), tol=1e-7,
                            max_iter=int(2e5))
    tight = pdhg.pdhg_solve(a, l_fd, z, pdhg.StepSizes(1.0, sigma), tol=1e-8,
                            max_iter=int(2e5))
    rel = abs(loose.objective_trace[-1] - tight.objective_trace[-1]) / abs(tight.objective_trace[-1])
    assert rel <= 1e-6
