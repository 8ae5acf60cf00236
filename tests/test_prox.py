import numpy as np
import pytest

from pdnet.backprop import prox_conj_l1_diag_jacobian
from pdnet.pdhg import prox_conj_l1
from pdnet.rng import Stream, derive

from helpers import prox_l1


def test_soft_threshold_basic():
    assert np.allclose(prox_l1(np.array([3.0, -0.5]), 1.0), [2.0, 0.0])


def test_soft_threshold_small_t_limit():
    v = Stream(1).normal(50)
    assert np.allclose(prox_l1(v, 1e-12), v, atol=1e-11)


def test_soft_threshold_rejects_nonpositive_t():
    with pytest.raises(ValueError):
        prox_l1(np.zeros(3), 0.0)
    with pytest.raises(ValueError):
        prox_l1(np.zeros(3), -1.0)


def test_conj_prox_inside_ball_unchanged():
    v = np.array([0.5, -0.2])
    assert np.array_equal(prox_conj_l1(v), v)


def test_conj_prox_clips():
    assert np.array_equal(prox_conj_l1(np.array([2.0, -3.0])), [1.0, -1.0])


def test_moreau_identity():
    for t in range(20):
        x = Stream(derive(0x30, t)).normal(64) * 4
        for sigma in (0.1, 1.0, 10.0):
            via_identity = x - sigma * prox_l1(x / sigma, 1.0 / sigma)
            assert np.abs(prox_conj_l1(x) - via_identity).max() <= 1e-12


def test_nonexpansiveness_100_pairs():
    for t in range(100):
        u = Stream(derive(0x31, t)).normal(32) * 5
        v = Stream(derive(0x32, t)).normal(32) * 5
        lhs = np.linalg.norm(prox_conj_l1(u) - prox_conj_l1(v))
        assert lhs <= np.linalg.norm(u - v) + 1e-15


def test_jacobian_values():
    jac = prox_conj_l1_diag_jacobian(np.array([0.5, 2.0, 1.0, -1.0, -0.999]))
    assert np.array_equal(jac, [1.0, 0.0, 0.0, 0.0, 1.0])


def test_jacobian_matches_finite_differences():
    c = Stream(77).normal(200) * 2
    # measure-zero guard: keep entries away from the kink
    c = c[np.abs(np.abs(c) - 1.0) > 1e-6][:150]
    eps = 1e-7
    fd = (prox_conj_l1(c + eps) - prox_conj_l1(c - eps)) / (2 * eps)
    assert np.abs(fd - prox_conj_l1_diag_jacobian(c)).max() <= 1e-7


def test_clip_in_place_writes_the_same_bits():
    c = Stream(derive(0xC1, 1)).normal(200).reshape(8, 25) * 2
    want = prox_conj_l1(c)
    got = prox_conj_l1(c, out=c)
    assert got is c
    assert np.array_equal(c, want)
