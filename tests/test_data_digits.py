import numpy as np
import pytest

from pdnet.data import synthetic_digits
from pdnet.rng import derive

from helpers import synthetic_digits_per_image


def test_digits_deterministic():
    a = synthetic_digits(4, side=28, seed=9)
    b = synthetic_digits(4, side=28, seed=9)
    assert np.array_equal(a, b)


def test_digits_range_and_content():
    imgs = synthetic_digits(20, side=28, seed=3)
    assert imgs.min() >= 0.0 and imgs.max() <= 255.0
    # bright strokes on mostly dark background
    assert imgs.max() >= 200.0
    frac_lit = (imgs > 100).mean()
    assert 0.05 < frac_lit < 0.6


def test_digits_vary_across_samples_and_seeds():
    imgs = synthetic_digits(10, side=16, seed=5)
    assert any(not np.array_equal(imgs[0], imgs[i]) for i in range(1, 10))
    other = synthetic_digits(10, side=16, seed=6)
    assert not np.array_equal(imgs, other)


def test_digits_small_side_still_valid():
    imgs = synthetic_digits(5, side=8, seed=2)
    assert imgs.shape == (5, 64)
    assert np.all(np.isfinite(imgs))
    assert imgs.max() > 0


@pytest.mark.parametrize("seed", [2, derive(20240601, 1)], ids=["seed-2", "derived-seed"])
def test_digits_equal_the_per_image_reference(seed):
    # counts below, at and across the 100-image mark where row pieces split
    for side in range(6, 65):
        for count in (0, 1, 99, 100, 150):
            want = synthetic_digits_per_image(count, side, seed)
            have = synthetic_digits(count, side, seed)
            assert have.shape == want.shape and have.tobytes() == want.tobytes(), (side, count)
