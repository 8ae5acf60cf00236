import numpy as np

from pdnet.rng import Stream, derive


def test_same_seed_same_sequence():
    a = Stream(1234).normal(1000)
    b = Stream(1234).normal(1000)
    assert np.array_equal(a, b)


def test_different_seeds_differ():
    assert not np.array_equal(Stream(1).u64(100), Stream(2).u64(100))


def test_sequential_calls_advance():
    s = Stream(7)
    first = s.u64(10)
    second = s.u64(10)
    assert not np.array_equal(first, second)
    # one big call equals the concatenation of two small ones
    both = Stream(7).u64(20)
    assert np.array_equal(both, np.concatenate([first, second]))


def test_uniform_range_and_moments():
    u = Stream(3).uniform(200_000)
    assert u.min() >= 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.005
    assert abs(u.var() - 1.0 / 12.0) < 0.002


def test_normal_moments():
    x = Stream(5).normal(1_000_000)
    assert abs(x.mean()) < 0.004
    assert abs(x.std() - 1.0) < 0.004


def test_normal_std_scaling():
    base = Stream(5).normal(100)
    scaled = Stream(5).normal(100, std=2.5)
    assert np.allclose(scaled, 2.5 * base)


def test_derive_deterministic_and_sensitive():
    assert derive(9, 1) == derive(9, 1)
    assert derive(9, 1) != derive(9, 2)
    assert derive(9, 1, 2) != derive(9, 2, 1)


def test_permutation_is_permutation():
    p = Stream(11).permutation(257)
    assert sorted(p.tolist()) == list(range(257))


def test_integers_within_bound():
    v = Stream(13).integers(10_000, 7)
    assert v.min() >= 0 and v.max() <= 6
    assert len(np.unique(v)) == 7


def test_array_seeds_draw_one_row_per_stream():
    rows = np.arange(5, 75)
    seeds = derive(11, rows, 0x4015E)
    assert seeds.dtype == np.uint64
    assert seeds.tolist() == [derive(11, int(r), 0x4015E) for r in rows]
    for n in (1, 6, 7):
        batch = Stream(seeds)
        draws = batch.normal(n), batch.uniform(3), batch.u64(2)
        for i, seed in enumerate(seeds):
            one = Stream(int(seed))
            for got, want in zip(draws, (one.normal(n), one.uniform(3), one.u64(2))):
                assert got[i].tobytes() == want.tobytes()
