"""Deterministic pseudo-random number generation.

All randomness in the package flows through :class:`Stream`, a counter-based
SplitMix64 generator.  The j-th raw draw of a stream with seed ``s`` is
``mix64(s + (j+1) * GOLDEN)`` where ``mix64`` is the SplitMix64 finalizer and
``GOLDEN = 0x9E3779B97F4A7C15``.  Uniform doubles take the top 53 bits;
normal deviates come from the Box-Muller transform applied to consecutive
uniform pairs.  Everything is arithmetic on 64-bit integers, so results are
identical across runs and platforms for a given seed and call sequence.

Independent substreams are derived with :func:`derive`, which remixes the
parent seed with an integer tag.  Splitting per purpose / per sample keeps
parallel or chunked generation reproducible.
"""

from __future__ import annotations

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX_A = np.uint64(0xBF58476D1CE4E5B9)
_MIX_B = np.uint64(0x94D049BB133111EB)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)
_S11 = np.uint64(11)
_TWO53 = float(2.0**53)


def _mix(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer on a uint64 array (wrapping arithmetic)."""
    z = (z ^ (z >> _S30)) * _MIX_A
    z = (z ^ (z >> _S27)) * _MIX_B
    return z ^ (z >> _S31)


def derive(seed: int, *tags) -> int | np.ndarray:
    """Derive a child seed from ``seed`` and one or more integer tags.

    child = mix64(parent + GOLDEN * (tag + 1)), applied per tag in order.
    A tag may be an array of nonnegative integers: the result is then a
    uint64 array of the seeds derived with each of its elements.
    """
    s = np.array([int(seed) & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
    for t in tags:
        if isinstance(t, np.ndarray):
            t64 = t.astype(np.uint64) + np.uint64(1)
        else:
            t64 = np.array([(int(t) + 1) & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
        s = _mix(s + _GOLDEN * t64)
    return s if any(isinstance(t, np.ndarray) for t in tags) else int(s[0])


class Stream:
    """Counter-based SplitMix64 stream of uniforms and normals.

    Seeded with a uint64 array, it runs one stream per seed side by side:
    each draw of ``u64``, ``uniform`` and ``normal`` comes back with one row
    per seed, and row i holds the bits a stream seeded with ``seed[i]`` draws.
    """

    def __init__(self, seed: int | np.ndarray):
        if isinstance(seed, np.ndarray):
            self._seed = seed.astype(np.uint64)[:, None]
        else:
            self._seed = np.uint64(int(seed) & 0xFFFFFFFFFFFFFFFF)
        self._count = 0

    def u64(self, n: int) -> np.ndarray:
        """Next ``n`` raw 64-bit draws."""
        idx = np.arange(self._count + 1, self._count + n + 1, dtype=np.uint64)
        self._count += n
        return _mix(self._seed + idx * _GOLDEN)

    def uniform(self, n: int) -> np.ndarray:
        """``n`` doubles uniform on [0, 1)."""
        return (self.u64(n) >> _S11).astype(np.float64) / _TWO53

    def _uniform_open(self, n: int) -> np.ndarray:
        # (0, 1]: safe under log()
        return ((self.u64(n) >> _S11) + np.uint64(1)).astype(np.float64) / _TWO53

    def normal(self, n: int, std: float = 1.0) -> np.ndarray:
        """``n`` Box-Muller normal deviates with mean 0 and the given std."""
        m = (n + 1) // 2
        u1 = self._uniform_open(m)
        u2 = self.uniform(m)
        r = np.sqrt(-2.0 * np.log(u1))
        ang = 2.0 * np.pi * u2
        out = np.empty(r.shape[:-1] + (2 * m,), dtype=np.float64)
        out[..., 0::2] = r * np.cos(ang)
        out[..., 1::2] = r * np.sin(ang)
        return std * out[..., :n]

    def integers(self, n: int, bound: int) -> np.ndarray:
        """``n`` integers uniform on {0, ..., bound-1}."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        return np.minimum((self.uniform(n) * bound).astype(np.int64), bound - 1)

    def permutation(self, n: int) -> np.ndarray:
        """A uniformly random permutation of range(n)."""
        return np.argsort(self.u64(n), kind="stable")
