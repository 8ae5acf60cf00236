"""Linear operators of the restoration problem.

Two families live here:

* degradation operators ``A`` (uniform periodic blur, decimation, identity)
  applied matrix-free, with their adjoints and exact spectral norms;
* analysis operators ``L`` (dense, block-sparse with an explicit mask,
  fusions of both) whose nonzero weights are the learnable parameters.

Operators act on the last axis of an array, so a single vector ``(n,)`` and a
batch ``(B, n)`` both work.  Spectral norms of analysis operators are
estimated by power iteration on ``L* L`` with a deterministic start vector;
the result is cached and invalidated whenever weights change.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp

from .rng import Stream, derive

# Fixed seed for power-iteration start vectors: estimates are then a pure,
# reproducible function of the operator weights.
_NORM_SEED = 0x9D2C5680

# Power iteration stops once the eigenvalue estimate changes by at most this
# much, relative; every norm the library takes uses it.
NORM_TOL = 1e-9

# Standard deviation of the Normal(0, stddev^2) initial analysis weights.
INIT_STDDEV = 1e-2


class _MacCounter:
    """Multiply-accumulate counter for analysis-operator applications."""

    def __init__(self):
        self.count = 0

    def add(self, n: int):
        self.count += int(n)

    def reset(self):
        self.count = 0


ANALYSIS_MACS = _MacCounter()


class PowerIterationError(RuntimeError):
    """Power iteration hit max_iter or a non-finite estimate; carries the last one."""

    def __init__(self, message: str, last_estimate: float):
        super().__init__(message)
        self.last_estimate = float(last_estimate)


def _check_dim(v: np.ndarray, dim: int, what: str) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    if v.shape[-1] != dim:
        raise ValueError(f"{what}: expected last dimension {dim}, got {v.shape[-1]}")
    return v


class LinearOperator:
    """Matrix-free linear map with an adjoint."""

    in_dim: int
    out_dim: int

    def apply(self, v: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def apply_adjoint(self, w: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def gram(self, v: np.ndarray) -> np.ndarray:
        """apply_adjoint(apply(v)); overridden where a cheaper form exists."""
        return self.apply_adjoint(self.apply(v))


# ---------------------------------------------------------------------------
# Degradation operators
# ---------------------------------------------------------------------------


class IdentityOperator(LinearOperator):
    kind = "identity"

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError("dimension must be >= 1")
        self.in_dim = self.out_dim = int(dim)
        self.cached_norm = 1.0

    def apply(self, v):
        return _check_dim(v, self.in_dim, "identity apply")

    def apply_adjoint(self, w):
        return _check_dim(w, self.out_dim, "identity adjoint")

    def gram(self, v):
        return _check_dim(v, self.in_dim, "identity gram")

    def spec(self):
        return {"kind": self.kind, "size_or_factor": 1, "image_side": self.in_dim}


class UniformBlur(LinearOperator):
    """Circular convolution with a constant ``size x size`` kernel.

    Periodic boundaries keep the operator square and make its spectral norm
    the maximum modulus of the kernel's 2-D DFT, which is exactly 1 for a
    nonnegative kernel summing to one.
    """

    kind = "uniform-blur"

    def __init__(self, size: int, image_side: int):
        size = int(size)
        image_side = int(image_side)
        if size < 1 or size % 2 == 0:
            raise ValueError(f"blur size must be odd and positive, got {size}")
        if size > image_side:
            raise ValueError(f"blur size {size} exceeds image side {image_side}")
        self.size = size
        self.side = image_side
        self.in_dim = self.out_dim = image_side * image_side
        kernel = np.zeros((image_side, image_side))
        h = size // 2
        w = 1.0 / (size * size)
        for di in range(-h, h + 1):
            for dj in range(-h, h + 1):
                kernel[di % image_side, dj % image_side] += w
        self._otf = np.fft.rfft2(kernel)
        self._gram_mult = (self._otf * np.conj(self._otf)).real
        self.cached_norm = float(np.sqrt(self._gram_mult.max()))

    def _convolve(self, v, mult):
        shape = v.shape
        a = v.reshape(-1, self.side, self.side)
        out = np.fft.irfft2(np.fft.rfft2(a) * mult, s=(self.side, self.side))
        return out.reshape(shape)

    def apply(self, v):
        return self._convolve(_check_dim(v, self.in_dim, "blur apply"), self._otf)

    def apply_adjoint(self, w):
        return self._convolve(
            _check_dim(w, self.out_dim, "blur adjoint"), np.conj(self._otf)
        )

    def gram(self, v):
        # one FFT round trip instead of two
        return self._convolve(_check_dim(v, self.in_dim, "blur gram"), self._gram_mult)

    def spec(self):
        return {"kind": self.kind, "size_or_factor": self.size, "image_side": self.side}


class Decimation(LinearOperator):
    """Keep every ``factor``-th pixel per axis (sites at multiples of factor)."""

    kind = "decimation"

    def __init__(self, factor: int, image_side: int):
        factor = int(factor)
        image_side = int(image_side)
        if factor < 1 or image_side % factor != 0:
            raise ValueError(
                f"decimation factor {factor} must divide image side {image_side}"
            )
        self.factor = factor
        self.side = image_side
        self.out_side = image_side // factor
        self.in_dim = image_side * image_side
        self.out_dim = self.out_side * self.out_side
        self.cached_norm = 1.0

    def apply(self, v):
        v = _check_dim(v, self.in_dim, "decimation apply")
        a = v.reshape(v.shape[:-1] + (self.side, self.side))
        d = self.factor
        return a[..., ::d, ::d].reshape(v.shape[:-1] + (self.out_dim,))

    def apply_adjoint(self, w):
        w = _check_dim(w, self.out_dim, "decimation adjoint")
        out = np.zeros(w.shape[:-1] + (self.side, self.side))
        d = self.factor
        out[..., ::d, ::d] = w.reshape(w.shape[:-1] + (self.out_side, self.out_side))
        return out.reshape(w.shape[:-1] + (self.in_dim,))

    def spec(self):
        return {"kind": self.kind, "size_or_factor": self.factor, "image_side": self.side}


def degradation_from_spec(d: dict) -> LinearOperator:
    """Rebuild a degradation operator from its serialized spec dict; its sizes
    must be JSON integers."""
    kind = d.get("kind")
    make = {"identity": IdentityOperator, "uniform-blur": UniformBlur,
            "decimation": Decimation}.get(kind)
    if make is None:
        raise ValueError(f"unknown degradation kind: {kind!r}")
    keys = ("image_side",) if kind == "identity" else ("size_or_factor", "image_side")
    for key in keys:
        if isinstance(d.get(key), bool) or not isinstance(d.get(key), int):
            raise ValueError(f"degradation {key} must be an integer, got {d.get(key)!r}")
    return make(*(d[key] for key in keys))


# ---------------------------------------------------------------------------
# Analysis operators
# ---------------------------------------------------------------------------


class AnalysisOperator(LinearOperator):
    """Learnable P x N linear map with an explicit sparsity mask.

    Weight storage is compact (only unmasked entries), which keeps the cost
    of ``apply`` proportional to the nonzero count and makes the mask
    invariant "masked weights stay exactly zero" hold by construction.
    """

    def __init__(self):
        self._norm_cache: float | None = None
        self._norm_vec: np.ndarray | None = None

    def parts(self) -> list["AnalysisOperator"]:
        return [self]

    @property
    def nnz(self) -> int:
        raise NotImplementedError

    def clone(self) -> "AnalysisOperator":
        raise NotImplementedError

    # -- weights as a flat list of arrays, one per atomic part --------------

    def weight_arrays(self) -> list[np.ndarray]:
        raise NotImplementedError

    def grad_zeros(self) -> list[np.ndarray]:
        return [np.zeros_like(w) for w in self.weight_arrays()]

    def grad_outer(self, acc: list[np.ndarray], left: np.ndarray,
                   right: np.ndarray, coeff: float) -> None:
        """acc += coeff * sum_b left[b] (x) right[b], restricted to the mask.

        left is (B, P), right is (B, N); acc matches :meth:`grad_zeros`.
        """
        raise NotImplementedError

    def update_weights(self, deltas: list[np.ndarray], scale: float) -> None:
        for w, d in zip(self.weight_arrays(), deltas):
            w += scale * d
        self.invalidate_norm()

    def invalidate_norm(self):
        self._norm_cache = None
        for p in self.parts():
            if p is not self:
                p._norm_cache = None

    def norm(self, tol: float = NORM_TOL, max_iter: int = 200_000) -> float:
        """Spectral norm, cached until the next weight update."""
        if self._norm_cache is None:
            start = self._norm_vec
            if start is None:
                start = Stream(derive(_NORM_SEED, self.out_dim, self.in_dim)).normal(
                    self.in_dim
                )
            value, vec = _power_iteration(self, tol, max_iter, start)
            self._norm_cache = value
            if vec is not None:
                self._norm_vec = vec
        return self._norm_cache


class DenseAnalysis(AnalysisOperator):
    """Fully populated analysis operator (all-ones mask)."""

    def __init__(self, weights: np.ndarray):
        super().__init__()
        w = np.ascontiguousarray(weights, dtype=np.float64)
        if w.ndim != 2:
            raise ValueError("dense analysis weights must be 2-D")
        self._weights = w
        self.out_dim, self.in_dim = w.shape

    @property
    def nnz(self) -> int:
        return self._weights.size

    def apply(self, v):
        v = _check_dim(v, self.in_dim, "analysis apply")
        ANALYSIS_MACS.add(self.nnz * max(1, v.size // self.in_dim))
        return v @ self._weights.T

    def apply_adjoint(self, w):
        w = _check_dim(w, self.out_dim, "analysis adjoint")
        ANALYSIS_MACS.add(self.nnz * max(1, w.size // self.out_dim))
        return w @ self._weights

    def clone(self):
        return DenseAnalysis(self._weights.copy())

    def weight_arrays(self):
        return [self._weights]

    def grad_outer(self, acc, left, right, coeff):
        acc[0] += coeff * (left.T @ right)


class MaskedRowAnalysis(AnalysisOperator):
    """Analysis operator whose rows each carry a fixed set of active columns.

    ``col_index[p]`` lists the unmasked columns of row p (sorted, the same
    count for every row); ``values`` holds the matching weights.  Backed by a
    CSR matrix sharing the value buffer, so products run in O(P * nnz_row).
    """

    def __init__(self, col_index: np.ndarray, values: np.ndarray, n: int,
                 block_spec: dict | None = None):
        super().__init__()
        cols = np.ascontiguousarray(col_index, dtype=np.int64)
        vals = np.ascontiguousarray(values, dtype=np.float64)
        if cols.shape != vals.shape or cols.ndim != 2:
            raise ValueError("col_index and values must share a (P, nnz) shape")
        if cols.size and (cols.min() < 0 or cols.max() >= n):
            raise ValueError("column index out of range")
        if np.any(np.diff(cols, axis=1) <= 0):
            raise ValueError("row columns must be strictly increasing")
        self._cols = cols
        self._vals = vals
        self.out_dim = cols.shape[0]
        self.in_dim = int(n)
        self.block_spec = block_spec
        p, k = cols.shape
        self._csr = sp.csr_matrix(
            (self._vals.ravel(), cols.ravel(), np.arange(0, (p + 1) * k, k)),
            shape=(p, n),
        )
        # keep the learnable buffer authoritative even if scipy copied it
        self._vals = self._csr.data.reshape(p, k)
        # the CSC transpose shares that buffer, so weight updates reach it too
        self._csr_t = self._csr.T

    @property
    def nnz(self) -> int:
        return self._vals.size

    def apply(self, v):
        v = _check_dim(v, self.in_dim, "analysis apply")
        ANALYSIS_MACS.add(self.nnz * max(1, v.size // self.in_dim))
        if v.ndim == 1:
            return self._csr @ v
        return (self._csr @ v.reshape(-1, self.in_dim).T).T.reshape(
            v.shape[:-1] + (self.out_dim,)
        )

    def apply_adjoint(self, w):
        w = _check_dim(w, self.out_dim, "analysis adjoint")
        ANALYSIS_MACS.add(self.nnz * max(1, w.size // self.out_dim))
        if w.ndim == 1:
            return self._csr_t @ w
        return (self._csr_t @ w.reshape(-1, self.out_dim).T).T.reshape(
            w.shape[:-1] + (self.in_dim,)
        )

    def clone(self):
        return MaskedRowAnalysis(
            self._cols.copy(), self._vals.copy(), self.in_dim,
            block_spec=None if self.block_spec is None else dict(self.block_spec),
        )

    def weight_arrays(self):
        return [self._vals]

    def grad_outer(self, acc, left, right, coeff):
        # acc[p, j] += coeff * sum_b left[b, p] * right[b, cols[p, j]]
        b = left.shape[0]
        chunk = max(1, int(4e6) // max(1, self.nnz))
        for s in range(0, b, chunk):
            gathered = right[s:s + chunk][:, self._cols]
            acc[0] += coeff * np.einsum("bp,bpj->pj", left[s:s + chunk], gathered)


class FusedAnalysis(AnalysisOperator):
    """Vertical stacking of analysis operators sharing the input dimension."""

    def __init__(self, parts: list[AnalysisOperator]):
        super().__init__()
        flat: list[AnalysisOperator] = []
        for p in parts:
            flat.extend(p.parts())
        if not flat:
            raise ValueError("fusion needs at least one part")
        n = flat[0].in_dim
        for p in flat:
            if p.in_dim != n:
                raise ValueError(
                    f"fused parts disagree on input dimension: {p.in_dim} vs {n}"
                )
        self._parts = flat
        self.in_dim = n
        self.out_dim = sum(p.out_dim for p in flat)
        self._offsets = np.cumsum([0] + [p.out_dim for p in flat])

    def parts(self):
        return list(self._parts)

    @property
    def nnz(self) -> int:
        return sum(p.nnz for p in self._parts)

    def apply(self, v):
        return np.concatenate([p.apply(v) for p in self._parts], axis=-1)

    def apply_adjoint(self, w):
        w = _check_dim(w, self.out_dim, "analysis adjoint")
        out = None
        for p, s, e in zip(self._parts, self._offsets[:-1], self._offsets[1:]):
            contrib = p.apply_adjoint(w[..., s:e])
            out = contrib if out is None else out + contrib
        return out

    def clone(self):
        return FusedAnalysis([p.clone() for p in self._parts])

    def weight_arrays(self):
        return [w for p in self._parts for w in p.weight_arrays()]

    def grad_outer(self, acc, left, right, coeff):
        i = 0
        for p, s, e in zip(self._parts, self._offsets[:-1], self._offsets[1:]):
            k = len(p.weight_arrays())
            p.grad_outer(acc[i:i + k], left[:, s:e], right, coeff)
            i += k


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------


def make_dense_analysis(p: int, n: int, seed: int,
                        stddev: float = INIT_STDDEV) -> DenseAnalysis:
    """Dense P x N operator with i.i.d. Normal(0, stddev^2) entries."""
    if p < 1 or n < 1:
        raise ValueError("dense analysis needs p >= 1 and n >= 1")
    w = Stream(seed).normal(p * n, std=stddev).reshape(p, n)
    return DenseAnalysis(w)


def block_sites(image_side: int, q: int, stride: int, rule: str = "fit") -> list[tuple[int, int]]:
    """Top-left corners of the sliding Q x Q windows, row-major.

    ``fit``      : corners at multiples of stride with corner + q <= side.
    ``interior`` : floor((side - q) / stride) corners per axis, i.e. the
                   boundary window is dropped even when it fits.
    """
    if q > image_side:
        raise ValueError(f"window size {q} exceeds image side {image_side}")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    if rule == "fit":
        axis = list(range(0, image_side - q + 1, stride))
    elif rule == "interior":
        count = max(1, (image_side - q) // stride) if image_side > q else 1
        axis = [i * stride for i in range(count)]
    else:
        raise ValueError(f"unknown site rule: {rule!r}")
    return [(r, c) for r in axis for c in axis]


def make_block_sparse_analysis(q: int, stride: int, filters_per_site: int,
                               image_side: int, seed: int, stddev: float = INIT_STDDEV,
                               sites: list[tuple[int, int]] | None = None,
                               site_rule: str = "fit") -> MaskedRowAnalysis:
    """Block-sparse operator: each row holds a Q x Q window of weights.

    Rows are grouped per site (``filters_per_site`` rows per window
    position).  The site list defaults to :func:`block_sites` but can be
    injected explicitly.
    """
    q, stride, s = int(q), int(stride), int(filters_per_site)
    if s < 1:
        raise ValueError("filters_per_site must be >= 1")
    if sites is None:
        sites = block_sites(image_side, q, stride, rule=site_rule)
    n = image_side * image_side
    window = (np.arange(q)[:, None] * image_side + np.arange(q)[None, :]).ravel()
    rows = []
    for (r, c) in sites:
        if r < 0 or c < 0 or r + q > image_side or c + q > image_side:
            raise ValueError(f"site ({r}, {c}) puts a {q}x{q} window out of bounds")
        base = r * image_side + c
        rows.extend([base + window] * s)
    cols = np.asarray(rows, dtype=np.int64)
    vals = Stream(seed).normal(cols.size, std=stddev).reshape(cols.shape)
    spec = {
        "q": q,
        "stride": stride,
        "filters_per_site": s,
        "image_side": int(image_side),
        "sites": [(int(r), int(c)) for r, c in sites],
    }
    return MaskedRowAnalysis(cols, vals, n, block_spec=spec)


def make_scaled_identity_analysis(n: int, scale: float) -> MaskedRowAnalysis:
    """lambda * Id as an analysis operator (one weight per row)."""
    cols = np.arange(n, dtype=np.int64)[:, None]
    vals = np.full((n, 1), float(scale))
    return MaskedRowAnalysis(cols, vals, n)


def make_first_difference(image_side: int, scale: float = 1.0) -> MaskedRowAnalysis:
    """Periodic horizontal+vertical first differences, scaled by ``scale``."""
    side = int(image_side)
    n = side * side
    cols = np.empty((2 * n, 2), dtype=np.int64)
    vals = np.empty((2 * n, 2))
    row = 0
    for i in range(side):
        for j in range(side):
            here = i * side + j
            right = i * side + (j + 1) % side
            down = ((i + 1) % side) * side + j
            for other in (right, down):
                pair = sorted([(here, -scale), (other, scale)])
                cols[row] = [pair[0][0], pair[1][0]]
                vals[row] = [pair[0][1], pair[1][1]]
                row += 1
    return MaskedRowAnalysis(cols, vals, n)


def fuse_analysis(parts: list[AnalysisOperator]) -> AnalysisOperator:
    """Stack analysis operators vertically; a single part is returned as is."""
    if len(parts) == 1:
        return parts[0]
    return FusedAnalysis(parts)


# ---------------------------------------------------------------------------
# Spectral norm estimation
# ---------------------------------------------------------------------------


def _power_iteration(op: LinearOperator, tol: float, max_iter: int,
                     start: np.ndarray):
    """Largest singular value of ``op`` via power iteration on op* op.

    Returns (norm, principal_vector).  Stops when the Rayleigh-quotient
    eigenvalue estimate changes by at most ``tol`` relative.
    """
    v = np.asarray(start, dtype=np.float64)
    nv = np.linalg.norm(v)
    if nv == 0.0:
        raise ValueError("power iteration start vector must be nonzero")
    v = v / nv
    lam_prev = None
    lam = 0.0
    for _ in range(int(max_iter)):
        av = op.apply(v)
        lam = float(np.vdot(av, av))
        if not math.isfinite(lam):
            raise PowerIterationError(
                f"power iteration estimate is not finite ({lam})", lam)
        if lam == 0.0:
            return 0.0, None
        if lam_prev is not None and abs(lam - lam_prev) <= tol * lam:
            return float(np.sqrt(lam)), v
        lam_prev = lam
        w = op.apply_adjoint(av)
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0, None
        v = w / nw
    raise PowerIterationError(
        f"power iteration did not converge within {max_iter} iterations "
        f"(last estimate {np.sqrt(lam):.6e})",
        np.sqrt(lam),
    )
