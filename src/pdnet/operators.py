"""Linear operators of the restoration problem.

Two families live here:

* degradation operators ``A`` (uniform periodic blur, decimation, identity)
  applied matrix-free, with their adjoints and exact spectral norms; the
  blur is two small circulant matrix products per image, with no FFT;
* analysis operators ``L`` (dense, block-sparse with an explicit mask,
  fusions of both) whose nonzero weights are the learnable parameters.  A
  block-sparse part multiplies window by window: one gather of each Q x Q
  window's inputs and one small GEMM over its filters; every sparse product
  (one-row windows such as first differences, the scatter into pixels, the
  window Gram) is one call to a compiled scipy.sparse kernel, loaded from
  its extension file alone (:func:`_sparse_kernels`): pdnet never imports
  the ``scipy.sparse`` package.

Operators act on the last axis of an array, so a single vector ``(n,)`` and a
batch ``(B, n)`` both work.  ``AnalysisOperator.norm`` returns an upper
bound on the spectral norm: exact for a dense part (``eigvalsh`` of its
smaller Gram, raised by its rounding bound), and for every other operator a
Lanczos bound on ``L* L``, cold from a seeded start vector, then warm from
the previous Ritz vector; a block-sparse part runs it on its explicit
window Gram.  The bound is cached and invalidated whenever weights change.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
import types
import weakref

import numpy as np

from .rng import Stream, derive

# Fixed seed for cold Lanczos start vectors: a bound is then a pure,
# reproducible function of the operator weights and the warm-start history.
_NORM_SEED = 0x9D2C5680

# Lanczos stops once the residual of its top Ritz pair is at most this much
# of the Ritz value; the bound is then at most ~5e-8 above the true norm.
_LANCZOS_TOL = 1e-7

# Lanczos basis vectors kept before a restart from the current Ritz vector.
_LANCZOS_BASIS = 40

# A warm Lanczos call solves its tridiagonal first this many steps before the
# step at which the operator's previous call converged.
_WARM_LEAD = 2

# Standard deviation of the Normal(0, stddev^2) initial analysis weights.
INIT_STDDEV = 1e-2


# Multiply-accumulates (an int) of analysis products, for the benchmark; tests zero it.
ANALYSIS_MACS = types.SimpleNamespace(count=0)


class NonFiniteNormError(RuntimeError):
    """A spectral-norm bound overflowed or met a NaN weight."""


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
        """apply_adjoint(apply(v)); overridden where a cheaper form exists.

        Always a new array, which the caller may overwrite.
        """
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
        return _check_dim(v, self.in_dim, "identity gram").copy()

    def spec(self):
        return {"kind": self.kind, "size_or_factor": 1, "image_side": self.in_dim}


class UniformBlur(LinearOperator):
    """Circular convolution with a constant ``size x size`` kernel.

    The kernel is separable: with C the ``side x side`` circulant of the 1-D
    taps ``ones(size)/size``, an image X blurs to ``C X C^T``, two small
    products per image, O(side^3).  At batch 50 (one BLAS thread, x86) its
    gram beat numpy's FFT 6x at side 28, 2x at 64, 1.4x at 128 and broke
    even near 256, past which the FFT wins.  The spectral norm is exactly 1:
    the periodic kernel is nonnegative and sums to one, so its DFT peaks at
    DC with modulus 1.
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
        c = np.zeros((image_side, image_side))
        i = np.arange(image_side)
        for d in range(-(size // 2), size // 2 + 1):  # wrapped taps add up
            c[i, (i + d) % image_side] += 1.0 / size
        self._c = c
        self._g = c.T @ c
        self.cached_norm = 1.0

    def _sandwich(self, v, left, right):
        # one pair of small GEMMs per image: a batch row gets that image's bits
        a = v.reshape(-1, self.side, self.side)
        return np.matmul(np.matmul(left, a), right).reshape(v.shape)

    def apply(self, v):
        return self._sandwich(_check_dim(v, self.in_dim, "blur apply"), self._c, self._c.T)

    def apply_adjoint(self, w):
        return self._sandwich(_check_dim(w, self.out_dim, "blur adjoint"), self._c.T, self._c)

    def gram(self, v):
        return self._sandwich(_check_dim(v, self.in_dim, "blur gram"), self._g, self._g.T)

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
        self._norm_vec: np.ndarray | None = None  # Ritz vector of the last bound
        self._norm_step = 0  # the Lanczos step at which the last bound converged

    def parts(self) -> list["AnalysisOperator"]:
        """The atomic parts, top to bottom; each holds its unmasked weights
        in one array ``weights``: (P, N) for a dense part, (P, k) for a
        masked one."""
        return [self]

    def apply(self, v: np.ndarray) -> np.ndarray:
        """L v.  Always a new array, which the caller may overwrite:
        ``pdhg.pd_step`` clips the dual in place in it."""
        raise NotImplementedError

    def clone(self) -> "AnalysisOperator":
        raise NotImplementedError

    def grad_outer(self, left: np.ndarray, right: np.ndarray) -> list[np.ndarray]:
        """sum_b left[b] (x) right[b] restricted to the mask: the weight
        gradient as one new array per part, each in its ``weights`` layout.

        left is (R, P), right is (R, N); the rows are summed in one product.
        """
        raise NotImplementedError

    def update_weights(self, deltas: list[np.ndarray], scale: float) -> None:
        """Each part's weights += scale * its delta.  Consumes ``deltas``:
        each is scaled in place, so a caller that reuses them passes copies."""
        for p, d in zip(self.parts(), deltas):
            d *= scale
            p.weights += d
        self.invalidate_norm()

    def invalidate_norm(self):
        self._norm_cache = None
        for p in self.parts():
            if p is not self:
                p._norm_cache = None

    def norm(self) -> float:
        """Upper bound on the spectral norm, cached until the next weight update.

        A dense part takes the Gram route (:meth:`DenseAnalysis._norm_bound`),
        a certain bound.  Every other operator runs :func:`_lanczos_bound` on
        ``L* L``, warm-started from the Ritz vector of its previous call or,
        cold, from a seeded Gaussian vector; a block-sparse part with F > 1
        rows per window runs it on its explicit window Gram, raised by that
        Gram's rounding bound (:meth:`MaskedRowAnalysis._lanczos_product`).
        The bound holds with high probability over the start vector, not with
        certainty, and is at most ~5e-8 above the true norm.  Raises
        :class:`NonFiniteNormError` on overflow or NaN.
        """
        if self._norm_cache is None:
            self._norm_cache = self._norm_bound()
        return self._norm_cache

    def _lanczos_product(self):
        """(product, slack) for :func:`_lanczos_bound`: ``product(v)`` is
        ``(v . L* L v, L* L v)``, here from one ``apply`` and one
        ``apply_adjoint``, and ``slack`` bounds the rounding of ``L* L``
        beyond that of the products (none here)."""
        def product(v):
            lv = self.apply(v)
            return float(np.dot(lv, lv)), self.apply_adjoint(lv)

        return product, 0.0

    def _norm_bound(self) -> float:
        start, first_check = self._norm_vec, 0
        if start is None:
            start = Stream(derive(_NORM_SEED, self.out_dim, self.in_dim)).normal(self.in_dim)
        else:  # warm: the weights moved little since the previous call
            first_check = max(0, self._norm_step - _WARM_LEAD)
        product, slack = self._lanczos_product()
        allowance = _gamma(2 * (self.in_dim + self.out_dim))  # twice a step's two products
        value, self._norm_vec, self._norm_step = _lanczos_bound(
            product, start, allowance, slack, first_check)
        return value


class DenseAnalysis(AnalysisOperator):
    """Fully populated analysis operator (all-ones mask)."""

    def __init__(self, weights: np.ndarray):
        super().__init__()
        w = np.ascontiguousarray(weights, dtype=np.float64)
        if w.ndim != 2:
            raise ValueError("dense analysis weights must be 2-D")
        self.weights = w
        self.out_dim, self.in_dim = w.shape

    def apply(self, v):
        v = _check_dim(v, self.in_dim, "analysis apply")
        ANALYSIS_MACS.count += self.weights.size * max(1, v.size // self.in_dim)
        return v @ self.weights.T

    def apply_adjoint(self, w):
        w = _check_dim(w, self.out_dim, "analysis adjoint")
        ANALYSIS_MACS.count += self.weights.size * max(1, w.size // self.out_dim)
        return w @ self.weights

    def clone(self):
        return DenseAnalysis(self.weights.copy())

    def grad_outer(self, left, right):
        return [left.T @ right]

    def _norm_bound(self):
        """sqrt of the top eigenvalue of the smaller Gram, ``W W^T`` or ``W^T W``.

        The computed Gram is off by at most gamma_n ||W||_F^2 in 2-norm, with
        n the inner dimension (Higham, Accuracy and Stability, sec. 3.1), and
        ``eigvalsh`` is backward stable: its top eigenvalue is exact for a
        Gram perturbed by at most gamma_m ||G||_F, m the Gram's size (Golub &
        Van Loan, ch. 8).  The eigenvalue is raised by both, so the result is
        a certain upper bound.
        """
        w = self.weights
        m, n = sorted(w.shape)
        with np.errstate(over="ignore", invalid="ignore"):
            gram = w @ w.T if w.shape[0] <= w.shape[1] else w.T @ w
            slack = _gamma(n) * np.vdot(w, w) + _gamma(m) * np.linalg.norm(gram)
        if not np.isfinite(gram).all():
            raise NonFiniteNormError("spectral norm bound is not finite (Gram overflow or NaN)")
        return math.sqrt(max(float(np.linalg.eigvalsh(gram)[-1]), 0.0) + slack)


def _window_matmul(a: np.ndarray, b: np.ndarray, batch: bool) -> np.ndarray:
    """``np.matmul`` of two window stacks, one GEMM per window.

    numpy hands a one-column ``b`` to GEMV, whose sums round differently.
    For a batch that column is padded to two, so a row gets the same bits in
    a batch of one as in a larger batch (``pdhg_solve`` drops finished
    rows); a single vector, as in a fused operator's Lanczos bound, keeps
    the faster GEMV.
    """
    if b.shape[-1] > 1 or not batch:
        return np.matmul(a, b)
    return np.matmul(a, np.concatenate([b, np.zeros_like(b)], axis=-1))[..., :1]


def _matvecs(kernel, rows: int, pattern, values, vb: np.ndarray) -> np.ndarray:
    """``m @ vb.T`` for a (B, n) batch ``vb`` by scipy's compiled ``kernel``,
    with ``m`` (``rows`` x n) held in the compressed arrays ``pattern``
    (indices, indptr) and ``values``.  L's CSR arrays are L^T's CSC arrays,
    so ``csr_matvecs`` on them multiplies by L and ``csc_matvecs`` by L^T,
    as it does by a window scatter on the scatter's CSC arrays.

    ``m @`` calls these kernels on a batch, and at B = 1 they add in the
    order of its single-vector kernels, so a vector and a batch alike get
    the bits of ``m @``, with no scipy matrix and no dispatch per product.
    """
    indices, indptr = pattern
    out = np.zeros((rows, len(vb)))
    kernel(rows, vb.shape[1], len(vb), indptr, indices, values, vb.T.ravel(), out.ravel())
    return out


def _sparse_kernels() -> types.ModuleType:
    """scipy's compiled sparse kernels, ``scipy.sparse._sparsetools``.

    The loaded module if ``sys.modules`` holds one; else its extension file
    in scipy's ``sparse`` directory, loaded and registered under its own
    name without running ``scipy/sparse/__init__.py`` (325 modules, about
    0.2 s and 22 MB), so a later ``import scipy.sparse`` finds and uses this
    same module.  Where scipy keeps no such file there (an editable build
    keeps its extensions elsewhere), a plain import.
    """
    name = "scipy.sparse._sparsetools"
    if name in sys.modules:
        return sys.modules[name]
    for root in importlib.util.find_spec("scipy").submodule_search_locations:
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, "sparse", "_sparsetools" + suffix)
            if os.path.isfile(path):
                loader = importlib.machinery.ExtensionFileLoader(name, path)
                spec = importlib.util.spec_from_file_location(name, path, loader=loader)
                module = importlib.util.module_from_spec(spec)
                sys.modules[name] = module
                loader.exec_module(module)
                return module
    return importlib.import_module(name)


class MaskLayout:
    """The columns of a :class:`MaskedRowAnalysis` and the index structure
    derived from them: the window size F, each window's columns, the
    compressed index arrays of L (F = 1) or of the adjoint's 0/1 scatter
    (F > 1), the window Gram's pattern (:meth:`gram_pattern`) and scipy's
    compiled kernels that run on them (:func:`_matvecs`), as
    :func:`_sparse_kernels` loads them.

    A layout never changes after construction, so operators with one column
    set share one: the K layers of a network, their clones and the models
    read back from a file.  :func:`mask_layout` finds the live one.
    """

    def __init__(self, col_index: np.ndarray, n: int):
        cols = np.ascontiguousarray(col_index, dtype=np.int64)
        if cols.ndim != 2:
            raise ValueError("col_index must be a (P, nnz) array")
        if cols.size and (cols.min() < 0 or cols.max() >= n):
            raise ValueError("column index out of range")
        if np.any(np.diff(cols, axis=1) <= 0):
            raise ValueError("row columns must be strictly increasing")
        self.cols = cols
        self.n = int(n)
        p, k = cols.shape
        # F divides every run of consecutive rows with one column set
        starts = np.flatnonzero(np.r_[True, np.any(cols[1:] != cols[:-1], axis=1)])
        self.f = int(np.gcd.reduce(np.diff(np.r_[starts, p]))) if p else 1
        self.site_cols = cols[::self.f]  # (S, k): each window's columns
        # int32 (indices, indptr) of L's CSR (F = 1: a row of k columns per
        # window) or the adjoint's 0/1 (N, S k) scatter's CSC (F > 1: a pixel per slot)
        self.csr_pattern = (self.site_cols.ravel().astype(np.int32),
                            np.arange(0, self.site_cols.size + 1, k if self.f == 1 else 1,
                                      dtype=np.int32))
        self.ones = np.ones(self.site_cols.size) if self.f > 1 else None  # scatter values
        self.kernels = _sparse_kernels()
        self._gram = None

    def gram_pattern(self):
        """(indices, indptr, slot, c) of the window Gram ``L* L`` (F > 1).

        ``L* L = sum_s P_s^T (W_s^T W_s) P_s`` has a nonzero where two pixels
        share a window.  ``indices``/``indptr`` are its CSR pattern, and
        ``slot`` names the CSR value that each entry of the (S, k, k) window
        blocks, raveled, adds into; ``c`` is the most windows sharing one
        pixel pair.  Built on first use: ``np.unique`` over the S k^2 pixel
        pairs.
        """
        if self._gram is None:
            n, (s, k) = self.n, self.site_cols.shape
            keys = (np.repeat(self.site_cols, k, axis=1) * n
                    + np.tile(self.site_cols, (1, k))).ravel()  # block entry (s, a, b)
            pairs, slot, counts = np.unique(keys, return_inverse=True, return_counts=True)
            indptr = np.r_[0, np.cumsum(np.bincount(pairs // n, minlength=n))]
            self._gram = ((pairs % n).astype(np.int32), indptr.astype(np.int32), slot,
                          int(counts.max()))
        return self._gram


# Live layouts by (N, column bytes).  An operator holds its layout, so a
# layout lives exactly as long as some operator uses it; a layout holds only
# what the columns determine, so sharing one changes no result.
_LAYOUTS = weakref.WeakValueDictionary()


def mask_layout(col_index: np.ndarray, n: int) -> MaskLayout:
    """The shared :class:`MaskLayout` of these columns, built on first use."""
    cols = np.ascontiguousarray(col_index, dtype=np.int64)
    key = (int(n), cols.shape, cols.tobytes())
    layout = _LAYOUTS.get(key)
    if layout is None:
        layout = _LAYOUTS[key] = MaskLayout(cols, n)
    return layout


class MaskedRowAnalysis(AnalysisOperator):
    """Analysis operator whose rows each carry a fixed set of active columns.

    ``layout.cols[p]`` lists the unmasked columns of row p (sorted, the same
    count k for every row); ``weights`` holds the matching (P, k) values.

    Runs of F consecutive rows that share one column set form a window: a
    block-sparse part has F = ``filters_per_site``, first differences and
    lambda * Id have F = 1.  With F > 1 the (P, k) weights are viewed as
    (S, F, k), one (F, k) matrix per window, and every product gathers each
    window's k inputs once and runs one small GEMM per window (the im2col
    lowering of a convolution layer).  The adjoint adds the (S * k, B)
    window results into their pixels with the layout's 0/1 scatter arrays.
    With F = 1 a window is a single row, and scipy's compiled CSR kernels on
    the layout's index arrays and ``weights`` are 2-3x faster at the
    solver's batch sizes: every product runs them (:func:`_matvecs`), of a
    vector or a batch.  With F > 1 the norm bound runs on the explicit N x N
    Gram instead of a product pair (:meth:`_lanczos_product`).

    This class and its :class:`MaskLayout` are the only users of scipy's
    compiled sparse kernels, which they call on their own arrays (no scipy
    matrix).  The first layout loads the kernels' extension alone
    (:func:`_sparse_kernels`), so pdnet never imports ``scipy.sparse``, and a
    process with dense parts only loads no kernel either.
    """

    def __init__(self, layout: MaskLayout, values: np.ndarray,
                 block_spec: dict | None = None):
        super().__init__()
        vals = np.ascontiguousarray(values, dtype=np.float64)
        if vals.shape != layout.cols.shape:
            raise ValueError("values must match the layout's (P, nnz) column index shape")
        self._layout = layout
        self.out_dim, k = vals.shape
        self.in_dim = layout.n
        self.block_spec = block_spec
        self.weights = vals
        self._site_w = vals.reshape(-1, layout.f, k)  # (S, F, k) view: updates reach it

    def apply(self, v):
        v = _check_dim(v, self.in_dim, "analysis apply")
        ANALYSIS_MACS.count += self.weights.size * max(1, v.size // self.in_dim)
        vb = v.reshape(-1, self.in_dim)
        if self._site_w.shape[1] > 1:
            out = _window_matmul(self._site_w, vb.T[self._layout.site_cols], v.ndim > 1)
        else:
            out = _matvecs(self._layout.kernels.csr_matvecs, self.out_dim,
                           self._layout.csr_pattern, self.weights, vb)
        return out.reshape(self.out_dim, -1).T.reshape(v.shape[:-1] + (self.out_dim,))

    def apply_adjoint(self, w):
        w = _check_dim(w, self.out_dim, "analysis adjoint")
        ANALYSIS_MACS.count += self.weights.size * max(1, w.size // self.out_dim)
        s, f, k = self._site_w.shape
        layout, wb, values = self._layout, w.reshape(-1, self.out_dim), self.weights
        if f > 1:  # each window's k sums, which the 0/1 scatter adds into pixels
            windows = _window_matmul(self._site_w.transpose(0, 2, 1), wb.T.reshape(s, f, -1),
                                     w.ndim > 1)
            wb, values = windows.reshape(s * k, -1).T, layout.ones
        out = _matvecs(layout.kernels.csc_matvecs, self.in_dim, layout.csr_pattern, values, wb)
        return out.T.reshape(w.shape[:-1] + (self.in_dim,))

    def clone(self):
        """A copy of the weights on the same (shared) layout and block spec."""
        return MaskedRowAnalysis(self._layout, self.weights.copy(), self.block_spec)

    def grad_outer(self, left, right):
        # out[p, j] = sum_b left[b, p] * right[b, cols[p, j]]: one gather of
        # every window's inputs over all R rows, one GEMM per window
        s, f, k = self._site_w.shape
        outer = np.matmul(left.T.reshape(s, f, -1),
                          right.T[self._layout.site_cols].transpose(0, 2, 1))
        return [outer.reshape(self.out_dim, k)]

    def _lanczos_product(self):
        """With F > 1, ``G v`` for the explicit Gram G = L* L, refreshed here.

        The (S, k, k) blocks ``W_s^T W_s`` come from one batched product and
        are summed into G's CSR values by one ``np.bincount`` over ``slot``;
        both count in ``ANALYSIS_MACS``, as does each ``csr_matvec`` G v.  An
        entry of G sums at most F + c products, c the most windows sharing a
        pixel pair, so the computed G is off by at most gamma_{F+c} ||L||_F^2
        in 2-norm (Higham, Accuracy and Stability, sec. 3.5): the slack.
        """
        s, f, k = self._site_w.shape
        if f == 1:
            return super()._lanczos_product()
        indices, indptr, slot, c = self._layout.gram_pattern()
        n, matvec = self.in_dim, self._layout.kernels.csr_matvec
        with np.errstate(over="ignore", invalid="ignore"):  # checked by the bound
            # the contiguous copy takes numpy's faster batched kernel
            blocks = np.matmul(np.ascontiguousarray(self._site_w.transpose(0, 2, 1)),
                               self._site_w)
            # each value adds its block entries in ascending order, as a 0/1 CSR row would
            values = np.bincount(slot, weights=blocks.ravel(), minlength=indices.size)
            slack = _gamma(f + c) * float(np.vdot(self.weights, self.weights))
        ANALYSIS_MACS.count += s * f * k * k + slot.size

        def product(v):
            ANALYSIS_MACS.count += values.size
            w = np.zeros(n)
            matvec(n, n, indptr, indices, values, v, w)
            return float(np.dot(v, w)), w

        return product, slack


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

    def grad_outer(self, left, right):
        return [g for p, s, e in zip(self._parts, self._offsets[:-1], self._offsets[1:])
                for g in p.grad_outer(left[:, s:e], right)]


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


def block_sites(image_side: int, q: int, stride: int, rule: str) -> list[tuple[int, int]]:
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


def block_sparse_analysis(q: int, stride: int, filters_per_site: int, image_side: int,
                          sites: list[tuple[int, int]], weights: np.ndarray) -> MaskedRowAnalysis:
    """Block-sparse operator: each row holds a Q x Q window of weights.

    Rows are grouped per site (``filters_per_site`` rows per window
    position, in ``sites`` order); ``weights`` holds the rows x Q^2 values.
    """
    q, stride, s = int(q), int(stride), int(filters_per_site)
    if s < 1:
        raise ValueError("filters_per_site must be >= 1")
    n = image_side * image_side
    window = (np.arange(q)[:, None] * image_side + np.arange(q)[None, :]).ravel()
    corners = np.asarray(sites, dtype=np.int64).reshape(-1, 2)
    outside = ((corners < 0) | (corners + q > image_side)).any(axis=1)
    if outside.any():
        r, c = sites[int(np.argmax(outside))]
        raise ValueError(f"site ({r}, {c}) puts a {q}x{q} window out of bounds")
    cols = np.repeat((corners[:, 0] * image_side + corners[:, 1])[:, None] + window, s, axis=0)
    spec = {
        "q": q,
        "stride": stride,
        "filters_per_site": s,
        "image_side": int(image_side),
        "sites": [(int(r), int(c)) for r, c in sites],
    }
    return MaskedRowAnalysis(mask_layout(cols, n), np.reshape(weights, cols.shape),
                             block_spec=spec)


def make_block_sparse_analysis(q: int, stride: int, filters_per_site: int,
                               image_side: int, seed: int, site_rule: str,
                               stddev: float = INIT_STDDEV) -> MaskedRowAnalysis:
    """:func:`block_sparse_analysis` with i.i.d. Normal(0, stddev^2) weights
    on the sites :func:`block_sites` places by ``site_rule``."""
    sites = block_sites(image_side, int(q), int(stride), site_rule)
    count = len(sites) * max(int(filters_per_site), 0) * int(q) ** 2
    return block_sparse_analysis(q, stride, filters_per_site, image_side, sites,
                                 Stream(seed).normal(count, std=stddev))


def make_scaled_identity_analysis(n: int, scale: float) -> MaskedRowAnalysis:
    """lambda * Id as an analysis operator (one weight per row)."""
    cols = np.arange(n, dtype=np.int64)[:, None]
    vals = np.full((n, 1), float(scale))
    return MaskedRowAnalysis(mask_layout(cols, n), vals)


def make_first_difference(image_side: int, scale: float = 1.0) -> MaskedRowAnalysis:
    """Periodic horizontal+vertical first differences, scaled by ``scale``."""
    side = int(image_side)
    n = side * side
    i, j = np.divmod(np.arange(n), side)
    # rows 2p, 2p + 1: pixel p (-scale), its right/lower neighbour (+scale), columns sorted
    here = np.repeat(np.arange(n), 2)
    other = np.stack([i * side + (j + 1) % side, (i + 1) % side * side + j], axis=1).ravel()
    first = np.where(here < other, -scale, scale)
    return MaskedRowAnalysis(mask_layout(np.sort(np.stack([here, other], axis=1), axis=1), n),
                             np.stack([first, -first], axis=1))


def fuse_analysis(parts: list[AnalysisOperator]) -> AnalysisOperator:
    """Stack analysis operators vertically; a single part is returned as is."""
    if len(parts) == 1:
        return parts[0]
    return FusedAnalysis(parts)


# ---------------------------------------------------------------------------
# Spectral norm bounds
# ---------------------------------------------------------------------------


def _gamma(n: int) -> float:
    """Higham's gamma_n = n u / (1 - n u), the rounding bound of an n-term sum."""
    u = np.finfo(np.float64).eps / 2
    return n * u / (1.0 - n * u)


@np.errstate(over="ignore", invalid="ignore")  # a non-finite step raises below
def _lanczos_bound(product, start: np.ndarray, allowance: float, slack: float,
                   first_check: int) -> tuple[float, np.ndarray, int]:
    """Upper bound on ``sqrt(lambda_max(G))`` for a symmetric positive
    semidefinite G = ``L* L``, by Lanczos: (bound, Ritz vector, last step).

    ``product(v)`` returns ``(v . G v, G v)``: one ``apply`` and one
    ``apply_adjoint``, or one product with an explicit G whose rounding
    ``slack`` bounds.  Each step takes one product and reorthogonalizes
    against the whole basis twice, which keeps the basis orthogonal to
    working precision even when a degenerate spectrum (first differences)
    ends the Krylov space early.  The largest Ritz value theta of the
    tridiagonal T, with unit Ritz vector y, has the residual
    ``rho = ||G y - theta y|| = beta * |s_last|`` (Parlett, The Symmetric
    Eigenvalue Problem, ch. 11), and some eigenvalue of G lies within rho of
    theta.  Iteration stops once rho <= ``_LANCZOS_TOL * theta``.  A
    breakdown, beta <= ``_LANCZOS_TOL`` times the largest diagonal entry of T
    (that entry is <= theta), leaves the Krylov space invariant and passes
    that test too, since rho <= beta.  A full basis restarts from y.
    The bound is sqrt(theta + rho + slack), with rho raised to the rounding
    ``allowance`` of the products times theta.  That the eigenvalue near
    theta is the largest holds with high probability over the start vector,
    not with certainty (Kuczynski & Wozniakowski 1992, SIAM J. Matrix Anal.
    Appl. 13(4)).

    ``eigh`` of T costs more than a step's products once T passes about 20
    rows, so T is solved only at checkpoints: at step ``first_check`` (0
    cold; for a warm call a few steps before the step at which the previous
    call converged, which is returned as the last step), at the next step,
    then half-way to where the residual's geometric rate since the last
    checkpoint predicts it reaches the tolerance.  A restart keeps the cold
    schedule.
    """
    y = start / np.linalg.norm(start)
    n = y.size
    check = min(first_check, _LANCZOS_BASIS - 1)
    while True:
        basis = np.empty((_LANCZOS_BASIS, n))
        t = np.zeros((_LANCZOS_BASIS, _LANCZOS_BASIS))
        basis[0] = y
        last, top = None, 0.0
        for j in range(_LANCZOS_BASIS):
            alpha, w = product(basis[j])
            q = basis[:j + 1]
            for _ in range(2):
                w -= (q @ w) @ q
            beta = math.sqrt(np.dot(w, w))
            if not math.isfinite(alpha + beta):
                raise NonFiniteNormError(f"spectral norm bound is not finite ({alpha + beta})")
            t[j, j] = alpha
            top = max(top, alpha)
            if j == check or j + 1 == _LANCZOS_BASIS or beta <= _LANCZOS_TOL * top:
                evals, evecs = np.linalg.eigh(t[:j + 1, :j + 1])
                theta = max(float(evals[-1]), 0.0)
                rho = beta * abs(evecs[-1, -1])
                if rho <= _LANCZOS_TOL * theta or j + 1 == _LANCZOS_BASIS:
                    break
                check = j + 1
                if last is not None and rho < last[1]:
                    rate = math.log(rho / last[1]) / (j - last[0])
                    check = j + max(1, int(math.log(_LANCZOS_TOL * theta / rho) / rate / 2))
                last = (j, rho)
            np.divide(w, beta, out=basis[j + 1])
            t[j, j + 1] = t[j + 1, j] = beta
        y = evecs[:, -1] @ q
        y /= np.linalg.norm(y)
        if rho <= _LANCZOS_TOL * theta:
            bound = math.sqrt(theta + max(rho, allowance * theta) + slack)
            if not math.isfinite(bound):
                raise NonFiniteNormError(f"spectral norm bound is not finite ({bound})")
            return bound, y, j
        check = 0
