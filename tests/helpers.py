"""Helpers that only the tests use: an l1 prox oracle, the one-image
degradation that ``data.degrade_set`` is checked against, stroke images,
dense views of analysis operators and of their weight gradients, zero weight
gradients, the stored weight count, a loss moving average, the scipy
matrices of a window scatter and of a window Gram's assembly, block-sparse
products over all windows in one stack, loop-built
reference index tables for the first-difference and block-sparse
constructors, and the image-by-image digits and byte-by-byte PGM header
tokens that ``data.synthetic_digits`` and ``data._pgm_tokens`` are checked
against.  The library itself never calls them.
"""

import numpy as np

from pdnet.data import (_JITTER_FRAC, _SEGMENTS, _TAG_NOISE, _TAG_SYNTH, PgmParseError,
                        _add_noise)
from pdnet.operators import LinearOperator, UniformBlur
from pdnet.rng import Stream, derive


def prox_l1(v: np.ndarray, t: float) -> np.ndarray:
    """Soft-thresholding: sign(v) * max(|v| - t, 0)."""
    if t <= 0:
        raise ValueError(f"threshold must be positive, got {t}")
    v = np.asarray(v, dtype=np.float64)
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


def degrade(clean: np.ndarray, a_op: LinearOperator, alpha: float,
            seed: int) -> np.ndarray:
    """z = A x + alpha * eta with seeded standard-normal eta (never clipped).

    Raises ``OverflowError`` when ``alpha * eta`` overflows float64.
    """
    if alpha < 0:
        raise ValueError("noise level alpha must be nonnegative")
    x = np.asarray(clean, dtype=np.float64)
    z = a_op.apply(x)
    if alpha == 0:
        return z
    eta = Stream(derive(seed, _TAG_NOISE)).normal(z.size).reshape(z.shape)
    return _add_noise(z, alpha, eta)


def to_dense(op) -> np.ndarray:
    """The (P, N) matrix of analysis operator ``op``, read off its products
    with the unit vectors (these count in ``ANALYSIS_MACS``)."""
    return op.apply(np.eye(op.in_dim)).T


def mask_dense(op) -> np.ndarray:
    """The (P, N) 0/1 sparsity mask of ``op``: the matrix of a clone whose
    weights are all 1."""
    ones = op.clone()
    for part in ones.parts():
        part.weights[...] = 1.0
    return to_dense(ones)


def nnz(op) -> int:
    """The stored (unmasked) weight count of analysis operator ``op``."""
    return sum(part.weights.size for part in op.parts())


def grad_zeros(op) -> list[np.ndarray]:
    """Zero weight gradients of analysis operator ``op``, one per part in
    the layout of its ``weights``."""
    return [np.zeros_like(part.weights) for part in op.parts()]


def dense_d_l(grads, params, k: int) -> np.ndarray:
    """Materialize layer k's weight gradient as a dense (P, N) matrix."""
    out = []
    for part, grad in zip(params.layers[k].analysis.parts(), grads.d_weights[k]):
        dense = np.zeros((part.out_dim, part.in_dim))
        mask = mask_dense(part)
        dense[mask == 1.0] = grad.ravel()
        out.append(dense)
    return np.vstack(out)


def reference_scatter(layout):
    """The 0/1 (N, S k) scipy CSR matrix that adds each window slot of a
    ``MaskLayout`` with F > 1 into its pixel ``site_cols.ravel()[j]``."""
    import scipy.sparse as sp

    m = layout.site_cols.size
    return sp.csr_matrix((np.ones(m), (layout.site_cols.ravel(), np.arange(m))),
                         shape=(layout.n, m))


def _reference_window_matmul(a, b, batch):
    """``np.matmul`` of two window stacks, a one-column batch padded to two."""
    if b.shape[-1] > 1 or not batch:
        return np.matmul(a, b)
    return np.matmul(a, np.concatenate([b, np.zeros_like(b)], axis=-1))[..., :1]


def reference_apply(part, v):
    """``part.apply(v)`` of a ``MaskedRowAnalysis`` with F > 1 over all S
    windows in one stack: every window's inputs gathered at once into one
    (S, k, B) array, then one GEMM per window."""
    vb = v.reshape(-1, part.in_dim)
    out = _reference_window_matmul(part._site_w, vb.T[part._layout.site_cols], v.ndim > 1)
    return out.reshape(part.out_dim, -1).T.reshape(v.shape[:-1] + (part.out_dim,))


def reference_apply_adjoint(part, w):
    """``part.apply_adjoint(w)`` of a ``MaskedRowAnalysis`` with F > 1 over
    all S windows in one stack: every window's k sums into one (S, k, B)
    array, then :func:`reference_scatter` adds them into pixels."""
    s, f, k = part._site_w.shape
    windows = _reference_window_matmul(part._site_w.transpose(0, 2, 1),
                                       w.reshape(-1, part.out_dim).T.reshape(s, f, -1),
                                       w.ndim > 1)
    out = reference_scatter(part._layout) @ windows.reshape(s * k, -1)
    return out.T.reshape(w.shape[:-1] + (part.in_dim,))


def reference_grad_outer(part, left, right):
    """``part.grad_outer(left, right)[0]`` of a ``MaskedRowAnalysis`` over
    all S windows in one stack: every window's inputs over all R rows
    gathered at once into one (S, k, R) array, then one GEMM per window."""
    s, f, k = part._site_w.shape
    outer = np.matmul(left.T.reshape(s, f, -1),
                      right.T[part._layout.site_cols].transpose(0, 2, 1))
    return outer.reshape(part.out_dim, k)


def reference_window_gram(layout):
    """(assembly, indices, indptr) of the window Gram of a ``MaskLayout`` with
    F > 1: the 0/1 scipy CSR matrix that sums the raveled (S, k, k) window
    blocks into the Gram's CSR values, and the Gram's CSR index arrays."""
    import scipy.sparse as sp

    n, (s, k) = layout.n, layout.site_cols.shape
    keys = (np.repeat(layout.site_cols, k, axis=1) * n
            + np.tile(layout.site_cols, (1, k))).ravel()
    pairs, slot = np.unique(keys, return_inverse=True)
    indptr = np.r_[0, np.cumsum(np.bincount(pairs // n, minlength=n))]
    assembly = sp.csr_matrix((np.ones(keys.size), (slot.ravel(), np.arange(keys.size))),
                             shape=(pairs.size, keys.size))
    return assembly, pairs % n, indptr


def first_difference_tables(side: int, scale: float) -> tuple[np.ndarray, np.ndarray]:
    """The (cols, vals) of periodic first differences, built pixel by pixel:
    rows 2p and 2p + 1 pair pixel p (-scale) with its right and its lower
    neighbour (+scale), each row's columns in increasing order."""
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
    return cols, vals


def block_columns(q: int, filters_per_site: int, image_side: int, sites) -> np.ndarray:
    """The column table of a block-sparse part, built site by site: each
    site's Q x Q window of pixel indices, repeated once per filter."""
    window = (np.arange(q)[:, None] * image_side + np.arange(q)[None, :]).ravel()
    rows = []
    for (r, c) in sites:
        rows.extend([r * image_side + c + window] * filters_per_site)
    return np.asarray(rows, dtype=np.int64)


def moving_average(losses: np.ndarray, at_iter: int, window: int = 100) -> float:
    """Mean of the ``window`` training losses ending at iteration ``at_iter``."""
    lo = max(0, at_iter - window + 1)
    return float(np.mean(losses[lo:at_iter + 1]))


def synthetic_strokes(count: int, side: int = 28, seed: int = 0) -> np.ndarray:
    """Handwriting-like test images: bright random strokes on black.

    Returns a (count, side*side) array with values in [0, 255].  Useful as a
    self-contained stand-in for digit datasets in desk-scale experiments.
    """
    blur = UniformBlur(3, side)
    images = np.zeros((count, side * side))
    for s in range(count):
        stream = Stream(derive(seed, _TAG_SYNTH, s))
        img = np.zeros((side, side))
        n_strokes = 1 + int(stream.uniform(1)[0] * 3)
        for _ in range(n_strokes):
            u = stream.uniform(4)
            r = 3.0 + u[0] * (side - 6)
            c = 3.0 + u[1] * (side - 6)
            ang = 2.0 * np.pi * u[2]
            steps = int(side * (0.5 + u[3]))
            turns = stream.uniform(steps)
            level = 180.0 + stream.uniform(1)[0] * 75.0
            for t in range(steps):
                ri, ci = int(round(r)), int(round(c))
                if 0 <= ri < side and 0 <= ci < side:
                    img[max(0, ri - 1):ri + 1, max(0, ci - 1):ci + 1] = level
                ang += (turns[t] - 0.5) * 0.9
                r = min(max(r + np.sin(ang), 1.0), side - 2.0)
                c = min(max(c + np.cos(ang), 1.0), side - 2.0)
        images[s] = blur.apply(img.ravel())
    return np.clip(images, 0.0, 255.0)


def synthetic_digits_per_image(count: int, side: int, seed: int) -> np.ndarray:
    """``data.synthetic_digits`` drawn and painted one image at a time, each
    segment by slicing; sides 3-5 wrap where a slice start is negative."""
    out = np.zeros((count, side * side))
    for s in range(count):
        stream = Stream(derive(seed, _TAG_SYNTH, s, 1))
        u = stream.uniform(6)
        digit = min(int(u[0] * 10), 9)
        w = max(4, int(side * (0.40 + 0.10 * u[1])))
        h = max(6, int(side * (0.60 + 0.10 * u[2])))
        jit = max(1, int(side * _JITTER_FRAC))
        x0 = (side - w) // 2 + int((u[3] - 0.5) * 2 * jit)
        y0 = (side - h) // 2 + int((u[4] - 0.5) * 2 * jit)
        x0 = min(max(x0, 0), side - w)
        y0 = min(max(y0, 0), side - h)
        t = max(2, side // 12)
        level = 200.0 + 55.0 * u[5]
        img = np.zeros((side, side))
        midy = y0 + h // 2

        def hseg(y):
            img[max(y, 0):y + t, x0:x0 + w] = level

        def vseg(x, y1, y2):
            img[y1:y2, max(x, 0):x + t] = level

        for seg in _SEGMENTS[digit]:
            if seg == "A":
                hseg(y0)
            elif seg == "D":
                hseg(y0 + h - t)
            elif seg == "G":
                hseg(midy - t // 2)
            elif seg == "F":
                vseg(x0, y0, midy)
            elif seg == "B":
                vseg(x0 + w - t, y0, midy)
            elif seg == "E":
                vseg(x0, midy, y0 + h)
            elif seg == "C":
                vseg(x0 + w - t, midy, y0 + h)
        out[s] = img.ravel()
    return out


def pgm_tokens_per_byte(data: bytes):
    """``data._pgm_tokens`` read byte by byte: the four header tokens and the
    payload offset, or ``PgmParseError``."""
    i = 0
    tokens = []
    while len(tokens) < 4:
        if i >= len(data):
            raise PgmParseError("unexpected end of PGM header")
        c = data[i:i + 1]
        if c.isspace():
            i += 1
        elif c == b"#":
            while i < len(data) and data[i:i + 1] != b"\n":
                i += 1
        else:
            j = i
            while j < len(data) and not data[j:j + 1].isspace():
                j += 1
            tokens.append(data[i:j])
            i = j
    return tokens, i + 1
