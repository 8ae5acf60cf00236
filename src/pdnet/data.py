"""Dataset ingestion, degradation synthesis, and image-quality metrics.

Pixels live on the 8-bit gray scale [0, 255] throughout; measurements are
kept unclipped (the degradation model is linear-Gaussian) and restored
images are clipped only when exported to files.
"""

from __future__ import annotations

import math
import re
import struct
from dataclasses import dataclass

import numpy as np

from .network import NetworkParams, forward, row_pieces
from .operators import LinearOperator
from .rng import Stream, derive

_TAG_NOISE = 0x4015E
_TAG_PATCH = 0x9A7C8
_TAG_SYNTH = 0x57207
_TAG_EXTRA = 0xBE7A0


class IdxParseError(ValueError):
    """Structured failure while reading an IDX file."""


class PgmParseError(ValueError):
    """Structured failure while reading a binary PGM file."""


@dataclass
class Dataset:
    """Aligned pairs of square clean and degraded images plus their recipe."""

    clean: np.ndarray  # (n, N)
    degraded: np.ndarray  # (n, M)
    degradation: LinearOperator
    noise_alpha: float
    seed: int

    def __len__(self) -> int:
        return self.clean.shape[0]

    @property
    def side(self) -> int:
        return math.isqrt(self.clean.shape[1])


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------


def _read_exact(data: bytes, offset: int, count: int, what: str) -> bytes:
    if offset + count > len(data):
        raise IdxParseError(
            f"truncated IDX file: {what} needs bytes [{offset}, {offset + count}) "
            f"but the file holds {len(data)} bytes"
        )
    return data[offset:offset + count]


def load_idx(images_path: str, labels_path: str | None = None) -> np.ndarray:
    """Parse big-endian IDX image data (magic 0x00000803) into a float
    ``(count, rows, cols)`` array.

    When ``labels_path`` is given, its magic (0x00000801) and item count are
    validated against the image count; label values are not returned since
    restoration never uses them.
    """
    with open(images_path, "rb") as f:
        data = f.read()
    (magic,) = struct.unpack(">I", _read_exact(data, 0, 4, "magic"))
    if magic != 0x00000803:
        raise IdxParseError(
            f"bad IDX image magic 0x{magic:08x} at offset 0 (expected 0x00000803)"
        )
    count, rows, cols = struct.unpack(">III", _read_exact(data, 4, 12, "dimensions"))
    if rows != cols:
        raise IdxParseError(f"only square images supported, got {rows}x{cols}")
    payload = _read_exact(data, 16, count * rows * cols, f"{count} images")
    if len(data) > 16 + count * rows * cols:
        raise IdxParseError(
            f"trailing bytes: expected {16 + count * rows * cols}, found {len(data)}"
        )
    if labels_path is not None:
        with open(labels_path, "rb") as f:
            ldata = f.read()
        (lmagic,) = struct.unpack(">I", _read_exact(ldata, 0, 4, "label magic"))
        if lmagic != 0x00000801:
            raise IdxParseError(
                f"bad IDX label magic 0x{lmagic:08x} (expected 0x00000801)"
            )
        (lcount,) = struct.unpack(">I", _read_exact(ldata, 4, 4, "label count"))
        if lcount != count:
            raise IdxParseError(f"label count {lcount} != image count {count}")
    return np.frombuffer(payload, dtype=np.uint8).astype(np.float64).reshape(count, rows, cols)


# Four times: whitespace and # comments, then a token.  The lookaheads end a
# comment only at its newline and a token only at whitespace, so a failed
# match cannot backtrack into splitting either.
_PGM_HEADER = re.compile(rb"(?:\s|#[^\n]*(?![^\n]))*([^\s#]\S*)(?!\S)" * 4)


def _pgm_tokens(data: bytes):
    """Header tokens of a PGM, skipping whitespace and # comments."""
    header = _PGM_HEADER.match(data)
    if header is None:
        raise PgmParseError("unexpected end of PGM header")
    return list(header.groups()), header.end() + 1  # one whitespace byte ends the header


def load_pgm(path: str) -> np.ndarray:
    """Read a binary (P5) PGM with maxval 255 into a float 2-D array."""
    with open(path, "rb") as f:
        data = f.read()
    tokens, start = _pgm_tokens(data)
    if tokens[0] != b"P5":
        raise PgmParseError(f"not a binary PGM: magic {tokens[0]!r} (expected P5)")
    try:
        cols, rows, maxval = (int(t) for t in tokens[1:])
    except ValueError as exc:
        raise PgmParseError(f"non-numeric PGM header field: {exc}") from exc
    if maxval != 255:
        raise PgmParseError(f"unsupported PGM maxval {maxval} (expected 255)")
    if rows < 1 or cols < 1:
        raise PgmParseError(f"bad PGM dimensions {cols}x{rows}")
    need = rows * cols
    body = data[start:start + need]
    if len(body) < need:
        raise PgmParseError(
            f"truncated PGM payload: expected {need} bytes, found {len(body)}"
        )
    return np.frombuffer(body, dtype=np.uint8).astype(np.float64).reshape(rows, cols)


def save_pgm(path: str, raster_2d: np.ndarray) -> None:
    """Write a 2-D array as binary PGM, clipping and rounding to [0, 255]."""
    a = np.asarray(raster_2d)
    if a.ndim != 2:
        raise ValueError("save_pgm expects a 2-D array")
    body = np.clip(np.rint(a), 0, 255).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P5\n{a.shape[1]} {a.shape[0]}\n255\n".encode("ascii"))
        f.write(body.tobytes())


def save_csv(path: str, header: list[str], rows) -> None:
    """Write a header line, then one comma-separated line per row, each field
    as ``str`` gives it (for a Python float, ``repr``'s digits)."""
    with open(path, "w", encoding="ascii") as f:
        f.write("".join(",".join(map(str, row)) + "\n" for row in [header, *rows]))


# ---------------------------------------------------------------------------
# Patches, degradation, splits
# ---------------------------------------------------------------------------


def extract_patches(source: np.ndarray, q: int, count: int, seed: int) -> np.ndarray:
    """``count`` random Q x Q crops of a 2-D raster at seeded uniform
    positions, one flattened crop per row of a ``(count, q*q)`` array."""
    rows, cols = source.shape
    if q < 1 or q > rows or q > cols:
        raise ValueError(f"patch size {q} does not fit a {rows}x{cols} raster")
    stream = Stream(derive(seed, _TAG_PATCH))
    rr = stream.integers(count, rows - q + 1)
    cc = stream.integers(count, cols - q + 1)
    windows = np.lib.stride_tricks.sliding_window_view(np.asarray(source, np.float64), (q, q))
    return windows[rr, cc].reshape(count, q * q)


def _add_noise(z: np.ndarray, level: float, eta: np.ndarray) -> np.ndarray:
    """``z + level * eta`` of finite ``z``; ``OverflowError`` if not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        noisy = z + level * eta
    if not np.isfinite(noisy).all():
        raise OverflowError(f"noise level {level!r} overflows float64")
    return noisy


def degrade_set(clean: np.ndarray, a_op: LinearOperator, alpha: float, seed: int) -> Dataset:
    """Degrade a (n, N) stack of square images, one derived noise stream per sample.

    Row s is ``A clean[s] + alpha * eta`` (never clipped), with ``eta`` the
    standard normals of ``Stream(derive(seed, s, _TAG_NOISE))``, formed in the
    pieces of :func:`network.row_pieces`; ``OverflowError`` if it overflows.
    """
    if alpha < 0:
        raise ValueError("noise level alpha must be nonnegative")
    clean = np.atleast_2d(np.asarray(clean, dtype=np.float64))
    degraded = np.empty((clean.shape[0], a_op.out_dim))
    for part in row_pieces(len(clean)):
        z = a_op.apply(clean[part])
        if alpha:
            rows = np.arange(part.start, part.stop)
            z = _add_noise(z, alpha, Stream(derive(seed, rows, _TAG_NOISE)).normal(z.shape[1]))
        degraded[part] = z
    return Dataset(clean=clean, degraded=degraded, degradation=a_op,
                   noise_alpha=float(alpha), seed=int(seed))


def check_fractions(train_frac: float, val_frac: float) -> None:
    """``ValueError`` unless both split fractions are nonnegative, summing to at most 1."""
    if not (0 <= train_frac and 0 <= val_frac  # NaN fails this test too
            and train_frac + val_frac <= 1 + 1e-12):
        raise ValueError("train_frac and val_frac must be nonnegative and sum to at most 1")


def split(dataset: Dataset, train_frac: float, val_frac: float,
          seed: int) -> tuple[Dataset, Dataset, Dataset]:
    """Seeded permutation, then contiguous train/val/test slices."""
    check_fractions(train_frac, val_frac)
    n = len(dataset)
    perm = Stream(derive(seed, 0x59117)).permutation(n)
    n_train = int(round(train_frac * n))
    n_val = int(round(val_frac * n))
    n_val = min(n_val, n - n_train)
    cuts = [perm[:n_train], perm[n_train:n_train + n_val], perm[n_train + n_val:]]

    def take(idx):
        return Dataset(clean=dataset.clean[idx], degraded=dataset.degraded[idx],
                       degradation=dataset.degradation,
                       noise_alpha=dataset.noise_alpha, seed=dataset.seed)

    return take(cuts[0]), take(cuts[1]), take(cuts[2])


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

_PEAK = 255.0


def _scores(score_rows, x_hat: np.ndarray, x_ref: np.ndarray, name: str) -> np.ndarray:
    """``score_rows`` over a ``(B, N)`` stack pair: ``B`` scores, taken in the
    pieces of :func:`network.row_pieces`."""
    a = np.asarray(x_hat, dtype=np.float64)
    b = np.asarray(x_ref, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"{name} shape mismatch: {a.shape} vs {b.shape}")
    if a.ndim != 2:
        raise ValueError(f"{name} takes a (B, N) stack of images, got shape {a.shape}")
    return np.concatenate([score_rows(a[rows], b[rows]) for rows in row_pieces(len(a))])


def _psnr_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    mse = np.mean((a - b) ** 2, axis=1)
    with np.errstate(divide="ignore"):  # identical rows: 255^2 / 0 = inf
        return 10.0 * np.log10(_PEAK * _PEAK / mse)


def psnr(x_hat: np.ndarray, x_ref: np.ndarray) -> np.ndarray | float:
    """10 log10(255^2 / MSE) of each row of a ``(B, N)`` stack of images
    against its reference: ``B`` scores, +inf where the images are identical.

    A lone 1-D pair is scored as a one-row stack and gives its one score as a
    float: ``perfbench``'s solve workload scores its backprojections so.
    """
    if np.ndim(x_hat) == 1:
        return float(_scores(_psnr_rows, [x_hat], [x_ref], "psnr")[0])
    return _scores(_psnr_rows, x_hat, x_ref, "psnr")


def _ssim_band(side: int) -> np.ndarray:
    """The matrix of :func:`ssim`'s valid 1-D Gaussian smoothing."""
    k = 11
    t = np.arange(k) - (k - 1) / 2.0
    kernel = np.exp(-(t**2) / (2.0 * 1.5**2))  # sigma 1.5
    kernel /= kernel.sum()
    m = np.zeros((side - k + 1, side))
    i = np.arange(side - k + 1)[:, None]
    m[i, i + np.arange(k)] = kernel
    return m


def ssim(x_hat: np.ndarray, x_ref: np.ndarray) -> np.ndarray:
    """Single-scale SSIM of each row of a ``(B, N)`` stack of square images,
    side x side with N = side^2, against its reference (``B`` scores);
    ``ValueError`` if N is not a square.  11x11 Gaussian window (sigma 1.5),
    K1=0.01, K2=0.03, dynamic range 255, averaged over valid window
    positions.  Images smaller than the window fall back to one uniform
    global window.
    """
    c1 = (0.01 * _PEAK) ** 2
    c2 = (0.03 * _PEAK) ** 2

    def ssim_rows(a, b):
        side = math.isqrt(a.shape[1])
        if side * side != a.shape[1]:
            raise ValueError(f"ssim needs square images, got {a.shape[1]} pixels")
        if side < 11:
            mx, my = a.mean(axis=1), b.mean(axis=1)
            vx, vy = a.var(axis=1), b.var(axis=1)
            cxy = np.mean((a - mx[:, None]) * (b - my[:, None]), axis=1)
            # squares by scalar pow, which may round unlike an array's x * x
            mx2 = np.array([m**2 for m in mx.tolist()])
            my2 = np.array([m**2 for m in my.tolist()])
            return ((2 * mx * my + c1) * (2 * cxy + c2)) / ((mx2 + my2 + c1) * (vx + vy + c2))
        w = _ssim_band(side)

        def smooth(img):
            return np.matmul(np.matmul(w, img), w.T)

        x = a.reshape(-1, side, side)
        y = b.reshape(-1, side, side)
        mx, my = smooth(x), smooth(y)
        vx = smooth(x * x) - mx * mx
        vy = smooth(y * y) - my * my
        cxy = smooth(x * y) - mx * my
        score = ((2 * mx * my + c1) * (2 * cxy + c2)) \
            / ((mx * mx + my * my + c1) * (vx + vy + c2))
        return score.reshape(len(score), -1).mean(axis=1)

    with np.errstate(over="ignore", invalid="ignore"):
        return _scores(ssim_rows, x_hat, x_ref, "ssim")


# ---------------------------------------------------------------------------
# Robustness protocol and synthetic data
# ---------------------------------------------------------------------------


def robustness_eval(params: NetworkParams, dataset: Dataset, beta_list: list[float],
                    seed: int) -> list[dict]:
    """Evaluate on z + beta * eta for each beta, with drops relative to beta=0.

    Row 0 is beta=0, the plain pass on ``dataset.degraded``.  Each row holds
    the mean scores and the per-image lists ``psnrs`` and ``ssims``.  One
    noise realization is drawn per sample (derived from ``seed``), only if a
    beta is nonzero, and scaled by each beta, so the sweep isolates the noise
    amplitude.  Against an exact (inf dB) beta=0 restoration the PSNR drop
    is 0% for an exact row and 100% for any other.  Raises ``OverflowError``
    when some ``beta * eta`` overflows float64.
    """
    betas = [float(b) for b in beta_list if b != 0]
    if betas:
        eta = np.empty_like(dataset.degraded)
        for part in row_pieces(len(eta)):
            rows = np.arange(part.start, part.stop)
            eta[part] = Stream(derive(seed, _TAG_EXTRA, rows)).normal(eta.shape[1])
    rows = []
    for beta in [0.0] + betas:
        out, _ = forward(params, _add_noise(dataset.degraded, beta, eta) if beta
                         else dataset.degraded)
        psnrs = psnr(out, dataset.clean)
        ssims = ssim(out, dataset.clean)
        rows.append({"beta": beta, "psnr": float(np.mean(psnrs)),
                     "ssim": float(np.mean(ssims)),
                     "psnrs": psnrs.tolist(), "ssims": ssims.tolist()})
    base = rows[0]
    for r in rows:
        if base["psnr"] == np.inf:  # the limit of (b - r) / b as b grows
            r["psnr_drop_pct"] = 0.0 if r["psnr"] == np.inf else 100.0
        else:
            r["psnr_drop_pct"] = 100.0 * (base["psnr"] - r["psnr"]) / base["psnr"]
        r["ssim_drop_pct"] = 100.0 * (base["ssim"] - r["ssim"]) / base["ssim"]
    return rows


# Largest glyph offset from center, as a fraction of the side.
_JITTER_FRAC = 0.05
_SEGMENTS = {0: "ABCDEF", 1: "BC", 2: "ABGED", 3: "ABGCD", 4: "FGBC",
             5: "AFGCD", 6: "AFGEDC", 7: "ABC", 8: "ABCDEFG", 9: "ABCDFG"}
_LIT = np.array([[seg in _SEGMENTS[d] for seg in "ABCDEFG"] for d in range(10)])


def synthetic_digits(count: int, side: int, seed: int) -> np.ndarray:
    """Digit-like glyph images: seven-segment figures with jittered geometry.

    Bright strokes on a dark background, roughly centered, values in
    [0, 255] - a deterministic stand-in for handwritten-digit data in
    desk-scale experiments.  Returns (count, side*side).  Image s takes its
    geometry from the stream ``Stream(derive(seed, _TAG_SYNTH, s, 1))``.
    """
    u = Stream(derive(seed, _TAG_SYNTH, np.arange(count), 1)).uniform(6)
    jit = max(1, int(side * _JITTER_FRAC))
    t = max(2, side // 12)
    pixel = np.arange(side)
    out = np.empty((count, side, side))
    for part in row_pieces(count):
        ud, uw, uh, ux, uy, ul = u[part].T[..., None]  # each (piece, 1)
        w = np.maximum(4, (side * (0.40 + 0.10 * uw)).astype(np.int64))
        h = np.maximum(6, (side * (0.60 + 0.10 * uh)).astype(np.int64))
        left = np.clip((side - w) // 2 + ((ux - 0.5) * 2 * jit).astype(np.int64), 0, side - w)
        top = np.clip((side - h) // 2 + ((uy - 0.5) * 2 * jit).astype(np.int64), 0, side - h)
        right, bottom, mid = left + w, top + h, top + h // 2
        # segment: the rows [r0, r1) and columns [c0, c1) of its stroke, in _LIT's order
        strokes = {"A": (top, top + t, left, right), "B": (top, mid, right - t, right),
                   "C": (mid, bottom, right - t, right), "D": (bottom - t, bottom, left, right),
                   "E": (mid, bottom, left, left + t), "F": (top, mid, left, left + t),
                   "G": (mid - t // 2, mid - t // 2 + t, left, right)}
        r0, r1, c0, c1 = np.array(list(strokes.values())).transpose(1, 2, 0, 3)
        lit = _LIT[np.minimum((ud[:, 0] * 10).astype(np.int64), 9), :, None]
        rows = (r0 <= pixel) & (pixel < r1) & lit  # (piece, 7, side), as are cols
        cols = (c0 <= pixel) & (pixel < c1)
        # pixel (r, c) is lit when some lit segment covers row r and column c
        cover = np.matmul(rows.transpose(0, 2, 1), cols, dtype=np.float64)
        np.multiply(cover > 0, 200.0 + 55.0 * ul[..., None], out=out[part])
    return out.reshape(count, side * side)
