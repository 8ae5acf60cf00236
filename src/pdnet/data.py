"""Dataset ingestion, degradation synthesis, and image-quality metrics.

Pixels live on the 8-bit gray scale [0, 255] throughout; measurements are
kept unclipped (the degradation model is linear-Gaussian) and restored
images are clipped only when exported to files.
"""

from __future__ import annotations

import functools
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
    """Aligned clean/degraded pairs plus the recipe that produced them."""

    side: int
    clean: np.ndarray  # (n, N)
    degraded: np.ndarray  # (n, M)
    degradation: LinearOperator
    noise_alpha: float
    seed: int

    def __len__(self) -> int:
        return self.clean.shape[0]


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


def _pgm_tokens(data: bytes):
    """Header tokens of a PGM, skipping whitespace and # comments."""
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
    return tokens, i + 1  # single whitespace byte terminates the header


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
    return np.array([source[r:r + q, c:c + q].ravel() for r, c in zip(rr, cc)],
                    dtype=np.float64).reshape(count, q * q)


def _add_noise(z: np.ndarray, level: float, eta: np.ndarray) -> np.ndarray:
    """``z + level * eta`` of finite ``z``; ``OverflowError`` if not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        noisy = z + level * eta
    if not np.isfinite(noisy).all():
        raise OverflowError(f"noise level {level!r} overflows float64")
    return noisy


def degrade_set(clean: np.ndarray, side: int, a_op: LinearOperator, alpha: float,
                seed: int) -> Dataset:
    """Degrade a stack of images, one derived noise stream per sample.

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
    return Dataset(side=side, clean=clean, degraded=degraded,
                   degradation=a_op, noise_alpha=float(alpha), seed=int(seed))


def split(dataset: Dataset, train_frac: float, val_frac: float,
          seed: int) -> tuple[Dataset, Dataset, Dataset]:
    """Seeded permutation, then contiguous train/val/test slices."""
    if not (0 <= train_frac and 0 <= val_frac  # NaN fails this test too
            and train_frac + val_frac <= 1 + 1e-12):
        raise ValueError("train_frac and val_frac must be nonnegative and sum to at most 1")
    n = len(dataset)
    perm = Stream(derive(seed, 0x59117)).permutation(n)
    n_train = int(round(train_frac * n))
    n_val = int(round(val_frac * n))
    n_val = min(n_val, n - n_train)
    cuts = [perm[:n_train], perm[n_train:n_train + n_val], perm[n_train + n_val:]]

    def take(idx):
        return Dataset(side=dataset.side, clean=dataset.clean[idx],
                       degraded=dataset.degraded[idx],
                       degradation=dataset.degradation,
                       noise_alpha=dataset.noise_alpha, seed=dataset.seed)

    return take(cuts[0]), take(cuts[1]), take(cuts[2])


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

_PEAK = 255.0


def _scores(score_rows, x_hat: np.ndarray, x_ref: np.ndarray, name: str):
    """``score_rows`` over a 1-D pair (a float) or a ``(B, N)`` stack (``B``
    scores), taken in the pieces of :func:`network.row_pieces`."""
    a = np.asarray(x_hat, dtype=np.float64)
    b = np.asarray(x_ref, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"{name} shape mismatch: {a.shape} vs {b.shape}")
    if a.ndim not in (1, 2):
        raise ValueError(f"{name} takes one image or a (B, N) stack, got shape {a.shape}")
    stack_a, stack_b = np.atleast_2d(a, b)
    scores = np.concatenate([score_rows(stack_a[rows], stack_b[rows])
                             for rows in row_pieces(len(stack_a))])
    return float(scores[0]) if a.ndim == 1 else scores


def _psnr_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    mse = np.mean((a - b) ** 2, axis=1)
    with np.errstate(divide="ignore"):  # identical rows: 255^2 / 0 = inf
        return 10.0 * np.log10(_PEAK * _PEAK / mse)


def psnr(x_hat: np.ndarray, x_ref: np.ndarray) -> float | np.ndarray:
    """10 log10(255^2 / MSE); +inf when the images are identical.

    Takes one image pair (1-D, returns a float) or a ``(B, N)`` stack of
    images, one per row (returns ``B`` scores).
    """
    return _scores(_psnr_rows, x_hat, x_ref, "psnr")


@functools.lru_cache(maxsize=None)
def _ssim_band(side: int) -> np.ndarray:
    """The read-only matrix of :func:`ssim`'s valid 1-D Gaussian smoothing."""
    k = 11
    t = np.arange(k) - (k - 1) / 2.0
    kernel = np.exp(-(t**2) / (2.0 * 1.5**2))  # sigma 1.5
    kernel /= kernel.sum()
    m = np.zeros((side - k + 1, side))
    for i in range(side - k + 1):
        m[i, i:i + k] = kernel
    m.flags.writeable = False
    return m


def ssim(x_hat: np.ndarray, x_ref: np.ndarray, side: int) -> float | np.ndarray:
    """Single-scale SSIM of ``side x side`` images: 11x11 Gaussian window
    (sigma 1.5), K1=0.01, K2=0.03, dynamic range 255, averaged over valid
    window positions.

    Takes one image pair (1-D, returns a float) or a ``(B, side*side)``
    stack of images, one per row (returns ``B`` scores).  Images smaller
    than the window fall back to one uniform global window.
    """
    c1 = (0.01 * _PEAK) ** 2
    c2 = (0.03 * _PEAK) ** 2

    def ssim_rows(a, b):
        if a.shape[1] != side * side:
            raise ValueError(f"ssim needs {side}x{side} images, got {a.shape[1]} pixels")
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
        ssims = ssim(out, dataset.clean, side=dataset.side)
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


def synthetic_digits(count: int, side: int, seed: int) -> np.ndarray:
    """Digit-like glyph images: seven-segment figures with jittered geometry.

    Bright strokes on a dark background, roughly centered, values in
    [0, 255] - a deterministic stand-in for handwritten-digit data in
    desk-scale experiments.  Returns (count, side*side).
    """
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
