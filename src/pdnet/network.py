"""The K-layer unrolled primal-dual network.

Layer k carries its own step sizes (tau, sigma) and analysis operator L.
The forward pass starts from the backprojection u1 = A* z with the dual
variable at zero, runs K - 1 full primal-dual iterations, and finishes with
a primal-only layer (identity activation) so the output lives in image
space.  All block matrices are applied matrix-free through the operators.

Model files are JSON documents (schema version "2").  Each part's weights
are one base64 string of its row-major little-endian float64 bytes, so they
round-trip exactly and load without parsing a decimal per weight.
"""

from __future__ import annotations

import base64
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import pdhg
from .pdhg import saturating_sigma
from .operators import (
    INIT_STDDEV,
    AnalysisOperator,
    DenseAnalysis,
    LinearOperator,
    NonFiniteNormError,
    block_sparse_analysis,
    degradation_from_spec,
    fuse_analysis,
    make_block_sparse_analysis,
    make_dense_analysis,
)
from .rng import derive

MODEL_VERSION = "2"
MODEL_PENALTY = "l1"  # g; the clip to [-1, 1] of each layer is its conjugate's prox
_SEPARATORS = (",", ":")


class ModelFormatError(ValueError):
    """Raised for malformed, mis-sized, or wrong-version model files."""


class ZeroNormError(ValueError):
    """||L|| is zero at initialization: the weights are zero or underflow."""


@dataclass
class DenseSpec:
    """Request for a dense P x N analysis part."""
    p: int


@dataclass
class BlockSpec:
    """Request for a block-sparse part: Q x Q windows, stride, filters per site."""
    q: int
    stride: int
    filters_per_site: int
    site_rule: str  # "fit" or "interior": see operators.block_sites


@dataclass
class LayerParams:
    tau: float
    sigma: float
    analysis: AnalysisOperator


class NetworkParams:
    """Parameter container: degradation A, K per-layer (tau, sigma, L), mode."""

    def __init__(self, degradation: LinearOperator, layers: list[LayerParams],
                 mode: str):
        if mode not in ("full", "partial"):
            raise ValueError(f"mode must be 'full' or 'partial', got {mode!r}")
        if len(layers) < 1:
            raise ValueError("network needs at least one layer")
        n = degradation.in_dim
        p = layers[0].analysis.out_dim
        for lp in layers:
            if lp.analysis.in_dim != n:
                raise ValueError("all layers must share the image dimension N")
            if lp.analysis.out_dim != p:
                raise ValueError("all layers must share the feature dimension P")
        self.degradation = degradation
        self.layers = layers
        self.mode = mode

    @property
    def depth(self) -> int:
        return len(self.layers)

    @property
    def image_dim(self) -> int:
        return self.degradation.in_dim

    @property
    def feature_dim(self) -> int:
        return self.layers[0].analysis.out_dim

    def clone(self) -> "NetworkParams":
        return NetworkParams(
            self.degradation,
            [LayerParams(lp.tau, lp.sigma, lp.analysis.clone()) for lp in self.layers],
            mode=self.mode,
        )


@dataclass
class LayerTrace:
    """Cached forward quantities needed by backpropagation.

    xs[k] / ys[k] are the primal/dual inputs of layer k+1 (ys[0] is zero);
    xs[depth] is the network output.  |ys[k+1]| < 1 marks where the clip of
    layer k+1 was inactive, as backpropagation needs.  vs[k] is
    V = w - A*A xs[k] - L_{k+1}* ys[k] as the forward pass formed it, with
    w = A* z the backprojected input.
    """

    xs: list = field(repr=False)
    ys: list = field(repr=False)
    vs: list = field(repr=False)


def init_network(degradation: LinearOperator, depth: int, l_specs: list,
                 mode: str, seed: int, stddev: float = INIT_STDDEV) -> NetworkParams:
    """Build a network with tau = 1, Normal(0, stddev^2) analysis weights, and
    sigma saturating the step-size condition from an upper bound on ||L||.

    Every layer draws fresh weights from a seed derived per (layer, part).
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    n = degradation.in_dim
    side = math.isqrt(n) if math.isqrt(n) ** 2 == n else None
    norm_a = degradation.cached_norm
    layers = []
    for k in range(depth):
        parts = []
        for i, spec in enumerate(l_specs):
            part_seed = derive(seed, k, i)
            if isinstance(spec, DenseSpec):
                parts.append(make_dense_analysis(spec.p, n, part_seed, stddev=stddev))
            elif isinstance(spec, BlockSpec):
                if side is None:
                    raise ValueError("block-sparse parts need an image-shaped degradation")
                parts.append(make_block_sparse_analysis(
                    spec.q, spec.stride, spec.filters_per_site, side, part_seed,
                    stddev=stddev, site_rule=spec.site_rule,
                ))
            else:
                raise ValueError(f"unknown L spec: {spec!r}")
        analysis = fuse_analysis(parts)
        tau = 1.0
        norm_l = analysis.norm()
        if norm_l == 0.0:
            raise ZeroNormError("||L|| is zero at initialization; use a nonzero weight stddev")
        if not np.isfinite(norm_l):
            raise NonFiniteNormError(f"||L|| bound is not finite ({norm_l!r})")
        layers.append(LayerParams(tau, saturating_sigma(tau, norm_a, norm_l), analysis))
    return NetworkParams(degradation, layers, mode=mode)


def forward(params: NetworkParams, z: np.ndarray, keep_trace: bool = False):
    """Run the unrolled network on a (B, M) batch of measurements; the (B, N)
    restored images come back.  With ``keep_trace`` the per-layer activations
    are returned too; without it the pass keeps no per-layer arrays, the
    trace is None, and a batch runs in the pieces of :func:`row_pieces`: the
    temporaries of a large batch then stay small enough to be reused instead
    of being mapped and page-faulted afresh on every product.
    The dual starts at zero, so the first layer forms no L* y: a pass takes
    2K - 2 analysis products per piece, and every layer of every piece
    reuses one (B, N) scratch buffer.
    """
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2 or z.shape[1] != params.degradation.out_dim:
        raise ValueError(f"measurement must be (B, M) with M = {params.degradation.out_dim}, "
                         f"got {z.shape}")
    pieces = [z] if keep_trace else [z[rows] for rows in row_pieces(len(z))]
    work = np.empty((max(len(p) for p in pieces), params.image_dim))
    runs = [_unroll(params, piece, keep_trace, work[:len(piece)]) for piece in pieces]
    out = runs[0][0] if len(runs) == 1 else np.concatenate([o for o, _ in runs])
    return out, runs[0][1]


def row_pieces(n: int) -> list[slice]:
    """``np.array_split``'s slices of ``n`` rows into 50-99-row pieces (one below
    100 rows), in which forward passes, scores and noise draws take a batch."""
    count = max(1, n // 50)
    size, extra = divmod(n, count)  # the first ``extra`` pieces take one row more
    return [slice(i * size + min(i, extra), (i + 1) * size + min(i + 1, extra))
            for i in range(count)]


def _unroll(params: NetworkParams, zb: np.ndarray, keep_trace: bool,
            work: np.ndarray):
    """The K layers on a (B, M) batch: (output, trace or None); ``work`` is
    (B, N) scratch."""
    a_op = params.degradation
    w = a_op.apply_adjoint(zb)
    x = w
    y = None
    trace = LayerTrace(xs=[x], ys=[np.zeros((zb.shape[0], params.feature_dim))],
                       vs=[]) if keep_trace else None
    for lp in params.layers[:-1]:
        x, y, v = pdhg.pd_step(a_op, lp.analysis, lp.tau, lp.sigma, w, x, y, work, keep_trace)
        if trace is not None:
            trace.xs.append(x)
            trace.ys.append(y)
            trace.vs.append(v)
    last = params.layers[-1]
    out, v = pdhg.pd_primal(a_op, last.analysis, last.tau, w, x, y, work, keep_trace)
    if trace is not None:
        trace.xs.append(out)
        trace.vs.append(v)
    return out, trace


def distance_report(params: NetworkParams) -> np.ndarray:
    """Per-layer squared hinge of the step-size margin (0 where it holds)."""
    norm_a = params.degradation.cached_norm
    return np.array([
        max(0.0, -pdhg.check_stepsizes(lp.tau, lp.sigma, norm_a, lp.analysis.norm())) ** 2
        for lp in params.layers
    ])


# ---------------------------------------------------------------------------
# Serialization (schema version "2")
# ---------------------------------------------------------------------------


def _part_record(part: AnalysisOperator) -> dict:
    """The model-file record of one analysis part, less its ``weights``; read
    by :func:`_part_from_record`."""
    bs = getattr(part, "block_spec", None)
    if isinstance(part, DenseAnalysis):
        return {"kind": "dense", "rows": part.out_dim, "cols": part.in_dim}
    if bs is not None:
        return {"kind": "block-sparse", **bs,
                "sites": [[int(r), int(c)] for r, c in bs["sites"]]}
    raise ValueError("only dense or block-sparse parts are serializable")


def serialize(params: NetworkParams, path: str) -> None:
    """Write the model file; see README for the exact schema.

    The bytes are those of ``json.dumps(doc, separators=(",", ":")) + "\\n"``
    for the whole document, in which each part record ends with
    ``"weights"``: the standard base64 (with padding) of the row-major
    ``<f8`` bytes of the part's weight array.  Base64 needs no JSON escape,
    so each weight string is written as it is encoded, never rescanned, and
    the JSON encoder sees only the small fields.
    """
    def dumps(doc: dict) -> bytes:  # the object's text without its closing brace
        return json.dumps(doc, separators=_SEPARATORS)[:-1].encode("ascii")

    tmp = path + ".tmp"
    with open(tmp, "wb") as f:
        f.write(dumps({"version": MODEL_VERSION, "degradation": params.degradation.spec(),
                       "K": params.depth, "mode": params.mode, "g": MODEL_PENALTY})
                + b',"layers":[')
        for k, lp in enumerate(params.layers):
            f.write(b"," * (k > 0) + dumps({"tau": float(lp.tau), "sigma": float(lp.sigma)})
                    + b',"parts":[')
            for i, part in enumerate(lp.analysis.parts()):
                f.write(b"," * (i > 0) + dumps(_part_record(part)) + b',"weights":"')
                f.write(base64.b64encode(
                    np.ascontiguousarray(part.weights, dtype="<f8")))
                f.write(b'"}')
            f.write(b"]}")
        f.write(b"]}\n")
    os.replace(tmp, path)


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ModelFormatError(message)


def _int(value, what: str) -> int:
    _require(isinstance(value, int) and not isinstance(value, bool),
             f"{what} must be an integer, got {value!r}")
    return value


def _float(value, what: str) -> float:
    _require(isinstance(value, (int, float)) and not isinstance(value, bool),
             f"{what} must be a number, got {value!r}")
    return float(value)


def _weights(rec: dict, count: int, what: str) -> np.ndarray:
    """A writable float64 copy of a record's base64 ``<f8`` weights."""
    text = rec["weights"]
    _require(isinstance(text, str), f"{what} weights must be a base64 string")
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as exc:  # binascii.Error, or a non-ASCII character
        raise ModelFormatError(f"{what} weights are not valid base64: {exc}") from exc
    _require(len(raw) == 8 * count,
             f"{what} needs {count} weights ({8 * count} bytes), found {len(raw)} bytes")
    w = np.frombuffer(raw, dtype="<f8").astype(np.float64)
    _require(bool(np.isfinite(w).all()), f"{what} weights must be finite")
    return w


def _part_from_record(rec: dict, n: int) -> AnalysisOperator:
    _require(isinstance(rec, dict), "layer part must be an object")
    kind = rec.get("kind")
    if kind == "dense":
        _require(set(rec) == {"kind", "rows", "cols", "weights"},
                 f"unexpected dense part fields: {sorted(rec)}")
        rows, cols = _int(rec["rows"], "dense rows"), _int(rec["cols"], "dense cols")
        _require(cols == n, f"dense part expects {n} columns, file says {cols}")
        w = _weights(rec, rows * cols, "dense part")
        return DenseAnalysis(w.reshape(rows, cols))
    if kind == "block-sparse":
        _require(set(rec) == {"kind", "q", "stride", "filters_per_site",
                              "image_side", "sites", "weights"},
                 f"unexpected block-sparse part fields: {sorted(rec)}")
        q = _int(rec["q"], "block q")
        side = _int(rec["image_side"], "block image_side")
        filters = _int(rec["filters_per_site"], "block filters_per_site")
        _require(side * side == n, f"block part side {side} inconsistent with N={n}")
        sites = rec["sites"]
        _require(isinstance(sites, list) and sites and all(
            isinstance(s, list) and len(s) == 2 for s in sites),
            "block sites must be a nonempty list of [row, col] pairs")
        sites = [tuple(_int(v, "site coordinate") for v in s) for s in sites]
        stride = _int(rec["stride"], "block stride")
        _require(stride >= 1, f"block stride must be >= 1, got {stride}")
        _require(all(r % stride == 0 and c % stride == 0 for r, c in sites),
                 f"block sites must lie at multiples of the stride {stride}")
        rows = len(sites) * filters
        w = _weights(rec, rows * q * q, "block part")
        return block_sparse_analysis(q, stride, filters, side, sites, w)
    raise ModelFormatError(f"unknown part kind: {kind!r}")


def _params_from_doc(doc) -> NetworkParams:
    _require(isinstance(doc, dict), "model document must be an object")
    version = doc.get("version")
    _require(version == MODEL_VERSION,
             f"unsupported model version {version!r} (expected {MODEL_VERSION!r})")
    _require(set(doc) == {"version", "degradation", "K", "mode", "g", "layers"},
             f"unexpected model fields: {sorted(doc)}")
    _require(doc["g"] == MODEL_PENALTY,
             f"only the {MODEL_PENALTY} penalty is supported, got {doc['g']!r}")
    spec = doc["degradation"]
    _require(isinstance(spec, dict), "degradation must be an object")
    layers_doc = doc["layers"]
    _require(isinstance(layers_doc, list) and layers_doc, "layers must be nonempty")
    _require(_int(doc["K"], "K") == len(layers_doc),
             f"K={doc['K']} but {len(layers_doc)} layer records present")
    # the parts check N (identity's image_side) before the degradation is built
    n = _int(spec.get("image_side"), "degradation image_side")
    n = n if spec.get("kind") == "identity" else n * n
    layers = []
    for rec in layers_doc:
        _require(isinstance(rec, dict) and set(rec) == {"tau", "sigma", "parts"},
                 "layer record must carry exactly tau, sigma, parts")
        _require(isinstance(rec["parts"], list) and rec["parts"],
                 "layer parts must be a nonempty list")
        parts = [_part_from_record(p, n) for p in rec["parts"]]
        tau, sigma = _float(rec["tau"], "tau"), _float(rec["sigma"], "sigma")
        _require(0 <= tau < np.inf and 0 <= sigma < np.inf,  # NaN fails too
                 f"layer step sizes must be finite and nonnegative, got {tau!r}, {sigma!r}")
        layers.append(LayerParams(tau, sigma, fuse_analysis(parts)))
    try:
        a_op = degradation_from_spec(spec)
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"bad degradation spec: {exc}") from exc
    return NetworkParams(a_op, layers, mode=doc["mode"])


def deserialize(path: str) -> NetworkParams:
    """Load and validate a model file written by :func:`serialize`.

    Every malformed document raises :class:`ModelFormatError`.
    """
    try:
        with open(path, "r", encoding="ascii") as f:
            doc = json.load(f)
    except (OSError, ValueError) as exc:
        raise ModelFormatError(f"cannot read model file {path}: {exc}") from exc
    try:
        return _params_from_doc(doc)
    except ModelFormatError:
        raise
    except ValueError as exc:  # a value the operator constructors refuse
        raise ModelFormatError(f"malformed model file {path}: {exc}") from exc
