"""The K-layer unrolled primal-dual network.

Layer k carries its own step sizes (tau, sigma) and analysis operator L.
The forward pass starts from the backprojection u1 = A* z with the dual
variable at zero, runs K - 1 full primal-dual iterations, and finishes with
a primal-only layer (identity activation) so the output lives in image
space.  All block matrices are applied matrix-free through the operators.

Model files are JSON documents (schema version "1"); weights round-trip
exactly because floats are written in shortest exact decimal form.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from . import pdhg
from .pdhg import saturating_sigma
from .operators import (
    AnalysisOperator,
    LinearOperator,
    degradation_from_spec,
    fuse_analysis,
    make_block_sparse_analysis,
    make_dense_analysis,
)
from .rng import derive

MODEL_VERSION = "1"


class ModelFormatError(ValueError):
    """Raised for malformed, mis-sized, or wrong-version model files."""


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
    site_rule: str = "fit"
    sites: list | None = None


@dataclass
class LayerParams:
    tau: float
    sigma: float
    analysis: AnalysisOperator

    def __post_init__(self):
        if not (np.isfinite(self.tau) and np.isfinite(self.sigma)):
            raise ValueError("layer step sizes must be finite")
        if self.tau < 0 or self.sigma < 0:
            raise ValueError("layer step sizes must be nonnegative")


class NetworkParams:
    """Parameter container: degradation A, K per-layer (tau, sigma, L), mode."""

    def __init__(self, degradation: LinearOperator, layers: list[LayerParams],
                 mode: str = "full", g: str = "l1"):
        if mode not in ("full", "partial"):
            raise ValueError(f"mode must be 'full' or 'partial', got {mode!r}")
        if g != "l1":
            raise ValueError(f"only the l1 penalty is supported, got {g!r}")
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
        self.g = g

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
            g=self.g,
        )


@dataclass
class LayerTrace:
    """Cached forward quantities needed by backpropagation.

    xs[k] / ys[k] are the primal/dual inputs of layer k+1 (ys[0] is zero);
    xs[depth] is the network output.  c_duals[k] is the dual pre-activation
    of layer k+1 (absent for the last layer), grams[k] is A*A applied to
    xs[k], and w is the backprojected input A* z shared by every bias.
    """

    xs: list = field(repr=False)
    ys: list = field(repr=False)
    c_duals: list = field(repr=False)
    grams: list = field(repr=False)
    w: np.ndarray = field(repr=False)


def init_network(degradation: LinearOperator, depth: int, l_specs: list,
                 mode: str, seed: int, stddev: float = 1e-2) -> NetworkParams:
    """Build a network with tau = 1, Normal(0, stddev^2) analysis weights, and
    sigma saturating the step-size condition from the measured ||L||.

    Every layer draws fresh weights from a seed derived per (layer, part).
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    n = degradation.in_dim
    side = getattr(degradation, "side", None)
    if side is None:
        root = int(round(np.sqrt(n)))
        side = root if root * root == n else None
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
                    stddev=stddev, sites=spec.sites, site_rule=spec.site_rule,
                ))
            else:
                raise ValueError(f"unknown L spec: {spec!r}")
        analysis = fuse_analysis(parts)
        tau = 1.0
        norm_l = analysis.norm()
        if norm_l == 0.0:
            raise ValueError(
                "||L|| is zero at initialization; use a nonzero weight stddev"
            )
        layers.append(LayerParams(tau, saturating_sigma(tau, norm_a, norm_l), analysis))
    return NetworkParams(degradation, layers, mode=mode)


def forward(params: NetworkParams, z: np.ndarray, keep_trace: bool = False):
    """Run the unrolled network on one measurement or a batch of them.

    ``z`` is (M,) or (B, M); the restored image(s) come back with matching
    shape.  With ``keep_trace`` the per-layer activations are returned too.
    """
    z = np.asarray(z, dtype=np.float64)
    single = z.ndim == 1
    zb = z[None, :] if single else z
    a_op = params.degradation
    if zb.shape[-1] != a_op.out_dim:
        raise ValueError(f"measurement length {zb.shape[-1]} != {a_op.out_dim}")
    w = a_op.apply_adjoint(zb)
    x = w
    y = np.zeros((zb.shape[0], params.feature_dim))
    xs, ys, c_duals, grams = [x], [y], [], []
    for lp in params.layers[:-1]:
        x, y, c_dual, gram_x = pdhg.pd_step(a_op, lp.analysis, lp.tau, lp.sigma, w, x, y)
        xs.append(x)
        ys.append(y)
        c_duals.append(c_dual)
        grams.append(gram_x)
    last = params.layers[-1]
    gram_x = a_op.gram(x)
    out = pdhg.pd_primal(a_op, last.analysis, last.tau, w, x, y, gram_x)
    xs.append(out)
    grams.append(gram_x)
    result = out[0] if single else out
    if not keep_trace:
        return result, None
    return result, LayerTrace(xs=xs, ys=ys, c_duals=c_duals, grams=grams, w=w)


def distance_report(params: NetworkParams) -> np.ndarray:
    """Per-layer squared-hinge distance to the step-size condition."""
    norm_a = params.degradation.cached_norm
    return np.array([
        pdhg.constraint_distance(lp.tau, lp.sigma, norm_a, lp.analysis.norm())
        for lp in params.layers
    ])


# ---------------------------------------------------------------------------
# Serialization (schema version "1")
# ---------------------------------------------------------------------------


def _layer_record(lp: LayerParams) -> dict:
    return {
        "tau": float(lp.tau),
        "sigma": float(lp.sigma),
        "parts": [p.part_record() for p in lp.analysis.parts()],
    }


def serialize(params: NetworkParams, path: str) -> None:
    """Write the model file; see README for the exact schema."""
    doc = {
        "version": MODEL_VERSION,
        "degradation": params.degradation.spec(),
        "K": params.depth,
        "mode": params.mode,
        "g": params.g,
        "layers": [_layer_record(lp) for lp in params.layers],
    }
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="ascii") as f:
        json.dump(doc, f, separators=(",", ":"))
        f.write("\n")
    os.replace(tmp, path)


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ModelFormatError(message)


def _part_from_record(rec: dict, n: int) -> AnalysisOperator:
    _require(isinstance(rec, dict), "layer part must be an object")
    kind = rec.get("kind")
    if kind == "dense":
        _require(set(rec) == {"kind", "rows", "cols", "weights"},
                 f"unexpected dense part fields: {sorted(rec)}")
        rows, cols = int(rec["rows"]), int(rec["cols"])
        _require(cols == n, f"dense part expects {n} columns, file says {cols}")
        w = np.asarray(rec["weights"], dtype=np.float64)
        _require(w.size == rows * cols,
                 f"dense part needs {rows * cols} weights, found {w.size}")
        from .operators import DenseAnalysis
        return DenseAnalysis(w.reshape(rows, cols))
    if kind == "block-sparse":
        _require(set(rec) == {"kind", "q", "stride", "filters_per_site",
                              "image_side", "sites", "weights"},
                 f"unexpected block-sparse part fields: {sorted(rec)}")
        q = int(rec["q"])
        side = int(rec["image_side"])
        _require(side * side == n, f"block part side {side} inconsistent with N={n}")
        sites = [tuple(map(int, s)) for s in rec["sites"]]
        rows = len(sites) * int(rec["filters_per_site"])
        w = np.asarray(rec["weights"], dtype=np.float64)
        _require(w.size == rows * q * q,
                 f"block part needs {rows * q * q} weights, found {w.size}")
        op = make_block_sparse_analysis(q, int(rec["stride"]),
                                        int(rec["filters_per_site"]), side,
                                        seed=0, stddev=0.0, sites=sites)
        op.weight_arrays()[0][...] = w.reshape(rows, q * q)
        return op
    raise ModelFormatError(f"unknown part kind: {kind!r}")


def deserialize(path: str) -> NetworkParams:
    """Load and validate a model file written by :func:`serialize`."""
    try:
        with open(path, "r", encoding="ascii") as f:
            doc = json.load(f)
    except (OSError, ValueError) as exc:
        raise ModelFormatError(f"cannot read model file {path}: {exc}") from exc
    _require(isinstance(doc, dict), "model document must be an object")
    version = doc.get("version")
    _require(version == MODEL_VERSION,
             f"unsupported model version {version!r} (expected {MODEL_VERSION!r})")
    _require(set(doc) == {"version", "degradation", "K", "mode", "g", "layers"},
             f"unexpected model fields: {sorted(doc)}")
    try:
        a_op = degradation_from_spec(doc["degradation"])
    except (KeyError, ValueError) as exc:
        raise ModelFormatError(f"bad degradation spec: {exc}") from exc
    layers_doc = doc["layers"]
    _require(isinstance(layers_doc, list) and layers_doc, "layers must be nonempty")
    _require(int(doc["K"]) == len(layers_doc),
             f"K={doc['K']} but {len(layers_doc)} layer records present")
    n = a_op.in_dim
    layers = []
    for rec in layers_doc:
        _require(isinstance(rec, dict) and set(rec) == {"tau", "sigma", "parts"},
                 "layer record must carry exactly tau, sigma, parts")
        parts = [_part_from_record(p, n) for p in rec["parts"]]
        try:
            layers.append(LayerParams(float(rec["tau"]), float(rec["sigma"]),
                                      fuse_analysis(parts)))
        except ValueError as exc:
            raise ModelFormatError(str(exc)) from exc
    try:
        return NetworkParams(a_op, layers, mode=str(doc["mode"]), g=str(doc["g"]))
    except ValueError as exc:
        raise ModelFormatError(str(exc)) from exc
