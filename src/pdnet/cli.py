"""Batch command-line driver.

One JSON configuration document describes a run (task, degradation, network,
training, data, seed, output directory); flags exist only for paths, seed
override, and verbosity.  Subcommands:

    degrade         synthesize a degraded dataset + manifest
    train           fit a network; writes models, history CSV, filter grids
    eval            PSNR/SSIM tables, optional robustness sweep over beta
    solve           unsupervised primal-dual restoration, one batch
    gradcheck       analytic vs finite-difference gradients on a small instance
    export-filters  PGM grid of the last layer's analysis rows

Exit codes: 0 success, 1 validation error, 2 runtime failure, 3 gradcheck
failure.  Every artifact lands under the configured output directory next to
a byte-for-byte snapshot of the config that produced it.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import re
import shutil
import sys

import numpy as np

from . import data as datamod
from . import network as netmod
from .backprop import GRADIENT_TOL, backward, compare_gradients, finite_diff_gradients
from .network import BlockSpec, DenseSpec, ModelFormatError
from .operators import (
    INIT_STDDEV,
    NonFiniteNormError,
    block_sites,
    degradation_from_spec,
    make_first_difference,
    make_scaled_identity_analysis,
)
from .pdhg import check_stepsizes, pdhg_solve
from .rng import Stream, derive
from .training import TrainingDivergedError, train


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Config schema
# ---------------------------------------------------------------------------

# The one config model.  Each leaf is (type or set of allowed values,
# default), (int, default, least value) or (float, default, range word of
# ``_RANGES``); a ``float`` leaf takes any JSON number.  A default of None
# means "not given": the command that needs the key says so when it is
# missing.  ``null`` in a config also reads as "not given".
_SCHEMA = {
    "task": ({"deblur", "sr"}, None),
    "seed": (int, None),
    "output_dir": (str, None),
    "degradation": {
        "kind": ({"uniform-blur", "decimation", "identity"}, None),
        "size": (int, None),
        "factor": (int, None),
        "alpha": (float, 0.0, "nonnegative and finite"),
    },
    "data": {
        "source": ({"synthetic", "idx", "pgm-dir", "degraded-dir"}, None),
        "count": (int, 100, 1),
        # the default depends on the command: 28 for synthetic data, 4 for
        # gradcheck (whose finite differences need a small instance)
        "image_side": (int, None),
        "images": (str, None),
        "labels": (str, None),
        "path": (str, None),
        "limit": (int, None, 0),  # 0: every file or image
        "patch_size": (int, None, 1),
        "patches_per_image": (int, 16, 1),
        "train_frac": (float, 0.8),
        "val_frac": (float, 0.2),
    },
    "network": {
        "K": (int, None),
        "mode": ({"full", "partial"}, "full"),
        "L": (list, None),
        "init_stddev": (float, INIT_STDDEV, "positive and finite"),
    },
    # the keyword arguments of training.train, less its seed
    "train": {
        "gamma": (float, 1e-9, "positive and finite"),
        "batch_size": (int, 50, 1),
        "max_iter": (int, 1000, 1),
        "val_cadence": (int, 100, 1),
        "lr_decay_every": (int, None, 1),
        "lr_decay_factor": (float, 0.5, "in (0, 1]"),
    },
    "solve": {
        "prior": ({"identity", "first-diff"}, "first-diff"),
        "lambda": (float, 1.0, "positive and finite"),
        "tau": (float, 1.0, "positive"),
        # None: 0.9 times the largest sigma the step-size condition allows
        "sigma": (float, None, "positive and finite"),
        "tol": (float, 1e-5, "positive"),
        "max_iter": (int, 10_000, 1),
    },
}

# An entry of network.L: a spec string, or an object with these keys.
_L_ENTRY = {"spec": (str, None), "site_rule": ({"fit", "interior"}, "fit")}

_REQUIRED = {"seed", "output_dir"}


# The range words of float leaves; NaN is in none of them.
_RANGES = {"positive": lambda v: v > 0,
           "positive and finite": lambda v: 0 < v < math.inf,
           "nonnegative and finite": lambda v: 0 <= v < math.inf,
           "in (0, 1]": lambda v: 0 < v <= 1}


def _check_value(name: str, value, kind, bound=None):
    """``value`` checked against a leaf's type or allowed values and range."""
    if isinstance(kind, set):
        if not isinstance(value, str) or value not in kind:
            raise ConfigError(f"{name}: {value!r} not in {sorted(kind)}")
        return value
    numeric = (int, float) if kind is float else kind
    if isinstance(value, bool) or not isinstance(value, numeric):
        raise ConfigError(f"{name}: expected {kind.__name__}, got {type(value).__name__}")
    if kind is float:
        try:
            value = float(value)
        except OverflowError:  # a JSON integer past float64
            raise ConfigError(f"{name}: {len(str(abs(value)))}-digit integer "
                              f"overflows float64") from None
    if kind is int and not -2**63 <= value <= 2**63 - 1:  # array sizes and seeds hold 64 bits
        raise ConfigError(f"{name}: must be at {'most 2**63 - 1' if value > 0 else 'least -2**63'}"
                          " (int64)")
    if isinstance(bound, str) and not _RANGES[bound](value):
        raise ConfigError(f"{name} must be {bound}, got {value!r}")
    if isinstance(bound, int) and value < bound:
        raise ConfigError(f"{name}: must be >= {bound}, got {value}")
    return value


def _fill_section(name: str, value, schema: dict) -> dict:
    """A section checked key by key, with the defaults of keys not given."""
    if not isinstance(value, dict):
        raise ConfigError(f"{name}: expected an object")
    for key in value:
        if key not in schema:
            raise ConfigError(f"{name}.{key}: unknown key")
    return {key: default if value.get(key) is None
            else _check_value(f"{name}.{key}", value[key], kind, *bound)
            for key, (kind, default, *bound) in schema.items()}


def load_config(path: str, seed_override=None, output_override=None) -> dict:
    """The config at ``path``: each present section with its defaults filled in."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            cfg = json.load(f)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    for key in cfg:
        if key not in _SCHEMA:
            raise ConfigError(f"unknown top-level key {key!r}")
    cfg = {key: value for key, value in cfg.items() if value is not None}
    if seed_override is not None:
        cfg["seed"] = int(seed_override)
    if output_override is not None:
        cfg["output_dir"] = output_override
    for key in _REQUIRED:
        if key not in cfg:
            raise ConfigError(f"missing required config key {key!r}")
    cfg = {key: _fill_section(key, value, _SCHEMA[key]) if isinstance(_SCHEMA[key], dict)
           else _check_value(key, value, _SCHEMA[key][0])
           for key, value in cfg.items()}
    if "data" in cfg:
        try:
            datamod.check_fractions(cfg["data"]["train_frac"], cfg["data"]["val_frac"])
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    return cfg


def _section(cfg: dict, name: str) -> dict:
    if name not in cfg:
        raise ConfigError(f"config needs a {name!r} section")
    return cfg[name]


_LSPEC_RE = re.compile(r"^f(\d+)s(\d+)n(\d+)$")


def parse_l_spec(entry) -> DenseSpec | BlockSpec:
    """L entries: "dense:P", "fQsSnF" strings, or {"spec":..., "site_rule":...}."""
    fields = _fill_section("network.L entry",
                           {"spec": entry} if isinstance(entry, str) else entry, _L_ENTRY)
    entry, site_rule = fields["spec"], fields["site_rule"]
    if entry is None:
        raise ConfigError("network.L entry needs a 'spec'")
    if entry.startswith("dense:"):
        try:
            p = int(entry.split(":", 1)[1])
        except ValueError as exc:
            raise ConfigError(f"bad dense spec {entry!r}") from exc
        if p < 1:
            raise ConfigError(f"dense spec needs P >= 1, got {p}")
        return DenseSpec(_check_value(f"network.L {entry!r} P", p, int))
    m = _LSPEC_RE.match(entry)
    if not m:
        raise ConfigError(f"bad L spec {entry!r} (want 'dense:P' or 'fQsSnF')")
    q, stride, filters = (_check_value(f"network.L {entry!r} {name}", int(g), int)
                          for name, g in zip("QSF", m.groups()))
    if min(q, stride, filters) < 1:
        raise ConfigError(f"L spec {entry!r} fields must be positive")
    return BlockSpec(q, stride, filters, site_rule=site_rule)


# ---------------------------------------------------------------------------
# Shared assembly helpers
# ---------------------------------------------------------------------------


def _build_degradation(cfg: dict, side: int):
    d = _section(cfg, "degradation")
    kind, alpha = d["kind"], d["alpha"]
    key = {"uniform-blur": "size", "decimation": "factor"}.get(kind)
    if key is None:  # identity, or no kind given
        spec = {"kind": kind, "image_side": side * side}
    elif d[key] is None:
        raise ConfigError(f"{kind} needs {key!r}")
    else:
        spec = {"kind": kind, "size_or_factor": d[key], "image_side": side}
    try:
        return degradation_from_spec(spec), alpha
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _degrade_set(clean, a_op, alpha: float, seed: int) -> datamod.Dataset:
    try:
        return datamod.degrade_set(clean, a_op, alpha, seed)
    except OverflowError as exc:
        raise ConfigError(f"degradation.alpha {alpha!r} is too large: "
                          f"the noisy measurements overflow float64") from exc


def _load_clean_images(cfg: dict):
    """Clean image stack (n, side*side) from a raw image source."""
    d = _section(cfg, "data")
    source, limit = d["source"], d["limit"] or None
    if source == "synthetic":
        side = 28 if d["image_side"] is None else d["image_side"]
        if side < 7:
            raise ConfigError("synthetic images need image_side >= 7")
        return datamod.synthetic_digits(d["count"], side=side, seed=derive(cfg["seed"], 1))
    if source == "idx":
        if d["images"] is None:
            raise ConfigError("idx source needs 'images'")
        images = datamod.load_idx(d["images"], d["labels"])[:limit]
        if not len(images):
            raise ConfigError("idx source produced no images")
        return images.reshape(len(images), -1)
    if source == "pgm-dir":
        if d["path"] is None or d["patch_size"] is None:
            raise ConfigError("pgm-dir source needs 'path' and 'patch_size'")
        q = d["patch_size"]
        files = sorted(f for f in os.listdir(d["path"]) if f.endswith(".pgm"))[:limit]
        if not files:
            raise ConfigError(f"no .pgm files under {d['path']}")
        patches = []
        for i, fname in enumerate(files):
            raster = datamod.load_pgm(os.path.join(d["path"], fname))
            try:
                patches.append(datamod.extract_patches(raster, q, d["patches_per_image"],
                                                       derive(cfg["seed"], 2, i)))
            except ValueError as exc:  # a raster smaller than the patch
                raise ConfigError(f"data.patch_size: {exc} ({fname})") from exc
        return np.concatenate(patches)
    raise ConfigError(f"unknown data source {source!r}")


def _read_blob(path: str) -> bytearray:
    """A file's bytes in one writable buffer."""
    with open(path, "rb") as f:
        blob = bytearray(os.fstat(f.fileno()).st_size)
        f.readinto(blob)
    return blob


def _npy_view(blob: bytearray) -> np.ndarray:
    """The array of a ``.npy`` file's bytes, viewed in ``blob`` without a copy.

    Refuses what ``np.load(allow_pickle=False)`` refuses, with ``ValueError``:
    a bad magic or header, an object dtype, too few bytes for the shape.
    """
    fmt = np.lib.format
    head = io.BytesIO(blob[:12 + 10000])  # magic, length and np.load's largest header
    version = fmt.read_magic(head)
    read_header = {(1, 0): fmt.read_array_header_1_0,
                   (2, 0): fmt.read_array_header_2_0}.get(version)
    if read_header is None:
        raise ValueError(f"unsupported .npy format version {version}")
    shape, fortran_order, dtype = read_header(head)
    if dtype.hasobject:
        raise ValueError("object arrays cannot be loaded")
    array = np.frombuffer(blob, dtype=dtype, count=math.prod(shape), offset=head.tell())
    return array.reshape(shape[::-1]).T if fortran_order else array.reshape(shape)


def _load_degraded_dir(root: str) -> datamod.Dataset:
    """The dataset ``degrade`` wrote under ``root``, checked against its manifest.

    Each ``.npy`` file is read once: the arrays are views of the hashed bytes.
    """
    names = ("clean.npy", "degraded.npy")
    try:
        with open(os.path.join(root, "manifest.json"), "r", encoding="ascii") as f:
            manifest = json.load(f)
        blobs = [_read_blob(os.path.join(root, name)) for name in names]
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot load dataset dir {root}: {exc}") from exc

    def field(key, kind):
        value = manifest.get(key) if isinstance(manifest, dict) else None
        if isinstance(value, bool) or not isinstance(value, kind):
            raise ConfigError(f"manifest in {root}: {key!r} missing or of a wrong type")
        return value

    side, seed, files = field("side", int), field("seed", int), field("files", dict)
    alpha, spec = field("alpha", (int, float)), field("degradation", dict)
    for name, blob in zip(names, blobs):
        if hashlib.sha256(blob).hexdigest() != files.get(name):
            raise ConfigError(f"{name} in {root} does not match its manifest sha256")
    try:
        clean, degraded = (_npy_view(blob) for blob in blobs)
        finite = [bool(np.isfinite(a).all()) for a in (clean, degraded)]
        n = spec.get("image_side")  # N for identity, else the side; checked before the build
        if isinstance(n, int) and clean.shape[1:] != (n if spec.get("kind") == "identity"
                                                      else n * n,):
            raise ValueError(f"clean {clean.shape} does not fit degradation image_side {n}")
        a_op = degradation_from_spec(spec)
    except (EOFError, TypeError, ValueError) as exc:
        raise ConfigError(f"dataset dir {root}: {exc}") from exc
    for name, ok in zip(names, finite):
        if not ok:
            raise ConfigError(f"{name} in {root} holds NaN or inf values")
    if not (side * side == a_op.in_dim and clean.ndim == 2
            and clean.shape[1] == a_op.in_dim
            and degraded.shape == (len(clean), a_op.out_dim)):
        raise ConfigError(f"dataset dir {root}: clean {clean.shape} and degraded "
                          f"{degraded.shape} do not fit side {side} and the "
                          f"degradation ({a_op.in_dim} -> {a_op.out_dim} pixels)")
    if len(clean) == 0:
        raise ConfigError(f"dataset dir {root} holds no images")
    return datamod.Dataset(clean=clean, degraded=degraded, degradation=a_op,
                           noise_alpha=float(alpha), seed=seed)


def _load_dataset(cfg: dict) -> datamod.Dataset:
    """Full dataset (clean + degraded) from either raw sources or a degrade dir."""
    if "data" in cfg and cfg["data"]["source"] == "degraded-dir":
        if not cfg["data"]["path"]:
            raise ConfigError("degraded-dir source needs 'path'")
        return _load_degraded_dir(cfg["data"]["path"])
    clean = _load_clean_images(cfg)
    a_op, alpha = _build_degradation(cfg, math.isqrt(clean.shape[1]))
    return _degrade_set(clean, a_op, alpha, derive(cfg["seed"], 3))


def _split_dataset(cfg: dict, dataset: datamod.Dataset):
    d = cfg["data"]  # its fractions were checked at load
    return datamod.split(dataset, d["train_frac"], d["val_frac"], derive(cfg["seed"], 4))


def _eval_subset(cfg: dict, dataset: datamod.Dataset) -> datamod.Dataset:
    """Evaluation rows: the test split when nonempty, else val, else all."""
    if cfg["data"]["train_frac"] + cfg["data"]["val_frac"] == 0:
        return dataset
    tr, va, te = _split_dataset(cfg, dataset)
    if len(te):
        return te
    return va if len(va) else dataset


def _prepare_output(cfg: dict, config_path: str) -> str:
    out = cfg["output_dir"]
    os.makedirs(out, exist_ok=True)
    shutil.copyfile(config_path, os.path.join(out, "config.json"))
    return out


def _fmt(x: float, spec: str = ".4f") -> str:
    """A PSNR as text; ``spec`` "" gives repr's digits."""
    return "identical" if math.isinf(x) else format(x, spec)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_degrade(cfg: dict, args: argparse.Namespace) -> int:
    dataset = _load_dataset(cfg)
    out = _prepare_output(cfg, args.config)
    arrays = {"clean.npy": dataset.clean, "degraded.npy": dataset.degraded}
    for name, array in arrays.items():
        np.save(os.path.join(out, name), array)
    manifest = {
        "side": dataset.side,
        "count": len(dataset),
        "alpha": dataset.noise_alpha,
        "seed": dataset.seed,
        "degradation": dataset.degradation.spec(),
        "norm_a": dataset.degradation.cached_norm,
        "files": {name: hashlib.sha256(_read_blob(os.path.join(out, name))).hexdigest()
                  for name in arrays},
    }
    with open(os.path.join(out, "manifest.json"), "w", encoding="ascii") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    if args.verbose:
        print(f"wrote {len(dataset)} pairs to {out}")
    return 0


def _build_network(cfg: dict, a_op):
    net = _section(cfg, "network")
    if net["K"] is None or not net["L"]:
        raise ConfigError("network section needs 'K' and a nonempty 'L' list")
    specs = [parse_l_spec(e) for e in net["L"]]
    stddev = net["init_stddev"]
    n = a_op.in_dim
    try:
        # the weights are counted, not drawn: float64 ones past physical memory are refused
        per_layer = sum(spec.p * n if isinstance(spec, DenseSpec) else
                        len(block_sites(math.isqrt(n), spec.q, spec.stride, spec.site_rule))
                        * spec.filters_per_site * spec.q**2 for spec in specs)
        size = 8 * net["K"] * per_layer
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        if size > memory:
            raise ConfigError(f"network.L {net['L']!r}: K = {net['K']} layers of {per_layer} "
                              f"float64 weights take {size} bytes, more than the {memory} "
                              f"bytes of physical memory")
        return netmod.init_network(a_op, net["K"], specs, net["mode"],
                                   derive(cfg["seed"], 5), stddev=stddev)
    except netmod.ZeroNormError as exc:  # weights so small that ||L|| underflows
        raise ConfigError(f"network.init_stddev {stddev!r} is too small: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    except NonFiniteNormError as exc:  # weights so large that ||L|| overflows
        raise ConfigError(f"network.init_stddev {stddev!r} is too large: {exc}") from exc


def _filter_grid(weights: np.ndarray, q: int) -> np.ndarray:
    """The rows of ``weights`` as Q x Q tiles on a grid, each min-max rescaled
    to [0, 255] (a constant tile reads 0), tile t at grid row t // columns,
    with a 1-pixel 0 border around every tile."""
    count = weights.shape[0]
    grid_cols = int(math.ceil(math.sqrt(count)))
    grid_rows = int(math.ceil(count / grid_cols))
    # the canvas first, so the tiles' buffer, freed on return, leaves no heap hole
    # under it: the other order added 0.6 MB to deblur's peak RSS
    canvas = np.zeros((grid_rows * (q + 1) + 1, grid_cols * (q + 1) + 1))
    lo = weights.min(axis=1, keepdims=True)
    span = weights.max(axis=1, keepdims=True) - lo
    tiles = np.zeros((grid_rows * grid_cols, q * q))  # the unused cells stay 0
    scaled = np.subtract(weights, lo, out=tiles[:count])
    # a constant tile has weights - lo == 0 exactly, so any span in its place reads 0
    scaled /= np.where(span == 0, 1.0, span)
    scaled *= 255.0
    # cell (r, c): a separator row and column, then tile r * grid_cols + c;
    # splitting each axis in two keeps the reshape a view of the canvas
    cells = canvas[:-1, :-1].reshape(grid_rows, q + 1, grid_cols, q + 1)
    cells[:, 1:, :, 1:] = tiles.reshape(grid_rows, grid_cols, q, q).transpose(0, 2, 1, 3)
    return canvas


def export_filter_grids(params: netmod.NetworkParams, out_dir: str) -> list[str]:
    """One PGM grid (:func:`_filter_grid`) per part of the last layer's
    analysis operator: a tile per row, in its natural shape (sqrt(N) x
    sqrt(N) for dense parts, Q x Q for block-sparse)."""
    written = []
    for i, part in enumerate(params.layers[-1].analysis.parts()):
        weights = part.weights  # one row of N or Q^2 weights per filter
        q = math.isqrt(weights.shape[1])
        if q * q != weights.shape[1]:
            continue
        path = os.path.join(out_dir, f"filters_part{i}.pgm")
        datamod.save_pgm(path, _filter_grid(weights, q))
        written.append(path)
    return written


def cmd_train(cfg: dict, args: argparse.Namespace) -> int:
    # only the train and val copies stay alive: no training step reads the rest
    train_set, val_set = _split_dataset(cfg, _load_dataset(cfg))[:2]
    if len(train_set) == 0 or len(val_set) == 0:
        raise ConfigError("train and val splits must both be nonempty")
    params = _build_network(cfg, train_set.degradation)
    recipe = _section(cfg, "train")
    out = _prepare_output(cfg, args.config)
    result = train(params, train_set.clean, train_set.degraded, val_set.clean,
                   val_set.degraded, seed=derive(cfg["seed"], 6), **recipe)
    netmod.serialize(result.final_params, os.path.join(out, "model_final.json"))
    netmod.serialize(result.best_params, os.path.join(out, "model_best.json"))
    result.history.to_csv(os.path.join(out, "history.csv"))
    export_filter_grids(result.final_params, out)
    if args.verbose:
        last = result.history.records[-1]
        print(f"trained {recipe['max_iter']} iterations in {result.seconds:.1f}s; "
              f"final val PSNR {_fmt(last['val_psnr'])} dB "
              f"(best {_fmt(result.best_psnr)} at iteration {result.best_iter})")
    return 0


def _betas(text: str | None) -> list[float]:
    """The levels of ``--beta``: comma-separated, nonnegative and finite."""
    try:
        betas = [float(b) for b in text.split(",")] if text else []
    except ValueError as exc:
        raise ConfigError(f"--beta takes comma-separated numbers: {exc}") from exc
    for beta in betas:
        if not 0 <= beta < math.inf:  # NaN fails this test too
            raise ConfigError(f"--beta levels must be nonnegative and finite, got {beta!r}")
    return betas


def cmd_eval(cfg: dict, args: argparse.Namespace) -> int:
    betas = _betas(args.beta)
    params = netmod.deserialize(args.model)
    dataset = _load_dataset(cfg)
    if dataset.degradation.spec() != params.degradation.spec():
        raise ConfigError(
            f"model degradation {params.degradation.spec()} does not match "
            f"dataset degradation {dataset.degradation.spec()}"
        )
    subset = _eval_subset(cfg, dataset)
    try:
        table = datamod.robustness_eval(params, subset, betas, derive(cfg["seed"], 7))
    except OverflowError as exc:
        raise ConfigError(f"--beta level too large: {exc}") from exc
    out = _prepare_output(cfg, args.config)
    mean_psnr, mean_ssim = table[0]["psnr"], table[0]["ssim"]  # beta = 0: the plain pass
    rows = zip([*range(len(subset)), "mean"], table[0]["psnrs"] + [mean_psnr],
               table[0]["ssims"] + [mean_ssim])
    datamod.save_csv(os.path.join(out, "metrics.csv"), ["image", "psnr", "ssim"],
                     ([i, _fmt(p, ""), s] for i, p, s in rows))
    if betas:
        cols = ["beta", "psnr", "ssim", "psnr_drop_pct", "ssim_drop_pct"]
        datamod.save_csv(os.path.join(out, "robustness.csv"), cols,
                         ([r[c] for c in cols] for r in table))
    if args.verbose:
        print(f"evaluated {len(subset)} images: mean PSNR {_fmt(mean_psnr)} dB, "
              f"mean SSIM {mean_ssim:.4f}")
    return 0


def cmd_solve(cfg: dict, args: argparse.Namespace) -> int:
    s = _section(cfg, "solve")
    dataset = _load_dataset(cfg)
    subset = _eval_subset(cfg, dataset)
    a_op = dataset.degradation
    lam, tau, max_iter = s["lambda"], s["tau"], s["max_iter"]
    if s["prior"] == "identity":
        l_op = make_scaled_identity_analysis(a_op.in_dim, lam)
    else:
        l_op = make_first_difference(dataset.side, scale=lam)
    norm_a = a_op.cached_norm
    if 1.0 / tau <= norm_a**2 / 2.0:
        raise ConfigError("solve.tau too large: 1/tau must exceed ||A||^2 / 2")
    try:
        norm_l = l_op.norm()
        if not norm_l**2 > 0:
            raise ConfigError(f"solve.lambda {lam!r} is too small: ||L||^2 underflows to 0")
    except (NonFiniteNormError, OverflowError) as exc:
        raise ConfigError(f"solve.lambda {lam!r} is too large: ||L||^2 overflows") from exc
    sigma = s["sigma"]
    if sigma is None:
        sigma = 0.9 * (1.0 / tau - norm_a**2 / 2.0) / norm_l**2
    if not 0 < sigma < math.inf:
        raise ConfigError(f"sigma must be positive and finite, got {sigma!r}")
    if not check_stepsizes(tau, sigma, norm_a, norm_l) > 0:
        raise ConfigError("sigma too large: 1/tau - sigma ||L||^2 must exceed ||A||^2 / 2")
    out = _prepare_output(cfg, args.config)
    x_hat, iterations, residual, converged = pdhg_solve(
        a_op, l_op, subset.degraded, tau, sigma, tol=s["tol"], max_iter=max_iter)
    for i, x in enumerate(x_hat):
        datamod.save_pgm(os.path.join(out, f"restored_{i:04d}.pgm"),
                         x.reshape(subset.side, subset.side))
    psnrs = [_fmt(p, "") for p in datamod.psnr(x_hat, subset.clean).tolist()]
    datamod.save_csv(os.path.join(out, "solve_report.csv"),
                     ["image", "iterations", "final_residual", "converged", "psnr"],
                     zip(range(len(x_hat)), iterations.tolist(), residual.tolist(),
                         converged.astype(int).tolist(), psnrs))
    if args.verbose:
        print(f"solved {len(x_hat)} images "
              f"({(~converged).sum()} not converged within {max_iter} iterations)")
    return 0


# Finite-difference step of ``gradcheck``, suited to pixels on [0, 255]: at
# 1e-6 round-off dominates the reference, at 1e-3 steps cross the clip's kinks.
_GRADCHECK_EPSILON = 1e-4


def cmd_gradcheck(cfg: dict, args: argparse.Namespace) -> int:
    given = cfg["data"]["image_side"] if "data" in cfg else None
    side = 4 if given is None else given
    if side * side > 64:
        raise ConfigError("gradcheck needs a small instance (image_side^2 <= 64)")
    a_op, alpha = _build_degradation(cfg, side)
    params = _build_network(cfg, a_op)
    stream = Stream(derive(cfg["seed"], 8))
    clean = (stream.uniform(3 * side * side) * 255.0).reshape(3, side * side)
    degraded = _degrade_set(clean, a_op, alpha, derive(cfg["seed"], 9)).degraded
    _, trace = netmod.forward(params, degraded, keep_trace=True)
    errors = compare_gradients(
        backward(params, clean, trace),
        finite_diff_gradients(params, clean, degraded, epsilon=_GRADCHECK_EPSILON))
    ok = all(v <= GRADIENT_TOL for v in errors.values())
    for group, err in errors.items():
        print(f"gradcheck {group:8s} max relative error {err:.3e} "
              f"{'ok' if err <= GRADIENT_TOL else 'FAIL'}")
    print(f"gradcheck: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 3


def cmd_export_filters(cfg: None, args: argparse.Namespace) -> int:
    params = netmod.deserialize(args.model)
    os.makedirs(args.output, exist_ok=True)
    written = export_filter_grids(params, args.output)
    if args.verbose:
        for path in written:
            print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

# Each subcommand's handler(config, or None for export-filters; parsed arguments).
_COMMANDS = {"degrade": cmd_degrade, "train": cmd_train, "eval": cmd_eval,
             "solve": cmd_solve, "gradcheck": cmd_gradcheck,
             "export-filters": cmd_export_filters}


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="pdnet",
                                description="unrolled primal-dual network driver")
    sub = p.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sp = sub.add_parser(name)
        if name != "export-filters":
            sp.add_argument("--config", required=True)
            sp.add_argument("--seed", type=int, default=None)
            sp.add_argument("--output", default=None)
        if name in ("eval", "export-filters"):
            sp.add_argument("--model", required=True)
        if name == "export-filters":
            sp.add_argument("--output", required=True)
        sp.add_argument("-v", "--verbose", action="store_true")
        if name == "eval":
            sp.add_argument("--beta", default=None,
                            help="comma-separated extra-noise levels, e.g. 2,5,10,20")
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = None if args.command == "export-filters" else load_config(
            args.config, seed_override=args.seed, output_override=args.output)
        return _COMMANDS[args.command](cfg, args)
    except (ConfigError, ModelFormatError, OSError, datamod.IdxParseError,
            datamod.PgmParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (TrainingDivergedError, RuntimeError, ValueError, MemoryError) as exc:
        print(f"runtime failure: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
