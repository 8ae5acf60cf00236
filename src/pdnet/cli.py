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
from pathlib import Path

import numpy as np

from . import data as datamod
from . import network as netmod
from .backprop import backward, compare_gradients, finite_diff_gradients
from .network import BlockSpec, DenseSpec, ModelFormatError
from .operators import (
    INIT_STDDEV,
    Decimation,
    IdentityOperator,
    UniformBlur,
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
# default), or (int, default, least value); a ``float`` leaf takes any JSON
# number.  A default of None means "not given": the command that needs the
# key says so when it is missing.  ``null`` in a config also reads as "not
# given".
_SCHEMA = {
    "task": ({"deblur", "sr"}, None),
    "seed": (int, None),
    "output_dir": (str, None),
    "degradation": {
        "kind": ({"uniform-blur", "decimation", "identity"}, None),
        "size": (int, None),
        "factor": (int, None),
        "alpha": (float, 0.0),
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
        "init_stddev": (float, INIT_STDDEV),
    },
    # the keyword arguments of training.train, less its seed
    "train": {
        "gamma": (float, 1e-9),
        "batch_size": (int, 50, 1),
        "max_iter": (int, 1000, 1),
        "val_cadence": (int, 100, 1),
        "lr_decay_every": (int, None, 1),
        "lr_decay_factor": (float, 0.5),
    },
    "solve": {
        "prior": ({"identity", "first-diff"}, "first-diff"),
        "lambda": (float, 1.0),
        "tau": (float, 1.0),
        # None: 0.9 times the largest sigma the step-size condition allows
        "sigma": (float, None),
        "tol": (float, 1e-5),
        "max_iter": (int, 10_000, 1),
    },
}

# An entry of network.L: a spec string, or an object with these keys.
_L_ENTRY = {"spec": (str, None), "site_rule": ({"fit", "interior"}, "fit")}

_REQUIRED = {"seed", "output_dir"}


def _check_value(name: str, value, kind, least=None):
    """``value`` checked against a leaf's type or allowed values and range."""
    if isinstance(kind, set):
        if not isinstance(value, str) or value not in kind:
            raise ConfigError(f"{name}: {value!r} not in {sorted(kind)}")
        return value
    numeric = (int, float) if kind is float else kind
    if isinstance(value, bool) or not isinstance(value, numeric):
        raise ConfigError(f"{name}: expected {kind.__name__}, got {type(value).__name__}")
    if least is not None and value < least:
        raise ConfigError(f"{name}: must be >= {least}, got {value}")
    return float(value) if kind is float else value


def _fill_section(name: str, value, schema: dict) -> dict:
    """A section checked key by key, with the defaults of keys not given."""
    if not isinstance(value, dict):
        raise ConfigError(f"{name}: expected an object")
    for key in value:
        if key not in schema:
            raise ConfigError(f"{name}.{key}: unknown key")
    return {key: default if value.get(key) is None
            else _check_value(f"{name}.{key}", value[key], kind, *least)
            for key, (kind, default, *least) in schema.items()}


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
    return {key: _fill_section(key, value, _SCHEMA[key]) if isinstance(_SCHEMA[key], dict)
            else _check_value(key, value, _SCHEMA[key][0])
            for key, value in cfg.items()}


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
        return DenseSpec(p)
    m = _LSPEC_RE.match(entry)
    if not m:
        raise ConfigError(f"bad L spec {entry!r} (want 'dense:P' or 'fQsSnF')")
    q, stride, filters = (int(g) for g in m.groups())
    if min(q, stride, filters) < 1:
        raise ConfigError(f"L spec {entry!r} fields must be positive")
    return BlockSpec(q, stride, filters, site_rule=site_rule)


# ---------------------------------------------------------------------------
# Shared assembly helpers
# ---------------------------------------------------------------------------


def _build_degradation(cfg: dict, side: int):
    d = _section(cfg, "degradation")
    kind, alpha = d["kind"], d["alpha"]
    if not 0 <= alpha < math.inf:  # NaN fails this test too
        raise ConfigError(f"alpha must be nonnegative and finite, got {alpha!r}")
    key = {"uniform-blur": "size", "decimation": "factor"}.get(kind)
    if key is not None and d[key] is None:
        raise ConfigError(f"{kind} needs {key!r}")
    try:
        if kind == "uniform-blur":
            return UniformBlur(d["size"], side), alpha
        if kind == "decimation":
            return Decimation(d["factor"], side), alpha
        if kind == "identity":
            return IdentityOperator(side * side), alpha
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    raise ConfigError(f"unknown degradation kind {kind!r}")


def _load_clean_images(cfg: dict):
    """Clean image stack (n, side*side) plus side, from a raw image source."""
    d = _section(cfg, "data")
    source, limit = d["source"], d["limit"] or None
    if source == "synthetic":
        side = 28 if d["image_side"] is None else d["image_side"]
        if side < 7:
            raise ConfigError("synthetic images need image_side >= 7")
        return datamod.synthetic_digits(d["count"], side=side,
                                        seed=derive(cfg["seed"], 1)), side
    if source == "idx":
        if d["images"] is None:
            raise ConfigError("idx source needs 'images'")
        images = datamod.load_idx(d["images"], d["labels"])[:limit]
        if not len(images):
            raise ConfigError("idx source produced no images")
        return images.reshape(len(images), -1), images.shape[1]
    if source == "pgm-dir":
        if d["path"] is None or d["patch_size"] is None:
            raise ConfigError("pgm-dir source needs 'path' and 'patch_size'")
        q = d["patch_size"]
        files = sorted(f for f in os.listdir(d["path"]) if f.endswith(".pgm"))[:limit]
        if not files:
            raise ConfigError(f"no .pgm files under {d['path']}")
        return np.concatenate([
            datamod.extract_patches(datamod.load_pgm(os.path.join(d["path"], fname)),
                                    q, d["patches_per_image"], derive(cfg["seed"], 2, i))
            for i, fname in enumerate(files)]), q
    raise ConfigError(f"unknown data source {source!r}")


def _load_degraded_dir(root: str) -> datamod.Dataset:
    """The dataset ``degrade`` wrote under ``root``, checked against its manifest."""
    names = ("clean.npy", "degraded.npy")
    try:
        with open(os.path.join(root, "manifest.json"), "r", encoding="ascii") as f:
            manifest = json.load(f)
        blobs = [Path(root, name).read_bytes() for name in names]
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
        a_op = degradation_from_spec(spec)
        clean, degraded = (np.load(io.BytesIO(blob)) for blob in blobs)
    except (EOFError, TypeError, ValueError) as exc:
        raise ConfigError(f"dataset dir {root}: {exc}") from exc
    if not (side * side == a_op.in_dim and clean.ndim == 2
            and clean.shape[1] == a_op.in_dim
            and degraded.shape == (len(clean), a_op.out_dim)):
        raise ConfigError(f"dataset dir {root}: clean {clean.shape} and degraded "
                          f"{degraded.shape} do not fit side {side} and the "
                          f"degradation ({a_op.in_dim} -> {a_op.out_dim} pixels)")
    return datamod.Dataset(side=side, clean=clean, degraded=degraded, degradation=a_op,
                           noise_alpha=float(alpha), seed=seed)


def _load_dataset(cfg: dict) -> datamod.Dataset:
    """Full dataset (clean + degraded) from either raw sources or a degrade dir."""
    if "data" in cfg and cfg["data"]["source"] == "degraded-dir":
        if not cfg["data"]["path"]:
            raise ConfigError("degraded-dir source needs 'path'")
        return _load_degraded_dir(cfg["data"]["path"])
    clean, side = _load_clean_images(cfg)
    a_op, alpha = _build_degradation(cfg, side)
    return datamod.degrade_set(clean, side, a_op, alpha, derive(cfg["seed"], 3))


def _split_dataset(cfg: dict, dataset: datamod.Dataset):
    d = cfg["data"]
    try:
        return datamod.split(dataset, d["train_frac"], d["val_frac"],
                             derive(cfg["seed"], 4))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


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


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        h.update(f.read())
    return h.hexdigest()


def _fmt(x: float) -> str:
    return "identical" if math.isinf(x) else f"{x:.4f}"


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_degrade(cfg: dict, config_path: str, verbose: bool) -> int:
    dataset = _load_dataset(cfg)
    out = _prepare_output(cfg, config_path)
    np.save(os.path.join(out, "clean.npy"), dataset.clean)
    np.save(os.path.join(out, "degraded.npy"), dataset.degraded)
    manifest = {
        "side": dataset.side,
        "count": len(dataset),
        "alpha": dataset.noise_alpha,
        "seed": dataset.seed,
        "degradation": dataset.degradation.spec(),
        "norm_a": dataset.degradation.cached_norm,
        "files": {
            "clean.npy": _sha256(os.path.join(out, "clean.npy")),
            "degraded.npy": _sha256(os.path.join(out, "degraded.npy")),
        },
    }
    with open(os.path.join(out, "manifest.json"), "w", encoding="ascii") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    if verbose:
        print(f"wrote {len(dataset)} pairs to {out}")
    return 0


def _build_network(cfg: dict, a_op):
    net = _section(cfg, "network")
    if net["K"] is None or not net["L"]:
        raise ConfigError("network section needs 'K' and a nonempty 'L' list")
    if not 0 < net["init_stddev"] < math.inf:
        raise ConfigError("network.init_stddev must be positive and finite")
    specs = [parse_l_spec(e) for e in net["L"]]
    side = getattr(a_op, "side", None)
    for s in specs:
        if isinstance(s, BlockSpec) and side is not None and s.q > side:
            raise ConfigError(f"L window {s.q} exceeds image side {side}")
    try:
        return netmod.init_network(a_op, net["K"], specs, net["mode"],
                                   derive(cfg["seed"], 5), stddev=net["init_stddev"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def export_filter_grids(params: netmod.NetworkParams, out_dir: str,
                        prefix: str = "filters") -> list[str]:
    """One PGM grid per part of the last layer's analysis operator.

    Each tile is a row reshaped to its natural shape (sqrt(N) x sqrt(N) for
    dense parts, Q x Q for block-sparse), min-max rescaled per tile.
    """
    written = []
    for i, part in enumerate(params.layers[-1].analysis.parts()):
        bs = getattr(part, "block_spec", None)
        if bs is not None:
            q = bs["q"]
            tiles = part.weight_arrays()[0].reshape(part.out_dim, q, q)
        else:
            q = int(round(math.sqrt(part.in_dim)))
            if q * q != part.in_dim:
                continue
            tiles = part.weight_arrays()[0].reshape(part.out_dim, q, q)
        count = tiles.shape[0]
        grid_cols = int(math.ceil(math.sqrt(count)))
        grid_rows = int(math.ceil(count / grid_cols))
        canvas = np.zeros((grid_rows * (q + 1) + 1, grid_cols * (q + 1) + 1))
        for t in range(count):
            tile = tiles[t]
            lo, hi = tile.min(), tile.max()
            scaled = np.zeros_like(tile) if hi == lo else (tile - lo) / (hi - lo) * 255.0
            r, c = divmod(t, grid_cols)
            canvas[r * (q + 1) + 1:r * (q + 1) + 1 + q,
                   c * (q + 1) + 1:c * (q + 1) + 1 + q] = scaled
        path = os.path.join(out_dir, f"{prefix}_part{i}.pgm")
        datamod.save_pgm(path, canvas)
        written.append(path)
    return written


def cmd_train(cfg: dict, config_path: str, verbose: bool) -> int:
    dataset = _load_dataset(cfg)
    train_set, val_set, _ = _split_dataset(cfg, dataset)
    if len(train_set) == 0 or len(val_set) == 0:
        raise ConfigError("train and val splits must both be nonempty")
    params = _build_network(cfg, dataset.degradation)
    recipe = _section(cfg, "train")
    if not 0 < recipe["gamma"] < math.inf:  # NaN fails this test too
        raise ConfigError("learning rate gamma must be positive and finite")
    if not 0 < recipe["lr_decay_factor"] <= 1:
        raise ConfigError("train.lr_decay_factor must be in (0, 1]")
    out = _prepare_output(cfg, config_path)
    result = train(params, train_set.clean, train_set.degraded, val_set.clean,
                   val_set.degraded, dataset.side, seed=derive(cfg["seed"], 6), **recipe)
    netmod.serialize(result.final_params, os.path.join(out, "model_final.json"))
    netmod.serialize(result.best_params, os.path.join(out, "model_best.json"))
    result.history.to_csv(os.path.join(out, "history.csv"))
    export_filter_grids(result.final_params, out)
    if verbose:
        last = result.history.records[-1]
        print(f"trained {recipe['max_iter']} iterations in {result.seconds:.1f}s; "
              f"final val PSNR {_fmt(last['val_psnr'])} dB "
              f"(best {_fmt(result.best_psnr)} at iteration {result.best_iter})")
    return 0


def cmd_eval(cfg: dict, config_path: str, model_path: str, betas: list[float],
             verbose: bool) -> int:
    params = netmod.deserialize(model_path)
    dataset = _load_dataset(cfg)
    if dataset.degradation.spec() != params.degradation.spec():
        raise ConfigError(
            f"model degradation {params.degradation.spec()} does not match "
            f"dataset degradation {dataset.degradation.spec()}"
        )
    subset = _eval_subset(cfg, dataset)
    out = _prepare_output(cfg, config_path)
    restored, _ = netmod.forward(params, subset.degraded)
    rows = []
    for i in range(len(subset)):
        rows.append((i, datamod.psnr(restored[i], subset.clean[i]),
                     datamod.ssim(restored[i], subset.clean[i], side=subset.side)))
    finite = [r[1] for r in rows if math.isfinite(r[1])]
    mean_psnr = float(np.mean([r[1] for r in rows])) if finite else float("inf")
    mean_ssim = float(np.mean([r[2] for r in rows]))
    with open(os.path.join(out, "metrics.csv"), "w", encoding="ascii") as f:
        f.write("image,psnr,ssim\n")
        for i, p, s in rows:
            f.write(f"{i},{'identical' if math.isinf(p) else repr(p)},{repr(s)}\n")
        f.write(f"mean,{'identical' if math.isinf(mean_psnr) else repr(mean_psnr)},"
                f"{repr(mean_ssim)}\n")
    if betas:
        table = datamod.robustness_eval(params, subset, betas, derive(cfg["seed"], 7))
        with open(os.path.join(out, "robustness.csv"), "w", encoding="ascii") as f:
            f.write("beta,psnr,ssim,psnr_drop_pct,ssim_drop_pct\n")
            for r in table:
                f.write(f"{repr(r['beta'])},{repr(r['psnr'])},{repr(r['ssim'])},"
                        f"{repr(r['psnr_drop_pct'])},{repr(r['ssim_drop_pct'])}\n")
    if verbose:
        print(f"evaluated {len(subset)} images: mean PSNR {_fmt(mean_psnr)} dB, "
              f"mean SSIM {mean_ssim:.4f}")
    return 0


def cmd_solve(cfg: dict, config_path: str, verbose: bool) -> int:
    s = _section(cfg, "solve")
    dataset = _load_dataset(cfg)
    subset = _eval_subset(cfg, dataset)
    a_op = dataset.degradation
    lam, tau, max_iter = s["lambda"], s["tau"], s["max_iter"]
    if not 0 < lam < math.inf:  # NaN fails this test too
        raise ConfigError(f"lambda must be positive and finite, got {lam!r}")
    if not s["tol"] > 0:
        raise ConfigError("tol must be positive")
    if s["prior"] == "identity":
        l_op = make_scaled_identity_analysis(a_op.in_dim, lam)
    else:
        l_op = make_first_difference(dataset.side, scale=lam)
    if not tau > 0:  # NaN fails this test too
        raise ConfigError("tau must be positive")
    norm_a = a_op.cached_norm
    if 1.0 / tau <= norm_a**2 / 2.0:
        raise ConfigError("tau too large: 1/tau must exceed ||A||^2 / 2")
    sigma = s["sigma"]
    if sigma is None:
        sigma = 0.9 * (1.0 / tau - norm_a**2 / 2.0) / l_op.norm() ** 2
    if not 0 < sigma < math.inf:
        raise ConfigError(f"sigma must be positive and finite, got {sigma!r}")
    if not check_stepsizes(tau, sigma, norm_a, l_op.norm()) > 0:  # the solver's own rule
        raise ConfigError("sigma too large: 1/tau - sigma ||L||^2 must exceed ||A||^2 / 2")
    out = _prepare_output(cfg, config_path)
    reports = pdhg_solve(a_op, l_op, subset.degraded, tau, sigma, tol=s["tol"],
                         max_iter=max_iter)
    report_rows = []
    for i, rep in enumerate(reports):
        datamod.save_pgm(os.path.join(out, f"restored_{i:04d}.pgm"),
                         rep.x_hat.reshape(subset.side, subset.side))
        report_rows.append((i, rep.iterations, rep.final_residual, rep.converged,
                            datamod.psnr(rep.x_hat, subset.clean[i])))
    with open(os.path.join(out, "solve_report.csv"), "w", encoding="ascii") as f:
        f.write("image,iterations,final_residual,converged,psnr\n")
        for i, its, res, conv, p in report_rows:
            f.write(f"{i},{its},{repr(res)},{int(conv)},"
                    f"{'identical' if math.isinf(p) else repr(p)}\n")
    n_bad = sum(1 for r in report_rows if not r[3])
    if verbose:
        print(f"solved {len(report_rows)} images "
              f"({n_bad} not converged within {max_iter} iterations)")
    return 0


# Finite-difference step of ``gradcheck``, suited to pixels on [0, 255]: at
# 1e-6 round-off dominates the reference, at 1e-3 steps cross the clip's kinks.
_GRADCHECK_EPSILON = 1e-4


def cmd_gradcheck(cfg: dict, config_path: str, verbose: bool) -> int:
    given = cfg["data"]["image_side"] if "data" in cfg else None
    side = 4 if given is None else given
    if side * side > 64:
        raise ConfigError("gradcheck needs a small instance (image_side^2 <= 64)")
    a_op, alpha = _build_degradation(cfg, side)
    params = _build_network(cfg, a_op)
    stream = Stream(derive(cfg["seed"], 8))
    clean = (stream.uniform(3 * side * side) * 255.0).reshape(3, side * side)
    degraded = datamod.degrade_set(clean, side, a_op, alpha, derive(cfg["seed"], 9)).degraded
    _, trace = netmod.forward(params, degraded, keep_trace=True)
    errors = compare_gradients(
        backward(params, clean, trace),
        finite_diff_gradients(params, clean, degraded, epsilon=_GRADCHECK_EPSILON))
    ok = all(v <= 1e-5 for v in errors.values())
    for group, err in errors.items():
        print(f"gradcheck {group:8s} max relative error {err:.3e} "
              f"{'ok' if err <= 1e-5 else 'FAIL'}")
    print(f"gradcheck: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 3


def cmd_export_filters(model_path: str, out_dir: str, verbose: bool) -> int:
    params = netmod.deserialize(model_path)
    os.makedirs(out_dir, exist_ok=True)
    written = export_filter_grids(params, out_dir)
    if verbose:
        for path in written:
            print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="pdnet",
                                description="unrolled primal-dual network driver")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, needs_config=True, needs_model=False):
        sp = sub.add_parser(name)
        if needs_config:
            sp.add_argument("--config", required=True)
            sp.add_argument("--seed", type=int, default=None)
            sp.add_argument("--output", default=None)
        if needs_model:
            sp.add_argument("--model", required=True)
        sp.add_argument("-v", "--verbose", action="store_true")
        return sp

    add("degrade")
    add("train")
    ev = add("eval", needs_model=True)
    ev.add_argument("--beta", default=None,
                    help="comma-separated extra-noise levels, e.g. 2,5,10,20")
    add("solve")
    add("gradcheck")
    ef = sub.add_parser("export-filters")
    ef.add_argument("--model", required=True)
    ef.add_argument("--output", required=True)
    ef.add_argument("-v", "--verbose", action="store_true")
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "export-filters":
            return cmd_export_filters(args.model, args.output, args.verbose)
        cfg = load_config(args.config, seed_override=args.seed,
                          output_override=args.output)
        if args.command == "degrade":
            return cmd_degrade(cfg, args.config, args.verbose)
        if args.command == "train":
            return cmd_train(cfg, args.config, args.verbose)
        if args.command == "eval":
            try:
                betas = [float(b) for b in args.beta.split(",")] if args.beta else []
            except ValueError as exc:
                raise ConfigError(f"--beta takes comma-separated numbers: {exc}") from exc
            return cmd_eval(cfg, args.config, args.model, betas, args.verbose)
        if args.command == "solve":
            return cmd_solve(cfg, args.config, args.verbose)
        if args.command == "gradcheck":
            return cmd_gradcheck(cfg, args.config, args.verbose)
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, ModelFormatError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (TrainingDivergedError, RuntimeError, ValueError) as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
