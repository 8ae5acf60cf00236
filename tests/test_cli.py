import hashlib
import inspect
import json
import os

import numpy as np
import pytest

from pdnet import cli


def write_config(tmp_path, name="config.json", **overrides):
    cfg = {
        "task": "deblur",
        "seed": 424242,
        "output_dir": str(tmp_path / "out"),
        "degradation": {"kind": "uniform-blur", "size": 3, "alpha": 10.0},
        "data": {"source": "synthetic", "count": 30, "image_side": 8,
                 "train_frac": 0.6, "val_frac": 0.2},
        "network": {"K": 2, "mode": "full", "L": ["dense:6"]},
        "train": {"gamma": 1e-9, "batch_size": 6, "max_iter": 8,
                  "val_cadence": 4},
        "solve": {"prior": "first-diff", "lambda": 1.5, "tol": 1e-6,
                  "max_iter": 20000},
    }
    for key, value in overrides.items():
        if value is None:
            cfg.pop(key, None)
        elif isinstance(value, dict) and isinstance(cfg.get(key), dict):
            cfg[key].update(value)
        else:
            cfg[key] = value
    path = tmp_path / name
    path.write_text(json.dumps(cfg, indent=1))
    return str(path), cfg


def sha(path):
    return hashlib.sha256(open(path, "rb").read()).hexdigest()


def test_unknown_config_key_rejected(tmp_path):
    path, _ = write_config(tmp_path)
    doc = json.load(open(path))
    doc["surprise"] = 1
    json.dump(doc, open(path, "w"))
    assert cli.main(["degrade", "--config", path]) == 1


def test_unknown_nested_key_rejected(tmp_path):
    path, _ = write_config(tmp_path, train={"momentum": 0.9})
    assert cli.main(["train", "--config", path]) == 1


def test_oversized_window_rejected(tmp_path):
    path, _ = write_config(tmp_path, network={"K": 2, "mode": "full",
                                              "L": ["f9s9n2"]})
    assert cli.main(["train", "--config", path]) == 1


def test_bad_l_spec_rejected(tmp_path):
    path, _ = write_config(tmp_path, network={"K": 2, "mode": "full",
                                              "L": ["conv:9"]})
    assert cli.main(["train", "--config", path]) == 1


def test_missing_config_file():
    assert cli.main(["train", "--config", "/nonexistent/cfg.json"]) == 1


def test_degrade_idempotent(tmp_path):
    path, cfg = write_config(tmp_path)
    assert cli.main(["degrade", "--config", path]) == 0
    out = cfg["output_dir"]
    first = {f: sha(os.path.join(out, f))
             for f in ("clean.npy", "degraded.npy", "manifest.json")}
    manifest = json.load(open(os.path.join(out, "manifest.json")))
    assert manifest["norm_a"] == pytest.approx(1.0, abs=1e-9)
    assert manifest["files"]["clean.npy"] == first["clean.npy"]
    assert cli.main(["degrade", "--config", path]) == 0
    second = {f: sha(os.path.join(out, f))
              for f in ("clean.npy", "degraded.npy", "manifest.json")}
    assert first == second


def test_degrade_alpha_zero_identity_preserves_clean(tmp_path):
    path, cfg = write_config(
        tmp_path, degradation={"kind": "identity", "alpha": 0.0})
    assert cli.main(["degrade", "--config", path]) == 0
    out = cfg["output_dir"]
    clean = np.load(os.path.join(out, "clean.npy"))
    degraded = np.load(os.path.join(out, "degraded.npy"))
    assert np.array_equal(clean, degraded)


def test_train_eval_solve_pipeline(tmp_path):
    path, cfg = write_config(tmp_path)
    assert cli.main(["train", "--config", path, "-v"]) == 0
    out = cfg["output_dir"]
    for artifact in ("model_final.json", "model_best.json", "history.csv",
                     "filters_part0.pgm", "config.json"):
        assert os.path.exists(os.path.join(out, artifact)), artifact
    header = open(os.path.join(out, "history.csv")).readline().strip()
    assert header == "iter,loss,val_psnr,val_ssim,dc_layer_1,dc_layer_2"

    model = os.path.join(out, "model_final.json")
    assert cli.main(["eval", "--config", path, "--model", model,
                     "--beta", "2,5"]) == 0
    metrics = open(os.path.join(out, "metrics.csv")).read().strip().split("\n")
    assert metrics[0] == "image,psnr,ssim"
    assert metrics[-1].startswith("mean,")
    per_image = [tuple(map(float, row.split(",")[1:])) for row in metrics[1:-1]]
    mean_row = tuple(map(float, metrics[-1].split(",")[1:]))
    assert mean_row[0] == pytest.approx(np.mean([p for p, _ in per_image]), rel=1e-12)
    assert mean_row[1] == pytest.approx(np.mean([s for _, s in per_image]), rel=1e-12)
    robust = open(os.path.join(out, "robustness.csv")).read().strip().split("\n")
    assert robust[0] == "beta,psnr,ssim,psnr_drop_pct,ssim_drop_pct"
    assert len(robust) == 4  # beta = 0, 2, 5
    assert float(robust[1].split(",")[3]) == 0.0  # beta=0 drop

    assert cli.main(["solve", "--config", path]) == 0
    report = open(os.path.join(out, "solve_report.csv")).read().strip().split("\n")
    assert report[0] == "image,iterations,final_residual,converged,psnr"
    assert len(report) > 1
    assert all(row.split(",")[3] == "1" for row in report[1:])  # all converged


def test_train_determinism(tmp_path):
    path1, cfg1 = write_config(tmp_path, name="c1.json",
                               output_dir=str(tmp_path / "o1"))
    path2, cfg2 = write_config(tmp_path, name="c2.json",
                               output_dir=str(tmp_path / "o2"))
    assert cli.main(["train", "--config", path1]) == 0
    assert cli.main(["train", "--config", path2]) == 0
    for f in ("model_final.json", "history.csv"):
        assert sha(os.path.join(cfg1["output_dir"], f)) == \
            sha(os.path.join(cfg2["output_dir"], f))


def test_eval_rejects_mismatched_degradation(tmp_path):
    path, cfg = write_config(tmp_path)
    assert cli.main(["train", "--config", path]) == 0
    model = os.path.join(cfg["output_dir"], "model_final.json")
    path5, _ = write_config(tmp_path, name="c5.json",
                            degradation={"kind": "uniform-blur", "size": 5,
                                         "alpha": 10.0})
    assert cli.main(["eval", "--config", path5, "--model", model]) == 1


def test_gradcheck_passes_and_fails_when_flipped(tmp_path, monkeypatch):
    path, _ = write_config(
        tmp_path,
        data={"source": "synthetic", "image_side": 4},
        network={"K": 2, "mode": "full", "L": ["dense:4"],
                 "init_stddev": 0.5},
    )
    assert cli.main(["gradcheck", "--config", path]) == 0
    # negate the output-layer error: backward's target becomes 2*out - clean
    real_backward = cli.backward
    monkeypatch.setattr(cli, "backward", lambda params, clean, trace: real_backward(
        params, 2.0 * trace.xs[-1] - clean, trace))
    assert cli.main(["gradcheck", "--config", path]) == 3


def test_gradcheck_passes_at_config_seed_0(tmp_path):
    # a seed where a finite-difference step of 1e-6 fails correct gradients
    path, _ = write_config(
        tmp_path, seed=0,
        data={"source": "synthetic", "image_side": 4},
        network={"K": 2, "mode": "full", "L": ["dense:4"],
                 "init_stddev": 0.5},
    )
    assert cli.main(["gradcheck", "--config", path]) == 0


def test_gradcheck_rejects_large_instance(tmp_path):
    path, _ = write_config(tmp_path, data={"source": "synthetic",
                                           "image_side": 16})
    assert cli.main(["gradcheck", "--config", path]) == 1


@pytest.mark.parametrize("gamma,best_iter", [(1e-9, 8), (1e-4, 0)],
                         ids=["best-is-final", "best-is-first"])
def test_train_writes_the_best_checkpoint(tmp_path, monkeypatch, gamma, best_iter):
    from pdnet import network as net

    results, real_train = [], cli.train

    def keep_result(*args, **kwargs):
        results.append(real_train(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(cli, "train", keep_result)
    path, cfg = write_config(tmp_path, train={"gamma": gamma})
    assert cli.main(["train", "--config", path]) == 0
    assert results[0].best_iter == best_iter
    expected = str(tmp_path / "expected.json")
    for params, name in ((results[0].final_params, "model_final.json"),
                         (results[0].best_params, "model_best.json")):
        net.serialize(params, expected)
        assert sha(expected) == sha(os.path.join(cfg["output_dir"], name))


def test_export_filters_from_model(tmp_path):
    path, cfg = write_config(
        tmp_path, network={"K": 2, "mode": "full", "L": ["dense:6", "f3s3n2"]})
    assert cli.main(["train", "--config", path]) == 0
    model = os.path.join(cfg["output_dir"], "model_final.json")
    dest = str(tmp_path / "filters")
    assert cli.main(["export-filters", "--model", model, "--output", dest]) == 0
    assert os.path.exists(os.path.join(dest, "filters_part0.pgm"))
    assert os.path.exists(os.path.join(dest, "filters_part1.pgm"))


def _set(path, value):
    """A mutation that sets the entry at ``path`` in the model document."""
    def mutate(doc):
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return mutate


def _weights_to_nan(doc):
    doc["layers"][0]["parts"][1]["weights"][0] = float("nan")


def _weights_to_text(numeric):
    def mutate(doc):
        weights = doc["layers"][0]["parts"][0]["weights"]
        if numeric:
            weights[:] = [repr(v) for v in weights]
        else:
            weights[0] = "not a number"
    return mutate


@pytest.mark.parametrize("mutate", [
    _set(["K"], None),
    _set(["layers", 0, "parts", 0, "rows"], None),
    _set(["layers", 0, "tau"], [1]),
    _set(["layers", 0, "parts", 1, "sites"], 5),
    _set(["degradation"], None),
    _weights_to_text(numeric=False),
    _weights_to_text(numeric=True),
    _weights_to_nan,
    _set(["layers", 0, "parts", 1, "stride"], 0),
    _set(["degradation", "size_or_factor"], "3"),
    _set(["g"], "l2"),
    _set(["layers", 0, "parts", 1, "stride"], 2),  # sites at multiples of 3
    _set(["layers", 0, "tau"], -1.0),
    _set(["layers", 1, "sigma"], float("inf")),
], ids=["K-null", "rows-null", "tau-list", "sites-number", "degradation-null",
        "weights-strings", "weights-numeric-strings", "weights-nan", "stride-0",
        "size_or_factor-string", "g-l2", "stride-off-sites", "tau-negative",
        "sigma-infinity"])
def test_malformed_model_exits_cleanly(tmp_path, capsys, mutate):
    from pdnet import network as net
    from pdnet import operators as ops

    params = net.init_network(ops.UniformBlur(3, 6), 2,
                              [net.DenseSpec(4), net.BlockSpec(3, 3, 2)], "full", seed=3)
    model = str(tmp_path / "model.json")
    net.serialize(params, model)
    doc = json.load(open(model))
    mutate(doc)
    json.dump(doc, open(model, "w"))
    with pytest.raises(net.ModelFormatError):
        net.deserialize(model)
    capsys.readouterr()
    assert cli.main(["export-filters", "--model", model,
                     "--output", str(tmp_path / "filters")]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_filter_grid_tile_shapes(tmp_path):
    from pdnet import network as net
    from pdnet import operators as ops
    from pdnet.data import load_pgm

    a_op = ops.UniformBlur(3, 28)
    params = net.init_network(
        a_op, 2, [net.DenseSpec(100), net.BlockSpec(9, 9, 10)], "full", seed=3)
    written = cli.export_filter_grids(params, str(tmp_path))
    assert len(written) == 2
    dense_grid = load_pgm(written[0])
    # 100 tiles of 28x28 in a 10x10 grid with 1px separators
    assert dense_grid.shape == (10 * 29 + 1, 10 * 29 + 1)
    block_grid = load_pgm(written[1])
    # 90 tiles of 9x9 in a 10-column grid (9 rows)
    assert block_grid.shape == (9 * 10 + 1, 10 * 10 + 1)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_divergence_exits_2(tmp_path):
    path, _ = write_config(tmp_path, train={"gamma": 1e3, "batch_size": 6,
                                            "max_iter": 300, "val_cadence": 100})
    assert cli.main(["train", "--config", path]) == 2


def test_seed_override_changes_outputs(tmp_path):
    path, cfg = write_config(tmp_path)
    assert cli.main(["degrade", "--config", path]) == 0
    base = sha(os.path.join(cfg["output_dir"], "degraded.npy"))
    assert cli.main(["degrade", "--config", path, "--seed", "7"]) == 0
    assert sha(os.path.join(cfg["output_dir"], "degraded.npy")) != base


def test_degraded_dir_source_feeds_training(tmp_path):
    path, cfg = write_config(tmp_path, output_dir=str(tmp_path / "stage1"))
    assert cli.main(["degrade", "--config", path]) == 0
    path2, _ = write_config(
        tmp_path, name="c2.json", output_dir=str(tmp_path / "stage2"),
        data={"source": "degraded-dir", "path": str(tmp_path / "stage1"),
              "train_frac": 0.6, "val_frac": 0.2},
        degradation=None,
    )
    assert cli.main(["train", "--config", path2]) == 0
    assert os.path.exists(os.path.join(str(tmp_path / "stage2"), "model_final.json"))


def _edit_manifest(**changes):
    """A mutation of the manifest: keys set, or dropped where the value is None."""
    def mutate(root, manifest):
        for key, value in changes.items():
            if value is None:
                del manifest[key]
            else:
                manifest[key] = value
    return mutate


def _tamper_degraded(root, manifest):
    degraded = np.load(os.path.join(root, "degraded.npy"))
    np.save(os.path.join(root, "degraded.npy"), degraded + 1.0)


def _short_rows(root, manifest):
    """Rows one pixel short of the degradation's output, with a matching hash."""
    path = os.path.join(root, "degraded.npy")
    np.save(path, np.load(path)[:, :-1])
    manifest["files"]["degraded.npy"] = sha(path)


@pytest.mark.parametrize("mutate,named", [
    (_tamper_degraded, "degraded.npy"),
    (_edit_manifest(alpha=None), "'alpha'"),
    (_edit_manifest(side=None), "'side'"),
    (_short_rows, "do not fit"),
    (_edit_manifest(degradation={"kind": "motion-blur"}), "motion-blur"),
    (_edit_manifest(degradation={"kind": "uniform-blur", "size_or_factor": "3",
                                 "image_side": 8}), "size_or_factor"),
    (_edit_manifest(degradation={"kind": "uniform-blur", "size_or_factor": 3.7,
                                 "image_side": 8}), "size_or_factor"),
], ids=["degraded-hash-mismatch", "alpha-missing", "side-missing", "rows-too-short",
        "degradation-unknown", "size_or_factor-string", "size_or_factor-float"])
def test_degraded_dir_rejects_bad_datasets(tmp_path, capsys, mutate, named):
    path, cfg = write_config(tmp_path, output_dir=str(tmp_path / "stage1"))
    assert cli.main(["degrade", "--config", path]) == 0
    root = cfg["output_dir"]
    manifest = json.load(open(os.path.join(root, "manifest.json")))
    mutate(root, manifest)
    json.dump(manifest, open(os.path.join(root, "manifest.json"), "w"))
    path2, _ = write_config(
        tmp_path, name="c2.json", output_dir=str(tmp_path / "stage2"),
        data={"source": "degraded-dir", "path": root}, degradation=None)
    capsys.readouterr()
    assert cli.main(["solve", "--config", path2]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert named in err


@pytest.mark.parametrize("command,edit,code,named", [
    # bad values: exit 1 with one line on stderr
    ("eval", {}, 1, ""),  # --beta 2,x
    ("solve", {"solve": {"tau": 0}}, 1, ""),
    ("solve", {"solve": {"sigma": 0}}, 1, ""),
    ("train", {"data": {"train_frac": 2}}, 1, ""),
    # null reads as "not given": the default, or an error naming the key
    ("train", {"network": {"K": None}}, 1, "K"),
    ("train", {"train": {"gamma": None}}, 0, ""),
    ("degrade", {"degradation": {"size": None}}, 1, "size"),
    ("degrade", {"data": {"count": None}}, 0, ""),
    ("degrade", {"data": {"image_side": None}}, 0, ""),
    ("solve", {"solve": {"lambda": None}}, 0, ""),
    # out of range: exit 1 naming the key
    ("degrade", {"data": {"count": 0}}, 1, "data.count: must be >= 1"),
    ("degrade", {"data": {"patches_per_image": 0}}, 1, "data.patches_per_image: must be >= 1"),
    ("degrade", {"data": {"limit": -1}}, 1, "data.limit: must be >= 0"),
    ("solve", {"solve": {"max_iter": 0}}, 1, "solve.max_iter: must be >= 1"),
    # no row could pass a relative-change test below 0: every image ran to max_iter
    ("solve", {"solve": {"tol": 0}}, 1, "tol must be positive"),
    ("solve", {"solve": {"tol": -1}}, 1, "tol must be positive"),
    ("solve", {"solve": {"tol": float("nan")}}, 1, "tol must be positive"),
    ("solve", {"solve": {"lambda": float("nan")}}, 1, "lambda must be positive"),
    ("solve", {"solve": {"sigma": float("inf")}}, 1, "sigma must be positive and finite"),
    ("solve", {"solve": {"sigma": -1}}, 1, "sigma must be positive and finite"),
    ("solve", {"solve": {"tau": float("inf")}}, 1, "tau too large"),
    ("degrade", {"data": {"patch_size": 0}}, 1, "data.patch_size: must be >= 1"),
    ("train", {"train": {"batch_size": 0}}, 1, "train.batch_size: must be >= 1"),
    ("train", {"train": {"max_iter": 0}}, 1, "train.max_iter: must be >= 1"),
    ("train", {"train": {"val_cadence": 0}}, 1, "train.val_cadence: must be >= 1"),
    ("train", {"train": {"lr_decay_every": 0}}, 1, "train.lr_decay_every: must be >= 1"),
    ("train", {"train": {"lr_decay_every": -1}}, 1, "train.lr_decay_every: must be >= 1"),
    ("train", {"train": {"gamma": 0}}, 1, "gamma must be positive"),
    ("train", {"train": {"gamma": float("nan")}}, 1, "gamma must be positive"),
    # non-finite or out-of-range numbers: exit 1 naming the key, not exit 2
    ("solve", {"solve": {"sigma": 100}}, 1, "sigma too large"),
    ("degrade", {"degradation": {"alpha": float("nan")}}, 1,
     "alpha must be nonnegative and finite"),
    ("train", {"train": {"gamma": float("inf")}}, 1, "gamma must be positive and finite"),
    ("train", {"train": {"lr_decay_factor": -1}}, 1, "train.lr_decay_factor must be in"),
    ("train", {"network": {"init_stddev": float("inf")}}, 1,
     "network.init_stddev must be positive and finite"),
    ("solve", {"solve": {"lambda": float("inf")}}, 1, "lambda must be positive and finite"),
    ("train", {"data": {"train_frac": float("nan")}}, 1, "train_frac and val_frac"),
], ids=["beta-not-a-number", "tau-0", "sigma-0", "train_frac-2", "K-null",
        "gamma-null", "size-null", "count-null", "image_side-null", "lambda-null",
        "count-0", "patches_per_image-0", "limit-negative", "max_iter-0",
        "tol-0", "tol-negative", "tol-nan", "lambda-nan", "sigma-inf", "sigma-negative",
        "tau-inf", "patch_size-0", "batch_size-0", "train-max_iter-0", "val_cadence-0",
        "lr_decay_every-0", "lr_decay_every-negative", "gamma-0", "gamma-nan",
        "sigma-too-large", "alpha-nan", "gamma-inf", "lr_decay_factor-negative",
        "init_stddev-inf", "lambda-inf", "train_frac-nan"])
def test_config_values_exit_cleanly(tmp_path, capsys, command, edit, code, named):
    path, cfg = write_config(tmp_path, **edit)
    argv = [command, "--config", path]
    if command == "eval":
        assert cli.main(["train", "--config", path]) == 0
        argv += ["--model", os.path.join(cfg["output_dir"], "model_final.json"),
                 "--beta", "2,x"]
    capsys.readouterr()
    assert cli.main(argv) == code
    err = capsys.readouterr().err
    if code:
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert named in err
    else:
        assert err == ""


def test_train_section_matches_train_keywords():
    # cmd_train passes the section plus the seed as keywords; drift between
    # the two would end ``pdnet train`` in a TypeError traceback
    from pdnet import training

    params = inspect.signature(training.train).parameters.values()
    keyword_only = {p.name for p in params if p.kind is inspect.Parameter.KEYWORD_ONLY}
    assert keyword_only == set(cli._SCHEMA["train"]) | {"seed"}


def test_solve_matches_per_image_solves(tmp_path):
    from pdnet import data as datamod
    from pdnet import operators as ops
    from pdnet.pdhg import pdhg_solve

    path, cfg = write_config(tmp_path)
    assert cli.main(["solve", "--config", path]) == 0
    out = cfg["output_dir"]
    loaded = cli.load_config(path)
    subset = cli._eval_subset(loaded, cli._load_dataset(loaded))
    a_op = subset.degradation
    l_op = ops.make_first_difference(subset.side, scale=1.5)
    sigma = 0.9 * (1.0 - a_op.cached_norm**2 / 2.0) / l_op.norm() ** 2
    lines = ["image,iterations,final_residual,converged,psnr"]
    expected = str(tmp_path / "expected.pgm")
    for i in range(len(subset)):
        rep = pdhg_solve(a_op, l_op, subset.degraded[i], 1.0, sigma, tol=1e-6,
                         max_iter=20000)
        lines.append(f"{i},{rep.iterations},{rep.final_residual!r},{int(rep.converged)},"
                     f"{datamod.psnr(rep.x_hat, subset.clean[i])!r}")
        datamod.save_pgm(expected, rep.x_hat.reshape(subset.side, subset.side))
        assert sha(expected) == sha(os.path.join(out, f"restored_{i:04d}.pgm"))
    assert len({line.split(",")[1] for line in lines[1:]}) > 1
    assert open(os.path.join(out, "solve_report.csv")).read() == "\n".join(lines) + "\n"
