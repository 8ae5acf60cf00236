import argparse
import base64
import hashlib
import inspect
import io
import json
import math
import os
import warnings

import numpy as np
import pytest

from pdnet import cli
from pdnet import operators as ops
from pdnet.rng import Stream


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


@pytest.mark.parametrize("degradation", [
    {"kind": "uniform-blur", "size": 3, "alpha": 10.0},
    {"kind": "identity", "alpha": 10.0}], ids=["blur", "identity"])
def test_window_wider_than_the_image_exits_1_with_one_line(tmp_path, capsys, degradation):
    path, _ = write_config(tmp_path, degradation=degradation,
                           network={"K": 2, "mode": "full", "L": ["dense:4", "f9s9n2"]})
    assert cli.main(["train", "--config", path]) == 1
    err = capsys.readouterr().err
    assert err == "error: window size 9 exceeds image side 8\n"


_HELP = {"-h": False, "--help": False, "-v": False, "--verbose": False}
_CONFIG_OPTIONS = {**_HELP, "--config": True, "--seed": False, "--output": False}


def test_subcommand_options_are_pinned():
    # the parser is built from one table: each subcommand keeps exactly these
    # option strings, with these required
    parser = cli._parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = {name: {opt: action.required for action in sp._actions
                      for opt in action.option_strings}
               for name, sp in sub.choices.items()}
    assert options == {
        "degrade": _CONFIG_OPTIONS, "train": _CONFIG_OPTIONS, "solve": _CONFIG_OPTIONS,
        "gradcheck": _CONFIG_OPTIONS,
        "eval": {**_CONFIG_OPTIONS, "--model": True, "--beta": False},
        "export-filters": {**_HELP, "--model": True, "--output": True},
    }
    args = parser.parse_args(["train", "--config", "c.json", "--seed", "7"])
    assert (args.command, args.seed, args.output, args.verbose) == ("train", 7, None, False)


def test_bad_l_spec_rejected(tmp_path):
    path, _ = write_config(tmp_path, network={"K": 2, "mode": "full",
                                              "L": ["conv:9"]})
    assert cli.main(["train", "--config", path]) == 1


def test_missing_config_file():
    assert cli.main(["train", "--config", "/nonexistent/cfg.json"]) == 1


@pytest.mark.parametrize("case", ["pgm-dir-path-is-a-file", "idx-images-is-a-dir",
                                  "output_dir-is-a-file", "export-output-is-a-file"])
def test_os_errors_exit_cleanly(tmp_path, capsys, case):
    a_file = tmp_path / "a_file"
    a_file.write_bytes(b"")
    data = {"pgm-dir-path-is-a-file": {"source": "pgm-dir", "path": str(a_file),
                                       "patch_size": 4},
            "idx-images-is-a-dir": {"source": "idx", "images": str(tmp_path)}}
    path, _ = write_config(tmp_path, data=data.get(case, {}),
                           output_dir=str(a_file if case == "output_dir-is-a-file"
                                          else tmp_path / "out"))
    argv = ["degrade", "--config", path]
    if case == "export-output-is-a-file":
        from pdnet import network as net
        from pdnet import operators as ops

        model = str(tmp_path / "model.json")
        net.serialize(net.init_network(ops.UniformBlur(3, 8), 2, [net.DenseSpec(4)],
                                       "full", seed=3), model)
        argv = ["export-filters", "--model", model, "--output", str(a_file)]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


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


@pytest.mark.parametrize("network", [
    {"K": 2, "mode": "full", "L": ["dense:6"]},
    {"K": 3, "mode": "partial", "L": ["f3s2n4"]},
], ids=["dense-full", "block-partial"])
def test_robustness_beta_zero_row_is_the_plain_pass(tmp_path, network):
    # beta = 0 restores the same measurements as the plain pass, so its row
    # must equal the mean row of metrics.csv bit for bit
    path, cfg = write_config(tmp_path, network=network)
    assert cli.main(["train", "--config", path]) == 0
    out = cfg["output_dir"]
    assert cli.main(["eval", "--config", path, "--model",
                     os.path.join(out, "model_final.json"), "--beta", "2,5"]) == 0
    mean = open(os.path.join(out, "metrics.csv")).read().strip().split("\n")[-1]
    beta_0 = open(os.path.join(out, "robustness.csv")).read().strip().split("\n")[1]
    assert float(beta_0.split(",")[0]) == 0.0
    assert mean.split(",")[1:3] == beta_0.split(",")[1:3]


@pytest.mark.parametrize("beta,restorations", [("2,5", 3), (None, 1)],
                         ids=["beta-2-5", "no-beta"])
def test_eval_restores_each_noise_level_once(tmp_path, monkeypatch, beta, restorations):
    # the plain pass is the beta = 0 row: one forward pass per level
    from pdnet import data as datamod
    from pdnet import network as net
    path, cfg = write_config(tmp_path)
    assert cli.main(["train", "--config", path]) == 0
    out = cfg["output_dir"]
    calls = []
    real_forward = net.forward

    def counting_forward(*args, **kwargs):
        calls.append(1)
        return real_forward(*args, **kwargs)

    monkeypatch.setattr(net, "forward", counting_forward)
    monkeypatch.setattr(datamod, "forward", counting_forward)
    argv = ["eval", "--config", path, "--model", os.path.join(out, "model_final.json")]
    assert cli.main(argv + (["--beta", beta] if beta else [])) == 0
    assert len(calls) == restorations
    assert os.path.exists(os.path.join(out, "metrics.csv"))
    assert os.path.exists(os.path.join(out, "robustness.csv")) == bool(beta)


@pytest.mark.parametrize("beta", ["nan", "inf", "-1"])
def test_eval_refuses_a_nonfinite_or_negative_beta(tmp_path, capsys, beta):
    path, cfg = write_config(tmp_path)
    assert cli.main(["train", "--config", path]) == 0
    capsys.readouterr()
    fresh = str(tmp_path / "eval-out")
    assert cli.main(["eval", "--config", path, "--output", fresh, "--model",
                     os.path.join(cfg["output_dir"], "model_final.json"),
                     "--beta", f"2,{beta}"]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "--beta" in err
    assert not os.path.exists(fresh)


def test_eval_refuses_a_beta_that_overflows(tmp_path, capsys):
    path, cfg = write_config(tmp_path)
    assert cli.main(["train", "--config", path]) == 0
    capsys.readouterr()
    fresh = str(tmp_path / "eval-out")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["eval", "--config", path, "--output", fresh, "--model",
                         os.path.join(cfg["output_dir"], "model_final.json"),
                         "--beta", "2,1e308"]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "--beta" in err
    assert not os.path.exists(fresh)


def test_degrade_refuses_an_alpha_that_overflows(tmp_path, capsys):
    path, cfg = write_config(tmp_path, degradation={"alpha": 1e308})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["degrade", "--config", path]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "degradation.alpha" in err
    assert not os.path.exists(cfg["output_dir"])


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


def _b64(raw):
    return base64.b64encode(raw).decode("ascii")


def _weights_to(index, encode):
    """A mutation that sets part ``index`` of layer 0 to ``encode(its weights)``."""
    def mutate(doc):
        part = doc["layers"][0]["parts"][index]
        part["weights"] = encode(np.frombuffer(base64.b64decode(part["weights"]), "<f8"))
    return mutate


@pytest.mark.parametrize("mutate", [
    _set(["K"], None),
    _set(["layers", 0, "parts", 0, "rows"], None),
    _set(["layers", 0, "tau"], [1]),
    _set(["layers", 0, "parts", 1, "sites"], 5),
    _set(["degradation"], None),
    _weights_to(0, lambda w: "*" + _b64(w.tobytes())[1:]),
    _weights_to(0, lambda w: w.tolist()),  # the v1 form
    _weights_to(1, lambda w: _b64(np.where(np.arange(w.size) == 0, np.nan, w).tobytes())),
    _set(["layers", 0, "parts", 1, "stride"], 0),
    _set(["degradation", "size_or_factor"], "3"),
    _set(["g"], "l2"),
    _set(["layers", 0, "parts", 1, "stride"], 2),  # sites at multiples of 3
    _set(["layers", 0, "tau"], -1.0),
    _set(["layers", 1, "sigma"], float("inf")),
    _weights_to(0, lambda w: [True] + w.tolist()[1:]),
    _weights_to(0, lambda w: _b64(w.tobytes())[:76] + "\n" + _b64(w.tobytes())[76:]),
    _weights_to(1, lambda w: _b64(w.tobytes()[:-1])),
], ids=["K-null", "rows-null", "tau-list", "sites-number", "degradation-null",
        "weights-non-alphabet", "weights-list", "weights-nan", "stride-0",
        "size_or_factor-string", "g-l2", "stride-off-sites", "tau-negative",
        "sigma-infinity", "weights-true", "weights-newline", "weights-short-byte"])
def test_malformed_model_exits_cleanly(tmp_path, capsys, mutate):
    from pdnet import network as net
    from pdnet import operators as ops

    params = net.init_network(ops.UniformBlur(3, 6), 2,
                              [net.DenseSpec(4), net.BlockSpec(3, 3, 2, "fit")], "full", seed=3)
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
        a_op, 2, [net.DenseSpec(100), net.BlockSpec(9, 9, 10, "fit")], "full", seed=3)
    written = cli.export_filter_grids(params, str(tmp_path))
    assert len(written) == 2
    dense_grid = load_pgm(written[0])
    # 100 tiles of 28x28 in a 10x10 grid with 1px separators
    assert dense_grid.shape == (10 * 29 + 1, 10 * 29 + 1)
    block_grid = load_pgm(written[1])
    # 90 tiles of 9x9 in a 10-column grid (9 rows)
    assert block_grid.shape == (9 * 10 + 1, 10 * 10 + 1)


def test_filter_grid_tile_content(tmp_path):
    from pdnet import network as net
    from pdnet import operators as ops
    from pdnet.data import load_pgm

    params = net.init_network(ops.Decimation(2, 12), 1, [net.BlockSpec(3, 2, 3, "fit")],
                              "full", seed=4)
    (weights,) = params.layers[-1].analysis.weight_arrays()
    weights[4] = 0.25  # a constant tile
    (path,) = cli.export_filter_grids(params, str(tmp_path))
    grid = load_pgm(path)
    count, q = len(weights), 3
    columns = math.ceil(math.sqrt(count))
    assert grid.shape == (math.ceil(count / columns) * (q + 1) + 1, columns * (q + 1) + 1)
    covered = np.zeros(grid.shape, dtype=bool)
    for t in range(count):
        r, c = t // columns, t % columns
        window = (slice(r * (q + 1) + 1, (r + 1) * (q + 1)),
                  slice(c * (q + 1) + 1, (c + 1) * (q + 1)))
        tile = grid[window]
        covered[window] = True
        if t == 4:
            assert not tile.any()
        else:
            assert tile.min() == 0 and tile.max() == 255
            w = weights[t].reshape(q, q)
            assert np.array_equal(tile, np.rint((w - w.min()) / (w.max() - w.min()) * 255))
    assert not grid[~covered].any()  # separators and unused cells stay 0


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


def _degraded_dir(tmp_path):
    """A ``degrade`` output dir, its manifest, and its arrays as np.load reads them."""
    path, cfg = write_config(tmp_path, output_dir=str(tmp_path / "stage1"))
    assert cli.main(["degrade", "--config", path]) == 0
    root = cfg["output_dir"]
    manifest = json.load(open(os.path.join(root, "manifest.json")))
    arrays = [np.load(os.path.join(root, n)) for n in ("clean.npy", "degraded.npy")]
    return root, manifest, arrays


def _rewrite(root, manifest, name, blob):
    with open(os.path.join(root, name), "wb") as f:
        f.write(blob)
    manifest["files"][name] = sha(os.path.join(root, name))
    json.dump(manifest, open(os.path.join(root, "manifest.json"), "w"))


def _npy_bytes(array, **kwargs):
    buf = io.BytesIO()
    np.save(buf, array, **kwargs)
    return buf.getvalue()


def test_degraded_dir_views_fortran_and_big_endian_arrays(tmp_path):
    root, manifest, (clean, degraded) = _degraded_dir(tmp_path)
    _rewrite(root, manifest, "clean.npy", _npy_bytes(np.asfortranarray(clean)))
    _rewrite(root, manifest, "degraded.npy", _npy_bytes(degraded.astype(">f8")))
    ds = cli._load_degraded_dir(root)
    assert np.array_equal(ds.clean, clean) and np.array_equal(ds.degraded, degraded)
    assert ds.clean.flags.writeable and ds.degraded.flags.writeable


@pytest.mark.parametrize("blob", [
    lambda a: _npy_bytes(a)[:-8],
    lambda a: _npy_bytes(a.astype(object), allow_pickle=True),
    lambda a: _npy_bytes(a)[:20],
    lambda a: b"not an npy file",
], ids=["truncated", "object-dtype", "header-cut", "no-magic"])
def test_degraded_dir_refuses_unreadable_arrays(tmp_path, capsys, blob):
    root, manifest, (_, degraded) = _degraded_dir(tmp_path)
    _rewrite(root, manifest, "degraded.npy", blob(degraded))
    path2, _ = write_config(
        tmp_path, name="c2.json", output_dir=str(tmp_path / "stage2"),
        data={"source": "degraded-dir", "path": root}, degradation=None)
    capsys.readouterr()
    assert cli.main(["solve", "--config", path2]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith(f"error: dataset dir {root}: ")


@pytest.mark.parametrize("name,bad", [("clean.npy", float("nan")),
                                      ("degraded.npy", float("inf"))])
def test_degraded_dir_refuses_nonfinite_values(tmp_path, capsys, name, bad):
    side = 8
    a_op = ops.UniformBlur(3, side)
    clean = Stream(5).uniform(12 * side * side).reshape(12, -1) * 255.0
    arrays = {"clean.npy": clean, "degraded.npy": a_op.apply(clean)}
    arrays[name][3, 7] = bad
    root = tmp_path / "hand-written"
    root.mkdir()
    for fname, array in arrays.items():
        np.save(root / fname, array)
    (root / "manifest.json").write_text(json.dumps({
        "side": side, "seed": 5, "alpha": 0.0, "degradation": a_op.spec(),
        "files": {fname: sha(root / fname) for fname in arrays}}))
    path, cfg = write_config(tmp_path, data={"source": "degraded-dir", "path": str(root)},
                             degradation=None)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["train", "--config", path]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert name in err and "NaN or inf" in err
    assert not os.path.exists(cfg["output_dir"])


def test_eval_refuses_a_degraded_dir_with_no_rows(tmp_path, capsys):
    path, cfg = write_config(tmp_path, output_dir=str(tmp_path / "stage1"))
    assert cli.main(["degrade", "--config", path]) == 0
    assert cli.main(["train", "--config", path]) == 0
    root = cfg["output_dir"]
    manifest = json.load(open(os.path.join(root, "manifest.json")))
    for name in ("clean.npy", "degraded.npy"):
        np.save(os.path.join(root, name), np.load(os.path.join(root, name))[:0])
        manifest["files"][name] = sha(os.path.join(root, name))
    json.dump(manifest, open(os.path.join(root, "manifest.json"), "w"))
    path2, _ = write_config(
        tmp_path, name="c2.json", output_dir=str(tmp_path / "stage2"),
        data={"source": "degraded-dir", "path": root}, degradation=None)
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["eval", "--config", path2, "--model",
                         os.path.join(root, "model_final.json")]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "no images" in err
    assert not os.path.exists(tmp_path / "stage2" / "metrics.csv")


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
    ("train", {"network": {"init_stddev": 1e200}}, 1, "network.init_stddev"),
    ("train", {"network": {"init_stddev": 1e150}}, 1, "network.init_stddev 1e+150 is too large"),
    # ranges are checked at load, in every section present
    ("degrade", {"train": {"gamma": 0}}, 1, "train.gamma must be positive and finite"),
    # ||L||^2 of first differences underflows to 0, or overflows
    ("solve", {"solve": {"lambda": 1e-300}}, 1, "solve.lambda 1e-300 is too small"),
    ("solve", {"solve": {"lambda": 1e300}}, 1, "solve.lambda 1e+300 is too large"),
    # integers past int64, refused at load without their 401 digits
    ("degrade", {"data": {"count": 10**400}}, 1, "data.count: must be at most 2**63 - 1"),
    ("train", {"train": {"max_iter": 10**400}}, 1, "train.max_iter: must be at most"),
    ("degrade", {"seed": 10**400}, 1, "seed: must be at most 2**63 - 1"),
], ids=["beta-not-a-number", "tau-0", "sigma-0", "train_frac-2", "K-null",
        "gamma-null", "size-null", "count-null", "image_side-null", "lambda-null",
        "count-0", "patches_per_image-0", "limit-negative", "max_iter-0",
        "tol-0", "tol-negative", "tol-nan", "lambda-nan", "sigma-inf", "sigma-negative",
        "tau-inf", "patch_size-0", "batch_size-0", "train-max_iter-0", "val_cadence-0",
        "lr_decay_every-0", "lr_decay_every-negative", "gamma-0", "gamma-nan",
        "sigma-too-large", "alpha-nan", "gamma-inf", "lr_decay_factor-negative",
        "init_stddev-inf", "lambda-inf", "train_frac-nan", "init_stddev-huge",
        "init_stddev-1e150", "degrade-gamma-0", "lambda-1e-300", "lambda-1e300",
        "count-1e400", "max_iter-1e400", "seed-1e400"])
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


def test_out_of_memory_is_one_runtime_failure_line(tmp_path, capsys, monkeypatch):
    # data.count 10**12 asks synthetic_digits for 466 TiB; the patched
    # allocation fails as numpy would, without allocating or relying on overcommit
    from pdnet import data as datamod

    def no_memory(count, **_):
        assert count == 10**12
        raise MemoryError()

    monkeypatch.setattr(datamod, "synthetic_digits", no_memory)
    path, _ = write_config(tmp_path, data={"count": 10**12})
    assert cli.main(["degrade", "--config", path]) == 2
    assert capsys.readouterr().err == "runtime failure: out of memory\n"


_COMMAND_OF = {"degradation": "degrade", "network": "train", "train": "train", "solve": "solve"}
_RANGED_FLOATS = [("degradation", "alpha"), ("network", "init_stddev"), ("train", "gamma"),
                  ("train", "lr_decay_factor"), ("solve", "lambda"), ("solve", "tau"),
                  ("solve", "sigma"), ("solve", "tol")]


@pytest.mark.parametrize("section,key,value", [
    (section, key, value) for section, key in _RANGED_FLOATS
    # 10**400: a JSON integer past float64
    for value in [float("nan"), float("inf"), -float("inf"), -1, 0, 10**400]
    + ([1e-300, 1e300] if key in ("lambda", "init_stddev") else [])],
    ids=lambda v: "int-1e400" if v == 10**400 else None)
def test_float_leaves_exit_0_or_with_one_error_line(tmp_path, capsys, section, key, value):
    path, _ = write_config(tmp_path, **{section: {key: value}})
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning escapes as an exception
        code = cli.main([_COMMAND_OF[section], "--config", path])
    err = capsys.readouterr().err
    assert code == 0 and err == "" or (
        code == 1 and len(err.splitlines()) == 1 and err.startswith("error: ")
        and f"{section}.{key}" in err)


def test_every_float_leaf_but_the_split_fractions_has_a_range():
    floats = {(section, key): bound for section, leaves in cli._SCHEMA.items()
              if isinstance(leaves, dict)
              for key, (kind, _, *bound) in leaves.items() if kind is float}
    assert {leaf for leaf, bound in floats.items() if bound} == set(_RANGED_FLOATS)
    assert set(floats) - set(_RANGED_FLOATS) == {("data", "train_frac"), ("data", "val_frac")}


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
