"""The three workloads: generated configs, one measured pass, output checks.

The run's ``--seed`` is the config seed of ``degrade``, from which ``pdnet``
derives the synthetic digits and the noise.  The other commands run with
config seed ``RUN_SEED``.  The program only ever sees the generated configs
and the dataset ``pdnet degrade`` writes from them.

A *pass* is one execution of a workload's commands after set-up:
``train`` then ``eval`` for the two training workloads, ``solve`` for the
solver workload.  Passes repeat the same commands on the same inputs, so
their outputs and operation counts must repeat exactly; any difference is a
failed check, never averaged away.

numpy is imported inside the one method that needs it, so that importing
this module loads nothing the timed ``pdnet`` import would then skip.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import re
import statistics
import time
import traceback
from dataclasses import dataclass, field

SIDE = 28
N = SIDE * SIDE
ALPHA = 20.0
BETAS = "2,5,10,20"
EVAL_REPEATS = 3  # eval is short: more repeats per pass for its fastest pieces
BLUR = {"kind": "uniform-blur", "size": 3, "alpha": ALPHA}
DECIMATE = {"kind": "decimation", "factor": 2, "alpha": ALPHA}
# Config seed of train, eval and solve (network init, split, batch order;
# solve uses none of them): the desk-scale seed of the acceptance tests.  In
# partial mode the warm-started power iteration's cost per step depends on
# each layer's spectral gap, so it follows the init: over 12 seeded inits the
# analysis MACs per iteration of sr-blocksparse-partial ranged from 7.3e7 to
# 1.8e8 (46% spread).  With the init fixed, the data from --seed moved it by
# 10%.
RUN_SEED = 1001


@dataclass(frozen=True)
class Workload:
    name: str
    task: str
    degradation: dict
    count: int
    train_frac: float
    val_frac: float
    network: dict | None = None  # None for the solver workload
    train: dict = field(default_factory=dict)
    solve: dict = field(default_factory=dict)
    warm_up: dict = field(default_factory=dict)  # overrides for the warm-up pass

    @property
    def trains(self) -> bool:
        return self.network is not None


WORKLOADS = {wl.name: wl for wl in [
    Workload(
        name="deblur-dense-full", task="deblur", degradation=BLUR,
        count=600, train_frac=0.6, val_frac=0.1,
        network={"K": 6, "mode": "full", "L": ["dense:100"]},
        train={"gamma": 4e-7, "batch_size": 50, "max_iter": 100, "val_cadence": 25},
        warm_up={"max_iter": 4, "val_cadence": 4},
    ),
    Workload(
        name="sr-blocksparse-partial", task="sr", degradation=DECIMATE,
        count=600, train_frac=0.6, val_frac=0.1,
        network={"K": 6, "mode": "partial", "L": ["f5s2n10"]},
        train={"gamma": 4e-7, "batch_size": 50, "max_iter": 12, "val_cadence": 6},
        warm_up={"max_iter": 2, "val_cadence": 2},
    ),
    Workload(
        # fractions of 0 make every image held out: solve runs on the whole set
        name="solve-firstdiff-blur", task="deblur", degradation=BLUR,
        count=24, train_frac=0.0, val_frac=0.0,
        solve={"prior": "first-diff", "lambda": 1.5, "tol": 1e-6, "max_iter": 20000},
        warm_up={"max_iter": 20},
    ),
]}


def working_set(wl: Workload) -> dict:
    """Bytes of the main arrays, computed from their shapes (not measured)."""
    m = N // 4 if wl.degradation["kind"] == "decimation" else N
    out = {"dataset: clean + degraded doubles": wl.count * (N + m) * 8}
    if not wl.trains:
        # first-diff L: 2N rows of 2 weights + 2 int64 columns; x, w, gram (N), y (2N)
        out["first-diff L: values + columns"] = 2 * N * 2 * 16
        out["one image's iterates: x, w, gram, x_new, y, c_dual"] = (4 * N + 2 * 2 * N) * 8
        return out
    k, b = wl.network["K"], wl.train["batch_size"]
    spec = wl.network["L"][0]
    if spec.startswith("dense:"):
        p = int(spec.split(":")[1])
        nnz, index_bytes = p * N, 0
    else:
        q, stride, per_site = map(int, re.fullmatch(r"f(\d+)s(\d+)n(\d+)", spec).groups())
        sites = len(range(0, SIDE - q + 1, stride)) ** 2
        p = sites * per_site
        nnz, index_bytes = p * q * q, p * q * q * 8
    out[f"{k} analysis operators of {p} rows ({nnz} weights each)"] = k * (nnz * 8 + index_bytes)
    out[f"one batch: {b} x {m} measurements"] = b * m * 8
    # forward trace: K+1 primal iterates, K grams and w (B x N); 2K-1 dual arrays (B x P)
    out["forward trace kept for backprop"] = ((2 * k + 2) * b * N + (2 * k - 1) * b * p) * 8
    return out


def _sha256(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def _rows(path: str) -> list[dict]:
    with open(path, newline="", encoding="ascii") as f:
        return list(csv.DictReader(f))


def _number(text: str) -> float:
    return math.inf if text == "identical" else float(text)


class Bench:
    """Runs one workload's commands in-process and checks their outputs."""

    def __init__(self, wl: Workload, seed: int, work_dir: str, pdnet_modules: dict,
                 tracer):
        self.wl = wl
        self.seed = seed
        self.work = work_dir
        self.cli = pdnet_modules["cli"]
        self.network = pdnet_modules["network"]
        self.operators = pdnet_modules["operators"]
        self.data = pdnet_modules["data"]
        self.tracer = tracer
        self.data_dir = os.path.join(work_dir, "data")
        self.out_dir = os.path.join(work_dir, "out")
        self.attempted = 0
        self.failures: list[str] = []
        self.command_walls: list[tuple[str, float]] = []
        self._first: dict = {}
        self._backprojection_psnr: list[float] = []

    # -- bookkeeping ------------------------------------------------------

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def same_as_first(self, key: str, value) -> bool:
        """Exact-repeat check of ``value`` against its first occurrence."""
        first = self._first.setdefault(key, value)
        return self.check(first == value, f"{key} differs between repeats: "
                                          f"{first!r} then {value!r}")

    def _config(self, name: str, cfg: dict) -> str:
        path = os.path.join(self.work, name + ".json")
        with open(path, "w", encoding="ascii") as f:
            json.dump(cfg, f, indent=1)
        return path

    def _macs(self) -> int:
        return self.operators.ANALYSIS_MACS.count

    def pdnet(self, *argv: str) -> float | None:
        """One CLI command, in-process; its wall seconds, or None if it failed."""
        t0 = time.perf_counter()
        try:
            with self.tracer.span("cli." + argv[0]), contextlib.redirect_stdout(io.StringIO()):
                rc = self.cli.main(list(argv))
        except SystemExit as exc:
            rc = exc.code
        except Exception:  # the benchmark reports the failure and goes on
            traceback.print_exc()
            rc = "an uncaught exception"
        wall = time.perf_counter() - t0
        self.command_walls.append((argv[0], wall))
        return wall if self.check(rc == 0, f"pdnet {argv[0]} exited with {rc}") else None

    # -- set-up -----------------------------------------------------------

    def setup(self) -> float:
        """Generate the dataset config and run ``degrade``; wall seconds."""
        t0 = time.perf_counter()
        path = self._config("degrade", {
            "task": self.wl.task, "seed": self.seed, "output_dir": self.data_dir,
            "degradation": self.wl.degradation,
            "data": {"source": "synthetic", "count": self.wl.count, "image_side": SIDE},
        })
        self.pdnet("degrade", "--config", path)
        wall = time.perf_counter() - t0
        with open(os.path.join(self.data_dir, "manifest.json"), encoding="ascii") as f:
            self.same_as_first("dataset hashes", json.load(f)["files"])
        return wall

    def prepare(self) -> None:
        """Untimed: write the run configs, compute solve's reference PSNRs."""
        self.run_cfg = self._run_config("run", {})
        self.warm_cfg = self._run_config("warm_up", self.wl.warm_up)
        if not self.wl.trains:
            import numpy as np

            with open(os.path.join(self.data_dir, "manifest.json"), encoding="ascii") as f:
                spec = json.load(f)["degradation"]
            clean = np.load(os.path.join(self.data_dir, "clean.npy"))
            degraded = np.load(os.path.join(self.data_dir, "degraded.npy"))
            back = self.operators.degradation_from_spec(spec).apply_adjoint(degraded)
            self._backprojection_psnr = [self.data.psnr(b, c) for b, c in zip(back, clean)]

    def _run_config(self, name: str, overrides: dict) -> str:
        cfg = {"task": self.wl.task, "seed": RUN_SEED, "output_dir": self.out_dir,
               "degradation": self.wl.degradation,
               "data": {"source": "degraded-dir", "path": self.data_dir,
                        "train_frac": self.wl.train_frac, "val_frac": self.wl.val_frac}}
        if self.wl.trains:
            cfg["network"] = self.wl.network
            cfg["train"] = {**self.wl.train, **overrides}
        else:
            cfg["solve"] = {**self.wl.solve, **overrides}
        return self._config(name, cfg)

    def warm_up(self) -> None:
        """Untimed short pass: loads code paths and allocator pools."""
        if self.wl.trains:
            if self.pdnet("train", "--config", self.warm_cfg) is not None:
                self.pdnet("eval", "--config", self.warm_cfg, "--model",
                           os.path.join(self.out_dir, "model_best.json"), "--beta", BETAS)
        else:
            self.pdnet("solve", "--config", self.warm_cfg)

    # -- measured passes --------------------------------------------------

    def run_pass(self) -> dict | None:
        """One pass; its outputs and counts, or None when a command failed.

        ``restored`` counts the restorations a restoring command makes:
        (image, beta) pairs scored by one ``eval``, or images ``solve``
        brought to tol.
        """
        return self._train_pass() if self.wl.trains else self._solve_pass()

    def _train_pass(self) -> dict | None:
        iters = self.wl.train["max_iter"]
        macs0 = self._macs()
        if self.pdnet("train", "--config", self.run_cfg) is None:
            return None
        macs = self._macs() - macs0
        out = self.out_dir
        history = _rows(os.path.join(out, "history.csv"))
        self.same_as_first("history.csv sha256", _sha256(os.path.join(out, "history.csv")))
        self.same_as_first("model_final.json sha256",
                           _sha256(os.path.join(out, "model_final.json")))
        self.same_as_first("analysis MACs of train", macs)
        if self.wl.network["mode"] == "partial":
            dc = [float(v) for r in history for k, v in r.items() if k.startswith("dc_layer_")]
            self.check(all(v == 0.0 for v in dc), "partial mode left a dc_layer_* above 0")
        self._check_round_trip(os.path.join(out, "model_final.json"))

        eval_walls = []
        for _ in range(EVAL_REPEATS):
            t_eval = self.pdnet("eval", "--config", self.run_cfg, "--model",
                                os.path.join(out, "model_best.json"), "--beta", BETAS)
            if t_eval is None:
                return None
            metrics = _rows(os.path.join(out, "metrics.csv"))
            robustness = _rows(os.path.join(out, "robustness.csv"))
            for name, rows in (("metrics.csv", metrics), ("robustness.csv", robustness)):
                values = [_number(v) for r in rows for k, v in r.items() if k != "image"]
                self.check(not any(math.isnan(v) for v in values), f"{name} holds a NaN")
                self.same_as_first(f"{name} sha256", _sha256(os.path.join(out, name)))
            eval_walls.append(t_eval)
        images = len(metrics) - 1  # the last row is the mean
        # every restoration eval scores: the plain pass plus one per robustness row
        return {"restored": images * (1 + len(robustness)), "eval_walls": eval_walls,
                "psnr_db": _number(metrics[-1]["psnr"]),
                "val_psnr_db": _number(history[-1]["val_psnr"]),
                "macs_per_iter": macs / iters,
                "iterations": 0, "converged_ratio": 0.0}

    def _check_round_trip(self, path: str) -> None:
        copy = os.path.join(self.work, "round_trip.json")
        active, self.tracer.active = self.tracer.active, False  # not part of a command
        try:
            self.network.serialize(self.network.deserialize(path), copy)
        finally:
            self.tracer.active = active
        with open(path, "rb") as a, open(copy, "rb") as b:
            self.check(a.read() == b.read(), "model file changed in a deserialize/serialize round trip")

    def _solve_pass(self) -> dict | None:
        macs0 = self._macs()
        if self.pdnet("solve", "--config", self.run_cfg) is None:
            return None
        macs = self._macs() - macs0
        report_path = os.path.join(self.out_dir, "solve_report.csv")
        rows = _rows(report_path)
        self.same_as_first("solve_report.csv sha256", _sha256(report_path))
        self.same_as_first("analysis MACs of solve", macs)
        self.check(len(rows) == len(self._backprojection_psnr),
                   "solve_report.csv does not cover every image")
        converged = 0
        for row, base in zip(rows, self._backprojection_psnr):
            ok = row["converged"] == "1" and _number(row["psnr"]) > base
            converged += row["converged"] == "1"
            self.check(ok, f"image {row['image']}: converged={row['converged']}, "
                           f"PSNR {row['psnr']} vs backprojection {base:.4f}")
        iterations = sum(int(r["iterations"]) for r in rows)
        return {"restored": converged,
                "psnr_db": statistics.fmean(_number(r["psnr"]) for r in rows),
                "val_psnr_db": 0.0, "macs_per_iter": macs / iterations,
                "iterations": iterations, "converged_ratio": converged / len(rows)}
