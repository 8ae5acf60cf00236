"""The benchmark's own smoke test: a short run of every workload.

    python3 perfbench/smoke.py

Runs each workload for one second untraced and traced, then checks that
every metric BENCHMARK.json names is printed with its unit, that every
output check passed (the traced run's checks include "the self times of
each command's spans add up to its wall time"), that the layer predictions
which must hold at the seed do hold, and that the benchmark refuses to run
from a directory holding only BENCHMARK.json and its own files.  Exit code 0
means all of that held.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7

# The end-to-end figures each workload prints under the names readers know.
READABLE = {"deblur-dense-full": ["train_iters_per_s", "eval_images_per_s", "eval_psnr_db"],
            "sr-blocksparse-partial": ["train_iters_per_s", "eval_images_per_s",
                                       "eval_psnr_db"],
            "solve-firstdiff-blur": ["solve_images_per_s", "solve_psnr_db"]}
COMMON = ["setup_s", "error_rate", "peak_rss_mb"]


def _run(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    problems = []
    layers = {}
    for wl in (w["name"] for w in spec["workloads"]):
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = _run(ROOT, wl, trace)
            if proc.returncode != 0:
                problems.append(f"{wl} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                failures = [ln for ln in proc.stdout.splitlines() if ln.startswith("check failed")]
                problems.append(f"{wl} trace={trace}: output checks failed: {failures}")
            want = {m["name"]: m["unit"] for m in declared}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{wl} trace={trace}: metrics/units differ from "
                                f"BENCHMARK.json: {sorted(set(got) ^ set(want))}")
            bad = [k for k, v in result["metrics"].items()
                   if not isinstance(v["value"], (int, float)) or not math.isfinite(v["value"])]
            if bad:
                problems.append(f"{wl} trace={trace}: non-finite values {bad}")
            if trace == 0:
                printed = {ln.split()[0] for ln in proc.stdout.splitlines() if ln.startswith("  ")}
                missing = [n for n in READABLE[wl] + COMMON if n not in printed]
                if missing:
                    problems.append(f"{wl}: not printed by name: {missing}")
            else:
                layers[wl] = {k: v["value"] for k, v in result["metrics"].items()}
        print(f"{wl}: done", flush=True)

    if len(layers) == 3:
        problems += _predictions(layers)
    problems += _bare_directory()
    for p in problems:
        print("FAIL:", p)
    print("smoke:", "PASS" if not problems else f"FAIL ({len(problems)} problems)")
    return 1 if problems else 0


def _predictions(layers: dict) -> list[str]:
    """Predictions that hold at the seed (see perfbench/README.md)."""
    dense, sr = layers["deblur-dense-full"], layers["sr-blocksparse-partial"]
    out = []
    if sr["operators.blur.calls"] != 0:
        out.append("operators.blur.calls is not 0 on sr-blocksparse-partial")
    for name, m in (("deblur-dense-full", dense), ("sr-blocksparse-partial", sr)):
        if m["pdhg.objective.calls"] != 0:
            out.append(f"pdhg.objective.calls is not 0 on {name}")
    share = {name: m["operators.norm.self_ms"] / m["cli.train.ms"]
             for name, m in (("dense", dense), ("sr", sr))}
    if not share["sr"] > share["dense"]:
        out.append(f"operators.norm.self_ms share of train time: sr {share['sr']:.4f} "
                   f"is not above dense {share['dense']:.4f}")
    return out


def _bare_directory() -> list[str]:
    """A directory with only BENCHMARK.json and perfbench must fail fast."""
    bare = os.path.join(ROOT, ".perfbench_work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(bare, "deblur-dense-full", 0)
    shutil.rmtree(bare)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return ["run.py did not refuse a directory without the pdnet sources"]
    return []


if __name__ == "__main__":
    sys.exit(main())
