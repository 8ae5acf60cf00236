"""pdnet benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload deblur-dense-full --seed 1 --seconds 30 --trace 0

Run from the repository root.  The benchmark drives the ``pdnet`` command
line entry point (``pdnet.cli.main``) in this one process, on configs and a
dataset generated from ``--seed``, so a change behind any command is
measured as a user sees it.

* Set-up (``setup_s``): importing ``pdnet`` plus the median of three
  generate-config + ``pdnet degrade`` runs.
* Untimed: a short warm-up pass.
* Measured: passes of the workload's commands (``train`` + ``eval``, or
  ``solve``) repeat until ``--seconds`` have passed, at least twice.  Every
  pass does identical work, so a command's time is rebuilt from the
  fastest repeat of each of its pieces: the intervals between the
  boundaries of the probed calls (``tracing.PROBES``) inside it.  Slower
  repeats of the same work measure the other tenants of a shared machine,
  not ``pdnet``.
* ``--trace 1`` alternates untraced and traced passes (at least two of
  each) and reports the per-layer metrics instead; ``trace.overhead_ratio``
  is the median traced pass time over the median untraced one.

The last line of standard output is the JSON result.  Exit code 0 means the
run completed; ``correct`` says whether every output check passed.
"""

from __future__ import annotations

import os

# One BLAS thread: with the OpenBLAS default of one thread per core the
# rates spread far more between repeats.  Must be set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from array import array  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_DIR = ".perfbench_work"
SETUP_REPEATS = 3
MIN_PASSES = 2
PDNET_MODULES = ("cli", "operators", "pdhg", "network", "backprop", "training", "data")

# ``--trace 0`` metrics, with their unit; the names are BENCHMARK.json's.
END_TO_END_UNITS = {"setup_s": "s", "iters_per_s": "iter/s", "images_per_s": "images/s",
                    "psnr_db": "dB", "peak_rss_mb": "MB"}


def _parse(argv):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _median(values):
    return statistics.median(values) if values else 0.0


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "pdnet", "cli.py")):
        print("error: no pdnet sources at src/pdnet; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    t0 = time.perf_counter()
    modules = {name: importlib.import_module("pdnet." + name) for name in PDNET_MODULES}
    import_s = time.perf_counter() - t0

    import envinfo
    import tracing
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    work = os.path.join(ROOT, WORK_DIR, wl.name)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)

    tracer = tracing.Tracer() if args.trace else tracing.Probe()
    tracer.install(modules, tracing.PATCHES if args.trace else tracing.PROBES)
    bench = workloads.Bench(wl, args.seed, work, modules, tracer)

    setup_walls, setup_metrics = [], []
    for _ in range(SETUP_REPEATS):
        tracer.active = bool(args.trace)
        setup_walls.append(bench.setup())
        tracer.active = False
        if args.trace:
            setup_metrics.append(tracing.pass_metrics(tracer.take()))
    bench.prepare()
    bench.warm_up()

    # timed run: every pass records its probes; traced run: every second pass
    results, walls, spans_kept, fastest = [], {False: [], True: []}, [], {}
    peak_rss_mb = 0.0
    deadline = time.perf_counter() + args.seconds
    while True:
        traced = args.trace == 0 or len(results) % 2 == 1
        tracer.active = traced
        first_command = len(bench.command_walls)
        t0 = time.perf_counter()
        res = bench.run_pass()
        walls[traced].append(time.perf_counter() - t0)
        tracer.active = False
        recorded = tracer.take()
        if res is None:
            break
        res["commands"] = bench.command_walls[first_command:]
        if not results:  # peak memory through set-up and one pass
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        results.append(res)
        if args.trace == 0:
            _keep_fastest(bench, fastest, recorded)
        elif traced:
            spans_kept.append((res, recorded))
        enough = len(results) >= (2 * MIN_PASSES if args.trace else MIN_PASSES)
        if enough and time.perf_counter() >= deadline:
            break
    tracer.uninstall()

    print("workload:", wl.name, "seed:", args.seed, "passes:", len(results))
    print("env:", json.dumps(envinfo.environment(ROOT), sort_keys=True))
    print("working set bytes (computed from array shapes):",
          json.dumps(workloads.working_set(wl)))
    if tracer.missing:
        print("not in this version of pdnet, so not traced:", " ".join(tracer.missing))

    if args.trace:
        layer_passes = [_layer_pass(bench, tracing, spans, res) for res, spans in spans_kept]
        metrics = _per_layer(tracing, setup_metrics, layer_passes, walls)
        units = {name: unit for name, (unit, _) in tracing.PER_LAYER.items()}
        _write_spans(work, [spans for _, spans in spans_kept])
    else:
        metrics = _end_to_end(wl, results, fastest)
        metrics["peak_rss_mb"] = peak_rss_mb
        metrics["setup_s"] = import_s + _median(setup_walls)
        units = END_TO_END_UNITS
    failed = len(bench.failures)
    for what in bench.failures:
        print("check failed:", what)

    if args.trace:
        print("wait time: not measured, because it does not exist: every pdnet call "
              "is synchronous in one process, so no layer waits on another")
        shown = {**units, **tracing.INFO_UNITS}
        for name in sorted(metrics):
            print(f"  {name:40s} {metrics[name]:.6g} {shown[name]}")
    else:
        _print_end_to_end(wl, metrics, results, import_s, _median(setup_walls))
    print(f"  {'error_rate':20s} {failed / max(1, bench.attempted):.6g} ratio "
          f"({failed} of {bench.attempted} operations failed)")

    print(json.dumps({
        "correct": failed == 0 and bool(results),
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


def _keep_fastest(bench, fastest: dict, commands) -> None:
    """Fold one pass's commands into each piece's fastest repeat so far.

    Every pass runs the same commands on the same inputs, so a command cuts
    into the same pieces each time.
    """
    for name, pieces in commands:
        bench.same_as_first(f"{name} pieces per run", len(pieces))
        best = fastest.setdefault(name, pieces)
        if best is not pieces and len(best) == len(pieces):
            fastest[name] = array("d", map(min, best, pieces))


def _end_to_end(wl, results, fastest: dict) -> dict:
    if not results:
        return {"iters_per_s": 0.0, "images_per_s": 0.0, "psnr_db": 0.0}
    best = {name: sum(pieces) for name, pieces in fastest.items()}
    first = results[0]
    if wl.trains:
        iters_per_s = wl.train["max_iter"] / best["cli.train"]
        images_per_s = first["restored"] / best["cli.eval"]
    else:
        iters_per_s = first["iterations"] / best["cli.solve"]
        images_per_s = first["restored"] / best["cli.solve"]
    return {
        "iters_per_s": iters_per_s,
        "images_per_s": images_per_s,
        "psnr_db": first["psnr_db"],
    }


def _print_end_to_end(wl, m: dict, results, import_s: float, degrade_s: float) -> None:
    """The figures under the names a reader of each workload expects."""
    if wl.trains:
        rows = [("train_iters_per_s", m["iters_per_s"], "iter/s"),
                ("eval_images_per_s", m["images_per_s"], "images/s"),
                ("eval_psnr_db", m["psnr_db"], "dB"),
                ("val_psnr_db", results[0]["val_psnr_db"] if results else 0.0, "dB")]
    else:
        rows = [("solve_images_per_s", m["images_per_s"], "images/s"),
                ("solve_us_per_iter", 1e6 / m["iters_per_s"] if m["iters_per_s"] else 0.0, "us"),
                ("solve_psnr_db", m["psnr_db"], "dB")]
    rows += [("setup_s", m["setup_s"], f"s (import {import_s:.4f} s + degrade median "
                                       f"{degrade_s:.4f} s)"),
             ("peak_rss_mb", m["peak_rss_mb"], "MB")]
    print("end to end (each command rebuilt from the fastest repeat of its pieces):")
    for name, value, unit in rows:
        print(f"  {name:20s} {value:.6g} {unit}")
    walls = [f"{c}={w:.3f}" for r in results for c, w in r["commands"]]
    print("command wall seconds, in order:", " ".join(walls))


def _layer_pass(bench, tracing, spans, res) -> dict:
    """Per-layer metrics of one traced pass, with the trace's own checks."""
    out = tracing.pass_metrics(spans)
    out["operators.analysis_macs_per_iter"] = res["macs_per_iter"]
    out["pdhg.solve.iterations"] = res["iterations"]
    out["pdhg.solve.converged_ratio"] = res["converged_ratio"]
    out["training.val_psnr_db"] = res["val_psnr_db"]
    bench.same_as_first("pdhg.pd_step calls per pass", out["pdhg.pd_step.calls"])
    bench.same_as_first("operator products inside norm per pass",
                        out["operators.norm.products"])
    own = tracing.self_times(spans)
    bench.check(min(own, default=0.0) > -1e-6, "a span's children outlast it")
    roots = tracing.subtree_self_gap(spans)
    commands = res["commands"]
    bench.check(len(roots) == len(commands), "traced commands and spans disagree")
    for (name, duration, self_sum), (command, wall) in zip(roots, commands):
        bench.check(name == "cli." + command and abs(duration - self_sum) < 1e-6
                    and 0.0 <= wall - duration < max(1e-3, 0.01 * wall),
                    f"{name}: self times sum to {self_sum:.6f} s, span {duration:.6f} s, "
                    f"wall {wall:.6f} s")
    return out


def _per_layer(tracing, setup_metrics, layer_passes, walls) -> dict:
    """Median over traced passes; degrade metrics from the traced set-ups."""
    out = {}
    for name in [*tracing.PER_LAYER, *tracing.INFO_UNITS]:
        source = setup_metrics if name in tracing.SETUP_METRICS else layer_passes
        out[name] = _median([p[name] for p in source if name in p])
    untraced = _median(walls[False])
    out["trace.overhead_ratio"] = _median(walls[True]) / untraced if untraced else 0.0
    return out


def _write_spans(work: str, passes: list) -> None:
    """All spans of the traced passes, written once at the end of the run."""
    with open(os.path.join(work, "spans.csv"), "w", encoding="ascii") as f:
        f.write("pass,index,name,start_s,end_s,parent\n")
        for p, spans in enumerate(passes):
            for i, (name, start, end, parent) in enumerate(spans):
                f.write(f"{p},{i},{name},{start!r},{end!r},{parent}\n")


if __name__ == "__main__":
    sys.exit(main())
