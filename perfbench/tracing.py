"""Span recording around the public callables of each ``pdnet`` module.

A traced run installs the wrappers of ``PATCHES`` from the benchmark's own
code; a timed run installs only the two of ``PROBES``.  Nothing under
``src/`` knows about tracing.  Each callable is patched at the name its
caller looks up:

* ``training`` binds ``forward``/``backward``/``psnr``/``ssim`` by ``from``
  import, ``cli`` binds ``train``/``pdhg_solve``/``backward`` the same way,
  so those names are patched in the importing module as well;
* ``network`` reaches ``pd_step`` through the ``pdhg`` module and ``cli``
  reaches ``data``/``network`` through module attributes;
* operator methods are patched on their classes.

A span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span (-1 for a root).  Everything in ``pdnet`` is synchronous and
single-process, so spans nest strictly and no layer ever waits on another.
"""

from __future__ import annotations

import contextlib
import functools
import math
import time
from array import array

# (module attribute path or class, attribute, span name)
PATCHES = [
    ("operators.UniformBlur", "apply", "operators.blur"),
    ("operators.UniformBlur", "apply_adjoint", "operators.blur"),
    ("operators.UniformBlur", "gram", "operators.blur"),
    ("operators.Decimation", "apply", "operators.decimation"),
    ("operators.Decimation", "apply_adjoint", "operators.decimation"),
    ("operators.DenseAnalysis", "apply", "operators.dense"),
    ("operators.DenseAnalysis", "apply_adjoint", "operators.dense"),
    ("operators.DenseAnalysis", "grad_outer", "operators.dense.grad_outer"),
    ("operators.MaskedRowAnalysis", "apply", "operators.masked"),
    ("operators.MaskedRowAnalysis", "apply_adjoint", "operators.masked"),
    ("operators.MaskedRowAnalysis", "grad_outer", "operators.masked.grad_outer"),
    ("operators.AnalysisOperator", "norm", "operators.norm"),
    ("pdhg", "prox_conj_l1", "prox.conj_l1"),
    ("backprop", "prox_conj_l1_diag_jacobian", "prox.diag_jacobian"),
    ("pdhg", "pd_step", "pdhg.pd_step"),
    ("pdhg", "objective", "pdhg.objective"),
    ("cli", "pdhg_solve", "pdhg.solve"),
    ("network", "forward", "network.forward"),
    ("training", "forward", "network.forward"),
    ("data", "forward", "network.forward"),
    ("network", "init_network", "network.init_network"),
    ("network", "serialize", "network.serialize"),
    ("network", "deserialize", "network.deserialize"),
    ("training", "backward", "backprop.backward"),
    ("cli", "backward", "backprop.backward"),
    ("training", "sgd_step", "training.sgd_step"),
    ("cli", "train", "training.train"),
    ("data", "psnr", "data.psnr"),
    ("training", "psnr", "data.psnr"),
    ("data", "ssim", "data.ssim"),
    ("training", "ssim", "data.ssim"),
    ("data", "robustness_eval", "data.robustness_eval"),
    ("data", "synthetic_digits", "data.synthetic_digits"),
    ("data", "degrade_set", "data.degrade_set"),
    ("data", "save_pgm", "data.save_pgm"),
]

# The boundaries a timed run records.  They cut every command into pieces of
# about a millisecond or more: forward, backward and step of each SGD
# iteration, each norm estimate, each primal-dual step, each model file.
PROBES = [("training", "forward", "network.forward"),
          ("training", "backward", "backprop.backward"),
          ("training", "sgd_step", "training.sgd_step"),
          ("operators.AnalysisOperator", "norm", "operators.norm"),
          ("pdhg", "pd_step", "pdhg.pd_step"),
          ("network", "serialize", "network.serialize"),
          ("network", "deserialize", "network.deserialize")]

# Spans that are one operator product (counted as norm products when nested
# inside an ``operators.norm`` span).
_PRODUCTS = {"operators.blur", "operators.decimation", "operators.dense",
             "operators.masked"}

# Candidate tail percentiles, highest first.
_TAILS = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)


class Tracer:
    """In-memory span recorder; records only while ``active``."""

    def __init__(self):
        self.spans: list[list] = []
        self.active = False
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self.missing: list[str] = []

    def _enter(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        return rec

    def _exit(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a block; the benchmark's root span per command."""
        if not self.active:
            yield
            return
        rec = self._enter(name)
        try:
            yield
        finally:
            self._exit(rec)

    def _wrap(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            rec = tracer._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(rec)

        return wrapper

    def install(self, pdnet_modules: dict, patches: list = PATCHES) -> None:
        """Patch every entry of ``patches``; ``pdnet_modules`` maps short names
        (``"cli"``, ``"operators"``, ...) to the imported modules.

        A callable the code no longer has is listed in ``missing`` and its
        metrics read 0.
        """
        for target, attr, name in patches:
            mod_name, _, cls_name = target.partition(".")
            owner = pdnet_modules[mod_name]
            if cls_name:
                owner = getattr(owner, cls_name, None)
            original = None if owner is None else vars(owner).get(attr)
            if original is None:
                self.missing.append(f"{target}.{attr}")
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def take(self) -> list[list]:
        spans, self.spans = self.spans, []
        return spans


class Probe(Tracer):
    """The timed run's recorder: for each command, only the times of the
    boundaries of the probed calls inside it, in one flat array.

    ``take`` returns each command's name and its duration cut into pieces
    at those boundaries.
    """

    def __init__(self):
        super().__init__()
        self._commands: list[tuple[str, array]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.active:
            yield
            return
        cuts = array("d", [time.perf_counter()])
        self._commands.append((name, cuts))
        try:
            yield
        finally:
            cuts.append(time.perf_counter())

    def _enter(self, name: str):
        self._commands[-1][1].append(time.perf_counter())

    def _exit(self, rec) -> None:
        self._commands[-1][1].append(time.perf_counter())

    def take(self) -> list[tuple[str, array]]:
        commands, self._commands = self._commands, []
        return [(name, array("d", (b - a for a, b in zip(cuts, cuts[1:]))))
                for name, cuts in commands]


def self_times(spans: list[list]) -> list[float]:
    """Per-span duration minus the durations of its direct children."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def iteration_gaps(spans: list[list]) -> list[float]:
    """Gaps between successive ``sgd_step`` returns inside one train call."""
    gaps, last_end = [], {}
    for name, start, end, parent in spans:
        if name == "training.sgd_step":
            if parent in last_end:
                gaps.append(end - last_end[parent])
            last_end[parent] = end
    return gaps


def tail_rank(n: int) -> float:
    """Highest candidate percentile with at least ten samples beyond it
    (0 when even the median has fewer)."""
    for q in _TAILS:
        if n - math.ceil(q / 100.0 * n) >= 10:
            return q
    return 0.0


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for an empty sample or ``q <= 0``."""
    if not values or q <= 0:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


# Per-layer metrics taken from spans: (span name, metric suffixes).
_SELF_AND_CALLS = ["operators.blur", "operators.decimation", "operators.dense",
                   "operators.masked", "operators.norm", "pdhg.pd_step",
                   "pdhg.objective", "network.forward", "backprop.backward",
                   "data.ssim"]
_SELF_ONLY = ["prox.conj_l1", "prox.diag_jacobian", "training.sgd_step",
              "training.train", "data.psnr", "data.robustness_eval",
              "data.save_pgm"]
_INCLUSIVE = {"operators.dense.grad_outer_ms": "operators.dense.grad_outer",
              "operators.masked.grad_outer_ms": "operators.masked.grad_outer",
              "operators.norm.ms": "operators.norm",
              "pdhg.objective.ms": "pdhg.objective",
              "network.init_network.ms": "network.init_network",
              "network.serialize.ms": "network.serialize",
              "network.deserialize.ms": "network.deserialize",
              "data.synthetic_digits.ms": "data.synthetic_digits",
              "data.degrade_set.ms": "data.degrade_set"}
_COMMANDS = ["cli.degrade", "cli.train", "cli.eval", "cli.solve"]
# per-call percentile families: span name -> (unit, seconds-to-unit factor)
_PERCENTILES = {"pdhg.pd_step": ("us", 1e6), "network.forward": ("ms", 1e3),
                "backprop.backward": ("ms", 1e3), "training.iter": ("ms", 1e3)}

# Metrics the degrade command produces; they come from the set-up passes.
SETUP_METRICS = {"cli.degrade.ms", "cli.degrade.self_ms",
                 "data.synthetic_digits.ms", "data.degrade_set.ms"}

# Metrics a workload pass reports from its own outputs, not from spans.
_PASS_METRICS = {"operators.analysis_macs_per_iter": ("MAC/iter", "lower"),
                 "pdhg.solve.iterations": ("count", "lower"),
                 "pdhg.solve.converged_ratio": ("ratio", "higher"),
                 "training.val_psnr_db": ("dB", "higher"),
                 "trace.overhead_ratio": ("ratio", "lower")}


def _per_layer() -> dict:
    """Every reported per-layer metric: name -> (unit, better)."""
    out = {}
    for name in _SELF_AND_CALLS:
        out[name + ".self_ms"] = ("ms", "lower")
        out[name + ".calls"] = ("count", "lower")
    for name in _SELF_ONLY:
        out[name + ".self_ms"] = ("ms", "lower")
    for metric in _INCLUSIVE:
        out[metric] = ("ms", "lower")
    for name in _COMMANDS:
        out[name + ".ms"] = ("ms", "lower")
        out[name + ".self_ms"] = ("ms", "lower")
    out["operators.norm.products"] = ("count", "lower")
    out["operators.norm.cache_hit_ratio"] = ("ratio", "higher")
    for name, (unit, _) in _PERCENTILES.items():
        out[f"{name}.p50_{unit}"] = (unit, "lower")
        out[f"{name}.pNN_{unit}"] = (unit, "lower")
    out.update(_PASS_METRICS)
    return out


PER_LAYER = _per_layer()
# Printed beside the percentiles, not reported as metrics: which percentile
# pNN is, and how many calls it was taken over.
INFO_UNITS = {f"{name}.{field}": unit for name in _PERCENTILES
              for field, unit in (("pNN_rank", "pct"), ("samples", "count"))}


def pass_metrics(spans: list[list]) -> dict:
    """Span-derived per-layer metrics of one traced pass.

    Names the pass did not exercise read 0 (0 calls, 0 ms).
    """
    own = self_times(spans)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    durations: dict[str, list] = {name: [] for name in _PERCENTILES}
    enclosing_norm = [-1] * len(spans)
    norm_products: dict[int, int] = {}
    for i, (name, start, end, parent) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own[i]
        total_s[name] = total_s.get(name, 0.0) + (end - start)
        if name in durations:
            durations[name].append(end - start)
        if name == "operators.norm":
            enclosing_norm[i] = i
            norm_products[i] = 0
        elif parent >= 0 and enclosing_norm[parent] >= 0:
            enclosing_norm[i] = enclosing_norm[parent]
            if name in _PRODUCTS:
                norm_products[enclosing_norm[i]] += 1

    durations["training.iter"] = iteration_gaps(spans)
    out = {}
    for name in _SELF_AND_CALLS:
        out[name + ".self_ms"] = 1e3 * self_s.get(name, 0.0)
        out[name + ".calls"] = calls.get(name, 0)
    for name in _SELF_ONLY:
        out[name + ".self_ms"] = 1e3 * self_s.get(name, 0.0)
    for metric, name in _INCLUSIVE.items():
        out[metric] = 1e3 * total_s.get(name, 0.0)
    for name in _COMMANDS:
        out[name + ".ms"] = 1e3 * total_s.get(name, 0.0)
        out[name + ".self_ms"] = 1e3 * self_s.get(name, 0.0)
    out["operators.norm.products"] = sum(norm_products.values())
    hits = sum(1 for n in norm_products.values() if n == 0)
    out["operators.norm.cache_hit_ratio"] = hits / len(norm_products) if norm_products else 0.0
    for name, (unit, scale) in _PERCENTILES.items():
        values = durations[name]
        rank = tail_rank(len(values))
        out[f"{name}.p50_{unit}"] = scale * percentile(values, 50.0)
        out[f"{name}.pNN_{unit}"] = scale * percentile(values, rank)
        out[f"{name}.pNN_rank"] = rank
        out[f"{name}.samples"] = len(values)
    return out


def subtree_self_gap(spans: list[list]) -> list[tuple[str, float, float]]:
    """For each root span: (name, duration, sum of self times in its subtree).

    The two agree when every child lies inside its parent and siblings do not
    overlap, which is what a synchronous program gives.
    """
    own = self_times(spans)
    root_of = [0] * len(spans)
    sums: dict[int, float] = {}
    for i, s in enumerate(spans):
        root_of[i] = i if s[3] < 0 else root_of[s[3]]
        sums[root_of[i]] = sums.get(root_of[i], 0.0) + own[i]
    return [(spans[r][0], spans[r][2] - spans[r][1], total) for r, total in sums.items()]
