"""Run every pdnet command on small configs and print the sha256 of each artifact.

Usage::

    OPENBLAS_NUM_THREADS=1 python tools/artifact_hashes.py [WORK_DIR]

Eight small workloads run in-process through ``pdnet.cli.main``.  Four are
shaped like the benchmark's (dense deblurring in full mode, block-sparse
super-resolution in partial mode, the first-difference solve on 6 images of
side 12 and on the benchmark's 24 of side 28) and one is a fused
``dense:6`` + ``f3s2n2`` network in partial mode.  Three cover what those
leave out, with one row per window in each: an ``f3s2n1`` network in
partial mode on super-resolution; an ``f3s1n1`` network on the
``interior`` site rule in partial mode, on the identity degradation, with
``lr_decay_every``; and a ``solve`` with the lambda * Id prior.  Each
training workload runs ``degrade``, ``train``, ``eval --beta 2,5``,
``eval`` without ``--beta`` (into ``eval-plain/``), ``export-filters`` and
``gradcheck``; each solve workload runs ``degrade`` and ``solve``, then
``solve -v`` once more with ``max_iter`` 500 (into ``out-cutoff/``), where
half the first-difference images of side 12, 16 of the 24 of side 28 and
every lambda * Id image stop unconverged at the cap.  At side 28 the rows
converge after 428 to 721 iterations, so ``solve`` drops them from its
batch one or two at a time.  Two more ``degrade`` runs read the file
sources: ``degrade-pgm-dir`` crops 8 x 8 patches from two PGMs that
``pdnet.data.save_pgm`` writes, and ``degrade-idx`` reads an IDX image file
and its label file, both written with ``struct``; their inputs are artifacts
too.  Every command's stdout and exit code are kept as one more artifact; a
command that exits 1 or 2 stops the run.

The output is one ``sha256  path`` line per file under the work directory,
with paths relative to it and sorted, so two checkouts whose outputs are the
same wrote the same bytes.  Pin BLAS to one thread: threaded BLAS may sum in
another order from run to run.  Without WORK_DIR a temporary directory is
used and removed afterwards.  Takes a few seconds on one core.  The
checkout's ``src`` goes first on ``sys.path``, so the run measures this
checkout's ``pdnet`` whether or not one is installed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import struct
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))

from pdnet.cli import main  # noqa: E402
from pdnet.data import save_pgm  # noqa: E402
from pdnet.rng import Stream  # noqa: E402

SEED = 1001
BLUR = {"kind": "uniform-blur", "size": 3, "alpha": 20.0}
DECIMATE = {"kind": "decimation", "factor": 2, "alpha": 20.0}
IDENTITY = {"kind": "identity", "alpha": 20.0}
TRAIN = {"gamma": 4e-7, "batch_size": 10, "max_iter": 6, "val_cadence": 3}
SOLVE = {"prior": "first-diff", "lambda": 1.5, "tol": 1e-6, "max_iter": 20000}

# name: (task, degradation, image side, image count, config sections): a
# training workload's sections hold its network and any keys that override
# TRAIN, a solve workload's its solve section
WORKLOADS = {
    "deblur-dense-full": ("deblur", BLUR, 12, 60, {"network": {
        "K": 3, "mode": "full", "L": ["dense:20"]}}),
    "sr-blocksparse-partial": ("sr", DECIMATE, 16, 60, {"network": {
        "K": 3, "mode": "partial", "L": ["f5s2n10"]}}),
    "fused-partial": ("deblur", BLUR, 8, 40, {"network": {
        "K": 3, "mode": "partial", "L": ["dense:6", "f3s2n2"]}}),
    "solve-firstdiff-blur": ("deblur", BLUR, 12, 6, {"solve": SOLVE}),
    "solve-firstdiff-blur-28": ("deblur", BLUR, 28, 24, {"solve": SOLVE}),
    "sr-onefilter-partial": ("sr", DECIMATE, 12, 40, {"network": {
        "K": 3, "mode": "partial", "L": ["f3s2n1"]}}),
    "identity-interior-partial": ("deblur", IDENTITY, 10, 40, {
        "network": {"K": 3, "mode": "partial",
                    "L": [{"spec": "f3s1n1", "site_rule": "interior"}]},
        "train": {"lr_decay_every": 2}}),
    "solve-identity-blur": ("deblur", BLUR, 12, 6, {"solve": {**SOLVE, "prior": "identity"}}),
}

# gradcheck needs image_side^2 <= 64: the same networks on smaller images
GRADCHECK = {
    "deblur-dense-full": (4, {"K": 2, "mode": "full", "L": ["dense:6"]}),
    "sr-blocksparse-partial": (8, {"K": 2, "mode": "partial", "L": ["f3s2n2"]}),
    "fused-partial": (6, {"K": 2, "mode": "partial", "L": ["dense:6", "f3s2n2"]}),
    "sr-onefilter-partial": (8, {"K": 2, "mode": "partial", "L": ["f3s2n1"]}),
    "identity-interior-partial": (6, {"K": 2, "mode": "partial", "L": [
        {"spec": "f3s1n1", "site_rule": "interior"}]}),
}


def _pgm_dir(folder: str) -> dict:
    """Two PGMs of other shapes than the 8 x 8 patches cropped from them."""
    for i, (rows, cols) in enumerate([(20, 13), (11, 16)]):
        save_pgm(os.path.join(folder, f"raster_{i}.pgm"),
                 255 * Stream(SEED + i).uniform(rows * cols).reshape(rows, cols))
    return {"source": "pgm-dir", "path": folder, "patch_size": 8, "patches_per_image": 6}


def _idx(folder: str) -> dict:
    """Seven 9 x 9 images in IDX format, with their labels."""
    count, side = 7, 9
    pixels = (256 * Stream(SEED).uniform(count * side * side)).astype("uint8")
    images, labels = os.path.join(folder, "images.idx"), os.path.join(folder, "labels.idx")
    with open(images, "wb") as f:
        f.write(struct.pack(">IIII", 0x803, count, side, side) + pixels.tobytes())
    with open(labels, "wb") as f:
        f.write(struct.pack(">II", 0x801, count) + bytes(range(count)))
    return {"source": "idx", "images": images, "labels": labels}


# name: writer of the input files, which returns the data section that reads them
SOURCES = {"degrade-pgm-dir": _pgm_dir, "degrade-idx": _idx}


def _write(path: str, doc: dict) -> str:
    with open(path, "w", encoding="ascii") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
    return path


def _pdnet(log: str, *argv: str) -> None:
    """One command; its stdout and exit code go to the file ``log``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(list(argv))
    with open(log, "w", encoding="utf-8") as f:
        f.write(out.getvalue() + f"exit {rc}\n")
    if rc not in (0, 3):  # 3 is gradcheck's FAIL verdict: an output like any other
        raise SystemExit(f"pdnet {' '.join(argv)} exited with {rc}")


def run() -> None:
    """Every workload's commands, each writing under ``<workload>/`` of the
    current directory; configs hold relative paths, so their bytes do not
    depend on where the run happens."""
    for name, (task, degradation, side, count, sections) in WORKLOADS.items():
        os.makedirs(name)

        def path(*parts):
            return os.path.join(name, *parts)

        data = path("data")
        _pdnet(path("degrade.log"), "degrade", "--config", _write(path("degrade.json"), {
            "task": task, "seed": SEED, "output_dir": data, "degradation": degradation,
            "data": {"source": "synthetic", "count": count, "image_side": side}}))
        cfg = {"task": task, "seed": SEED, "output_dir": path("out"),
               "degradation": degradation,
               "data": {"source": "degraded-dir", "path": data,
                        "train_frac": 0.6, "val_frac": 0.2}}
        if "solve" in sections:
            cfg["data"].update(train_frac=0.0, val_frac=0.0)
            cfg["solve"] = sections["solve"]
            _pdnet(path("solve.log"), "solve", "--config", _write(path("solve.json"), cfg))
            cutoff = {**cfg, "output_dir": path("out-cutoff"),
                      "solve": {**cfg["solve"], "max_iter": 500}}
            _pdnet(path("solve-cutoff.log"), "solve", "-v", "--config",
                   _write(path("solve-cutoff.json"), cutoff))
            continue
        config = _write(path("run.json"), {**cfg, "network": sections["network"],
                                           "train": {**TRAIN, **sections.get("train", {})}})
        _pdnet(path("train.log"), "train", "--config", config)
        _pdnet(path("eval.log"), "eval", "--config", config, "--output", path("eval"),
               "--model", path("out", "model_final.json"), "--beta", "2,5")
        _pdnet(path("eval-plain.log"), "eval", "--config", config, "--output",
               path("eval-plain"), "--model", path("out", "model_final.json"))
        _pdnet(path("export.log"), "export-filters", "--model",
               path("out", "model_best.json"), "--output", path("filters"))
        gc_side, gc_network = GRADCHECK[name]
        _pdnet(path("gradcheck.log"), "gradcheck", "--config", _write(
            path("gradcheck.json"),
            {"task": task, "seed": SEED, "output_dir": path("gradcheck"),
             "degradation": degradation, "data": {"image_side": gc_side},
             "network": gc_network}))
    for name, source in SOURCES.items():
        inputs = os.path.join(name, "input")
        os.makedirs(inputs)
        _pdnet(os.path.join(name, "degrade.log"), "degrade", "--config", _write(
            os.path.join(name, "degrade.json"),
            {"task": "deblur", "seed": SEED, "output_dir": os.path.join(name, "data"),
             "degradation": BLUR, "data": source(inputs)}))


def hashes() -> list[str]:
    """``sha256  path`` for every file under the current directory, by path."""
    lines = []
    for folder, _, files in os.walk("."):
        for fname in files:
            full = os.path.join(folder, fname)
            with open(full, "rb") as f:
                digest = hashlib.sha256(f.read()).hexdigest()
            lines.append((os.path.relpath(full), digest))
    return [f"{digest}  {rel}" for rel, digest in sorted(lines)]


def _main(argv: list[str]) -> int:
    if len(argv) > 1:
        raise SystemExit("usage: artifact_hashes.py [WORK_DIR]")
    work = argv[0] if argv else tempfile.mkdtemp(prefix="pdnet-artifacts-")
    os.makedirs(work, exist_ok=True)
    home = os.getcwd()
    os.chdir(work)
    try:
        run()
        print("\n".join(hashes()))
    finally:
        os.chdir(home)
        if not argv:
            shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
