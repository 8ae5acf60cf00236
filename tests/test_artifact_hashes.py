"""The bytes of every artifact ``tools/artifact_hashes.py`` writes, pinned.

``artifact_hashes.golden`` holds the tool's ``sha256  path`` lines at one
BLAS thread, headed by ``# env`` lines that name where they were taken: the
numpy and scipy versions, the machine, and the config string of each
OpenBLAS a fresh ``pdnet`` process loads.  Float sums may round differently
on another environment, so there the test skips and names what differs.  A
change that alters outputs on purpose regenerates the golden, on the
environment it names, and lists the changed paths::

    python tests/test_artifact_hashes.py > tests/artifact_hashes.golden
"""

import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDEN = os.path.join(HERE, "artifact_hashes.golden")
_ENV = "# env "


def _parse(lines):
    """(env lines, {path: sha256}) of the golden or of this script's output."""
    env, digests = [], {}
    for line in lines:
        if line.startswith(_ENV):
            env.append(line[len(_ENV):])
        elif line and not line.startswith("#"):
            digest, path = line.split("  ", 1)
            digests[path] = digest
    return env, digests


def test_artifacts_match_the_golden():
    with open(GOLDEN, encoding="utf-8") as f:
        want_env, want = _parse(f.read().splitlines())
    run = subprocess.run([sys.executable, os.path.abspath(__file__)], capture_output=True,
                         text=True, timeout=600, env=dict(os.environ, OPENBLAS_NUM_THREADS="1"))
    assert run.returncode == 0, run.stderr
    have_env, have = _parse(run.stdout.splitlines())
    if have_env != want_env:
        pytest.skip(f"golden taken on another environment: it has "
                    f"{[e for e in want_env if e not in have_env]}, this one "
                    f"{[e for e in have_env if e not in want_env]}")
    differ = sorted(p for p in want.keys() | have.keys() if want.get(p) != have.get(p))
    assert not differ, f"{len(differ)} artifacts differ from the golden: {', '.join(differ)}"


def _print_golden():
    """The env header, then the tool's lines, from this one process."""
    import platform
    import runpy

    import numpy
    import scipy

    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import envinfo

    print("# sha256  path of each artifact of "
          "`OPENBLAS_NUM_THREADS=1 python tools/artifact_hashes.py`, taken on:")
    print(f"{_ENV}numpy {numpy.__version__}")
    print(f"{_ENV}scipy {scipy.__version__}")
    print(f"{_ENV}machine {platform.machine()}")
    for record in envinfo.blas_record():
        print(f"{_ENV}openblas {record['config']}")
    sys.stdout.flush()
    runpy.run_path(os.path.join(ROOT, "tools", "artifact_hashes.py"), run_name="__main__")


if __name__ == "__main__":
    os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy loads OpenBLAS
    _print_golden()
