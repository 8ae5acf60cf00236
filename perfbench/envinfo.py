"""The machine record printed with every benchmark result.

Everything here is read-only: ``/proc/self/maps`` to find the loaded
OpenBLAS libraries, ``/sys`` for cache sizes, ``.git`` for the commit.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform


def _openblas_libraries() -> list[str]:
    try:
        with open("/proc/self/maps", "r", encoding="ascii", errors="replace") as f:
            paths = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:
        return []
    return sorted(p for p in paths if p.startswith("/"))


def _call(lib, names: tuple[str, ...], restype):
    for name in names:
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.argtypes = []
            fn.restype = restype
            return fn()
    return None


def blas_record() -> list[dict]:
    """Version string and thread count in use of each loaded OpenBLAS."""
    out = []
    for path in _openblas_libraries():
        lib = ctypes.CDLL(path)  # already mapped: returns the loaded handle
        threads = _call(lib, ("scipy_openblas_get_num_threads64_",
                              "scipy_openblas_get_num_threads",
                              "openblas_get_num_threads64_",
                              "openblas_get_num_threads"), ctypes.c_int)
        config = _call(lib, ("scipy_openblas_get_config64_",
                             "scipy_openblas_get_config",
                             "openblas_get_config64_",
                             "openblas_get_config"), ctypes.c_char_p)
        out.append({"library": os.path.basename(path), "threads_in_use": threads,
                    "config": config.decode("ascii", "replace") if config else None})
    return out


def cache_sizes() -> dict:
    """Per-instance cache sizes of cpu0, from /sys."""
    out = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            fields = [open(os.path.join(index, f), encoding="ascii").read().strip()
                      for f in ("level", "type", "size", "shared_cpu_list")]
        except OSError:
            continue
        level, kind, size, shared = fields
        label = f"L{level}" + {"Data": "d", "Instruction": "i"}.get(kind, "")
        out[label] = f"{size} (shared by cpus {shared})"
    return out


def git_sha(root: str) -> str:
    """Commit of the checkout, read from ``.git`` without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="ascii") as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unavailable (not a git checkout)"


def environment(root: str) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": blas_record(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "caches": cache_sizes(),
        "git_sha": git_sha(root),
    }
