"""Machine and software context recorded with every result.

Everything here is read-only: ``/proc/cpuinfo`` and the cache descriptions
under ``/sys/devices/system/cpu`` where they exist, the interpreter, and the
numpy build.  Missing sources give ``None`` rather than an error.
"""

from __future__ import annotations

import os
import platform
from pathlib import Path

# BLAS/OpenMP thread counts fixed in every measured child process.
BLAS_THREADS = "1"
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _read(path):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def cpu_model():
    text = _read("/proc/cpuinfo") or ""
    for line in text.splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def cache_sizes():
    """{'L1d': '48K', 'L1i': '32K', 'L2': '2048K', 'L3': '107520K'} for cpu0."""
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        level, kind, size = (_read(index / f) for f in ("level", "type", "size"))
        if level is None or size is None:
            continue
        suffix = {"Data": "d", "Instruction": "i"}.get(kind, "")
        out[f"L{level}{suffix}"] = size
    return out


def src_loc(src):
    """Non-blank lines of Python source under ``src``."""
    total = 0
    for path in sorted(Path(src).rglob("*.py")):
        total += sum(1 for line in path.read_text().splitlines() if line.strip())
    return total


def numpy_blas():
    """(numpy version, BLAS name and version) of the running interpreter."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        name = None
    return np.__version__, name


def context(src):
    """The record written next to every result (run in a measured child)."""
    numpy_version, blas = numpy_blas()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "caches": cache_sizes(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in THREAD_ENV},
        "src_loc": src_loc(src),
    }
