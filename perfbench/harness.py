"""Measurement arithmetic and the run record that travels with each result."""

from __future__ import annotations

import ctypes
import hashlib
import math
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path

# A reported percentile must leave at least this many samples beyond it.
TAIL_SAMPLES = 10


def percentile(values: list[float], p: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    if not values:
        raise ValueError("percentile of no values")
    if not 0 <= p <= 100:
        raise ValueError(f"percentile {p} outside [0, 100]")
    s = sorted(values)
    pos = (len(s) - 1) * p / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def samples_needed(p: float, tail: int = TAIL_SAMPLES) -> int:
    """Fewest samples that leave `tail` of them above the p-th percentile."""
    if not 0 < p < 100:
        raise ValueError(f"percentile {p} outside (0, 100)")
    return math.ceil(tail * 100 / (100 - p) - 1e-9)


def peak_rss_mib() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def pin_mmap_threshold() -> bool:
    """Fix glibc's mmap threshold at 128 KiB, so large arrays are always mapped.

    By default glibc raises the threshold each time a mapped block is
    freed, after which large arrays land on the heap and peak RSS depends
    on fragmentation: the same run then peaks at 92 or 110 MiB. Returns
    False where the C library has no mallopt (not glibc).
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    M_MMAP_THRESHOLD = -3
    return bool(mallopt(M_MMAP_THRESHOLD, 128 * 1024))


def cpu_seconds() -> float:
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def _blas() -> dict:
    import numpy as np

    info = np.__config__.CONFIG["Build Dependencies"]["blas"]
    out = {"name": info.get("name"), "version": info.get("version"), "threads": None}
    libs = []
    with open("/proc/self/maps", encoding="utf-8") as fh:
        for line in fh:
            path = line.split()[-1]
            if "blas" in os.path.basename(path) and path not in libs:
                libs.append(path)
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                out["threads"] = int(fn())
                out["library"] = os.path.basename(path)
                return out
    return out


def source_digest(src: Path) -> str:
    """sha256 over the package's .py files, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit(root: Path) -> str | None:
    """HEAD of the repository rooted at `root`; None outside one."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root,
            capture_output=True, text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != root.resolve():
        return None
    return lines[1]


def run_record(root: Path, seed: int) -> dict:
    """Everything that must match before two results are compared."""
    import numpy as np

    return {
        "git_commit": git_commit(root),
        "source_sha256": source_digest(root / "src" / "hoplite"),
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "machine": platform.machine(),
        "argv": sys.argv[1:],
    }
