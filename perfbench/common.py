"""Helpers shared by the workloads: results, statistics, provenance."""

from __future__ import annotations

import os
import platform
import resource
import statistics
import subprocess
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Thread-pool sizes the BLAS and OpenMP runtimes read when they load;
# run.py pins them before the first numpy import.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class CheckFailed(AssertionError):
    """An output check found a wrong result."""


@dataclass
class Result:
    """What one workload run reports."""

    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failed_kinds: dict[str, int] = field(default_factory=dict)
    checks: list[str] = field(default_factory=list)
    info: dict = field(default_factory=dict)

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def fail(self, kind: str, count: int = 1) -> None:
        self.failed += count
        self.failed_kinds[kind] = self.failed_kinds.get(kind, 0) + count


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (``numpy.percentile``'s default)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values) -> float:
    return float(statistics.median(values))


def peak_rss_mb() -> float:
    """Peak resident set of this process and its reaped children, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def provenance() -> dict:
    import numpy
    import scipy

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10,
                             check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "git_sha": sha or "unknown",
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }
