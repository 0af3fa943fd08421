"""Timing, accounting and provenance helpers shared by every workload.

Nothing here knows about the forecasting service: an open-loop schedule,
per-phase request accounting, latency summaries, peak memory and the
provenance block every run records.
"""

from __future__ import annotations

import ctypes
import datetime
import os
import platform
import resource
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

#: Percentiles a tail may be read at; the tail is the highest of these that
#: still has at least ``TAIL_MIN_BEYOND`` samples above it.
TAIL_LADDER = (50.0, 90.0, 99.0, 99.9)
TAIL_MIN_BEYOND = 10

#: An open-loop run whose generator sent its p99 request later than this
#: after the request was due is marked invalid: the offered load was not
#: the load the workload claims.  Each generator thread waits for its own
#: reply, so one slow reply delays the next sends by up to that reply's
#: latency (p99 lag reached 290 ms on a contended 2-core box with no
#: backlog); a backlog that grows over a run pushes the lag past a second.
GENERATOR_LAG_LIMIT_MS = 1000.0

#: Environment variables that set BLAS / OpenMP thread pools.
THREAD_ENV_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def tail_percentile(count: int) -> float:
    """The highest ladder percentile with ``TAIL_MIN_BEYOND`` samples beyond."""
    chosen = TAIL_LADDER[0]
    for q in TAIL_LADDER:
        if count * (1.0 - q / 100.0) >= TAIL_MIN_BEYOND:
            chosen = q
    return chosen


@dataclass
class LatencySummary:
    """Median and tail of one request class, in milliseconds."""

    count: int
    p50_ms: float
    tail_ms: float
    tail_percentile: float


def summarise(latencies_s: Sequence[float]) -> LatencySummary:
    """Median and ladder tail of latencies given in seconds."""
    values = np.asarray(latencies_s, dtype=float) * 1e3
    if values.size == 0:
        return LatencySummary(0, float("nan"), float("nan"), float("nan"))
    q = tail_percentile(values.size)
    return LatencySummary(
        count=int(values.size),
        p50_ms=float(np.percentile(values, 50.0)),
        tail_ms=float(np.percentile(values, q)),
        tail_percentile=q,
    )


class OpenLoop:
    """A fixed-rate send schedule that never waits for replies.

    ``due(i)`` is when request ``i`` should go out; :meth:`wait` sleeps until
    then and records how late the generator actually was, so a stall shows
    up both in the requests' latency (timed from their due time) and in the
    generator lag.
    """

    def __init__(self, rate_hz: float, start: Optional[float] = None) -> None:
        self.period = 1.0 / rate_hz
        self.start = time.perf_counter() if start is None else start
        self.lags: List[float] = []

    def due(self, index: int) -> float:
        return self.start + index * self.period

    def wait(self, index: int) -> float:
        """Sleep until request ``index`` is due; return its due time."""
        due = self.due(index)
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        self.lags.append(time.perf_counter() - due)
        return due

    def lag_p99_ms(self) -> float:
        if not self.lags:
            return 0.0
        return float(np.percentile(np.asarray(self.lags), 99.0) * 1e3)


@dataclass
class PhaseLog:
    """Request accounting of one phase: sent / succeeded / failed / refused."""

    name: str
    sent: int = 0
    succeeded: int = 0
    failed: int = 0
    refused: int = 0
    errors: Counter = field(default_factory=Counter)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def record(self, error: Optional[BaseException] = None, refused: bool = False) -> None:
        with self._lock:
            self.sent += 1
            if error is None:
                self.succeeded += 1
            elif refused:
                self.refused += 1
                self.errors[type(error).__name__] += 1
            else:
                self.failed += 1
                self.errors[type(error).__name__] += 1

    def as_dict(self) -> Dict[str, object]:
        return {
            "sent": self.sent,
            "succeeded": self.succeeded,
            "failed": self.failed,
            "refused": self.refused,
            "errors": dict(self.errors),
        }


def peak_rss_mb() -> float:
    """Peak resident memory: this process plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0  # ru_maxrss is KiB on Linux


def _openblas_library():
    """The OpenBLAS shared object NumPy loaded, or ``None``."""
    try:
        with open("/proc/self/maps") as maps:
            for line in maps:
                if "openblas" in line.lower() and line.rstrip().endswith(".so"):
                    return ctypes.CDLL(line.split()[-1])
    except OSError:
        return None
    return None


def _openblas_call(lib, stem: str, restype):
    for prefix, suffix in (("scipy_", "64_"), ("", "64_"), ("", "")):
        function = getattr(lib, f"{prefix}{stem}{suffix}", None)
        if function is not None:
            function.argtypes = []
            function.restype = restype
            return function()
    return None


def blas_info() -> Dict[str, object]:
    """BLAS library, version string and live thread count, read via ctypes."""
    import numpy

    info: Dict[str, object] = {"library": None, "config": None, "threads": None}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["library"] = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # numpy without a dict-mode config
        pass
    lib = _openblas_library()
    if lib is not None:
        config = _openblas_call(lib, "openblas_get_config", ctypes.c_char_p)
        info["config"] = config.decode() if config else None
        info["threads"] = _openblas_call(lib, "openblas_get_num_threads", ctypes.c_int)
    return info


def _git(root: Path, *args: str) -> Optional[str]:
    if not (root / ".git").exists():
        return None  # an exported checkout: do not report an enclosing repo
    try:
        done = subprocess.run(
            ["git", *args], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(root: Path, workload: str, seed: int, precision: str,
               start_method: Optional[str] = None) -> Dict[str, object]:
    """Where and how a run was taken (ROADMAP item 1's provenance rule)."""
    import numpy

    sha = _git(root, "rev-parse", "HEAD")
    dirty = None
    if sha is not None:
        status = _git(root, "status", "--porcelain", "--untracked-files=no")
        dirty = bool(status) if status is not None else None
    thread_env = {name: os.environ.get(name) for name in THREAD_ENV_VARS}
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "cores": cores,
        "blas": blas_info(),
        "thread_env_parent": thread_env,
        # Process-tier workers are started by this process (fork or spawn)
        # and inherit its environment unchanged.
        "thread_env_workers": dict(thread_env) if start_method else None,
        "worker_start_method": start_method,
        "repro_env": {k: v for k, v in os.environ.items() if k.startswith("REPRO_")},
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "workload": workload,
        "seed": seed,
        "precision": precision,
    }


def median_of(values: Sequence[float]) -> float:
    return float(np.median(np.asarray(values, dtype=float)))
