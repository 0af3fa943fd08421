"""The OpenBLAS thread count of this process.

Serving runs one BLAS thread per serving thread, for good: a
:class:`~repro.serving.ForecastService` calls ``set_threads(1)`` when it is
built and each process worker does so when it starts.  DyHSL's 16-wide
GEMMs are below the size at which OpenBLAS splits one, so more threads buy
nothing (BENCH ``blas_threads``).

The loaded OpenBLAS libraries are found through ``/proc/self/maps`` and
driven through ``ctypes``; with none loaded every call is a no-op and
:func:`threads` returns ``None``.
"""

from __future__ import annotations

import ctypes
import os
from typing import List, Optional

#: Symbol spellings of the OpenBLAS builds NumPy ships with or links to.
_NAME_FORMS = (("scipy_", "64_"), ("", "64_"), ("", ""))


def _symbols(stem: str, restype, argtypes) -> List:
    """``stem`` in every OpenBLAS shared object the process has mapped."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return []
    paths = {path for path in paths
             if "openblas" in os.path.basename(path).lower() and ".so" in path}
    found = []
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for prefix, suffix in _NAME_FORMS:
            function = getattr(lib, f"{prefix}{stem}{suffix}", None)
            if function is not None:
                function.restype, function.argtypes = restype, argtypes
                found.append(function)
                break
    return found


def threads() -> Optional[int]:
    """The live OpenBLAS pool size (the largest, if several are loaded)."""
    counts = [function() for function in _symbols("openblas_get_num_threads", ctypes.c_int, [])]
    return max(counts) if counts else None


def set_threads(count: int) -> bool:
    """Size every loaded OpenBLAS pool to ``count``; ``False`` if none is loaded."""
    functions = _symbols("openblas_set_num_threads", None, [ctypes.c_int])
    for function in functions:
        function(max(1, int(count)))
    return bool(functions)


def cores() -> int:
    """Cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1
