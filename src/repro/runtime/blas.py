"""The OpenBLAS thread budget of this process.

NumPy's OpenBLAS starts one thread per core, and every serving worker
multiplies that pool; DyHSL's forward is many small products, so K workers
at the default oversubscribe the cores.  This module finds the OpenBLAS
libraries the process has loaded (through ``/proc/self/maps``) and sets
their pool size through ``ctypes``.  With no OpenBLAS loaded every call is
a no-op and :func:`threads` returns ``None``.

:func:`limit` is reference-counted: while any limit is held the process
runs at the smallest held value (never above the count it had before the
first limit), and that count returns when the last limit is released.
"""

from __future__ import annotations

import ctypes
import os
import sys
import threading
from typing import Dict, List, Optional, Tuple

#: Symbol spellings of the OpenBLAS builds NumPy ships with or links to.
_NAME_FORMS = (("scipy_", "64_"), ("", "64_"), ("", ""))

_lock = threading.Lock()
#: Limits in force, and released limits not yet taken out of force.
_held: List["_Limit"] = []
_released: List["_Limit"] = []
#: The pool size before the first limit; ``None`` while no limit applies.
_restore: Optional[int] = None
#: Symbols found per stem, with the ``sys.modules`` size at the lookup.
#: OpenBLAS is mapped by an extension-module import, so while no module
#: has been imported since, the lookup stands and ``/proc/self/maps``
#: (about 0.5 ms a read) is not read again.
_found: Dict[str, Tuple[int, List]] = {}


def _symbols(stem: str, restype, argtypes) -> List:
    """``stem`` in every OpenBLAS shared object the process has mapped."""
    modules = len(sys.modules)
    cached = _found.get(stem)
    if cached is not None and cached[0] == modules:
        return cached[1]
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps}
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
    _found[stem] = (modules, found)
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


def _apply_locked() -> None:
    """Drop released limits and size the pool for the rest (``_lock`` held)."""
    global _restore
    while _released:
        done = _released.pop()
        if done in _held:
            _held.remove(done)
    if _held:
        cap = min(limit.count for limit in _held)
        set_threads(cap if _restore is None else min(cap, _restore))
    elif _restore is not None:
        set_threads(_restore)
        _restore = None


def _settle() -> None:
    """Apply queued releases without ever blocking.

    A release may come from a garbage-collection finalizer that runs while
    this very thread holds ``_lock`` (collection can start at any
    allocation), so a release only queues itself and takes the lock if it
    is free; a holder settles again after letting go.
    """
    while _released and _lock.acquire(blocking=False):
        try:
            _apply_locked()
        finally:
            _lock.release()


class _Limit:
    """One held :func:`limit`; :meth:`release` is idempotent."""

    def __init__(self, count: int) -> None:
        global _restore
        self.count = max(1, int(count))
        with _lock:
            if _restore is None:
                _restore = threads()
            _held.append(self)
            _apply_locked()
        _settle()

    def release(self) -> None:
        _released.append(self)
        _settle()


def limit(count: int) -> _Limit:
    """Hold the process at no more than ``count`` BLAS threads until released."""
    return _Limit(count)


def cores() -> int:
    """Cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def budget(workers: int) -> int:
    """BLAS threads per worker when ``workers`` share this process's cores."""
    return max(1, cores() // max(1, workers))
