"""LRU forecast cache.

Traffic forecasts are heavily re-requested: a dashboard polling every few
seconds, many users watching the same corridor, or retries after timeouts
all ask for the forecast of the *same* window.  Because the model is
deterministic in evaluation mode, those repeats can be answered from a
cache keyed by ``(model_version, window_hash, horizon)`` — the model
version guards against stale forecasts after a redeploy, the window hash
identifies the input exactly, and the horizon distinguishes truncated
queries over the same window.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

__all__ = ["hash_window", "CacheStats", "ForecastCache", "StaleForecast"]

#: Cache key: (model version, window content hash, forecast horizon).
CacheKey = Tuple[str, str, int]


class StaleForecast(np.ndarray):
    """A cached forecast served in degraded mode, marked as stale.

    Behaves exactly like the underlying ``(H, N)`` array but carries
    ``stale=True`` plus the model version the entry was computed under, so
    a caller opting into stale-serve (``ResilienceConfig(serve_stale=True)``)
    can distinguish a degraded answer from a fresh one.
    """

    stale = True

    def __new__(cls, forecast: np.ndarray, from_version: str = "") -> "StaleForecast":
        obj = np.asarray(forecast).view(cls)
        obj.from_version = str(from_version)
        return obj

    def __array_finalize__(self, obj) -> None:
        if obj is None:
            return
        self.from_version = getattr(obj, "from_version", "")


def hash_window(window: np.ndarray) -> str:
    """Content hash of an observation window (shape-sensitive, bit-exact).

    Two guarantees the serving cache depends on, spelled out as explicit
    steps (and pinned by regression tests) rather than left to
    ``ascontiguousarray``'s conversion heuristics:

    * the hash is computed over the float64 representation, so dtypes
      whose values compare equal (a float32 window and its float64
      widening, an integer window and its float counterpart) hash
      identically and share cache entries;
    * the common serving case — an already C-contiguous float64 window —
      is hashed in place, with no per-lookup copy of ``T * N * F``
      doubles; only non-contiguous or non-float64 inputs pay the one
      conversion.
    """
    window = np.asarray(window)
    if window.dtype != np.float64:
        window = window.astype(np.float64)
    if not window.flags.c_contiguous:
        window = np.ascontiguousarray(window)
    digest = hashlib.sha1()
    digest.update(str(window.shape).encode("utf-8"))
    digest.update(window.tobytes())
    return digest.hexdigest()


@dataclass(frozen=True)
class CacheStats:
    """Counters describing cache effectiveness."""

    hits: int
    misses: int
    evictions: int
    size: int
    max_entries: int
    #: Degraded-mode lookups answered from an older model version's entry.
    stale_hits: int = 0

    @property
    def requests(self) -> int:
        """Total lookups served."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from the cache."""
        return self.hits / self.requests if self.requests else 0.0


class ForecastCache:
    """Thread-safe LRU cache of forecast arrays.

    Parameters
    ----------
    max_entries:
        Maximum number of cached forecasts; the least recently *used* entry
        is evicted when the capacity is exceeded.

    Example
    -------
    >>> cache = ForecastCache(max_entries=512)
    >>> key = cache.make_key("v1", window, horizon=12)
    >>> if (forecast := cache.get(key)) is None:
    ...     forecast = model_forward(window)
    ...     cache.put(key, forecast)
    """

    def __init__(self, max_entries: int = 1024) -> None:
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self._entries: "OrderedDict[CacheKey, np.ndarray]" = OrderedDict()
        # Secondary index for stale-serve: (window_hash, horizon) -> the
        # most recently stored full key for that content, regardless of
        # model version.  Lets a degraded lookup find the entry an older
        # generation computed for the same window.
        self._by_content: dict = {}
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._stale_hits = 0

    @staticmethod
    def make_key(model_version: str, window: np.ndarray, horizon: int) -> CacheKey:
        """Build the ``(model_version, window_hash, horizon)`` key for a query."""
        return (str(model_version), hash_window(window), int(horizon))

    def get(self, key: CacheKey, copy: bool = True) -> Optional[np.ndarray]:
        """Look up a forecast; counts a hit or a miss and refreshes recency.

        The defensive copy of the ``(H, N)`` hit is taken *outside* the
        lock: stored arrays are never mutated in place (:meth:`put`
        stores a fresh read-only copy), so once the reference is out of
        the dict the memcpy needs no protection — holding the lock across
        it would serialise every concurrent serving thread behind each
        other's copies.  ``copy=False`` returns the stored read-only array
        itself, for a caller that copies it anyway (a batch stack).
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
        return entry.copy() if copy else entry

    def get_stale(self, key: CacheKey) -> Optional[StaleForecast]:
        """Degraded-mode lookup: any version's entry for the same window.

        Used by stale-serve fallbacks when fresh compute is unavailable
        (deadline already spent, all shards' breakers open).  Returns the
        most recently stored entry whose window hash and horizon match
        ``key`` — even one computed by an *older model version* — wrapped
        in :class:`StaleForecast` so the caller can tell it apart.  Counts
        a ``stale_hit``, never a hit or miss (the fresh :meth:`get` miss
        was already recorded by the caller's earlier lookup).
        """
        _, window_hash, horizon = key
        with self._lock:
            stored_key = self._by_content.get((window_hash, horizon))
            entry = self._entries.get(stored_key) if stored_key is not None else None
            if entry is None:
                return None
            self._entries.move_to_end(stored_key)
            self._stale_hits += 1
        return StaleForecast(entry.copy(), from_version=stored_key[0])

    def put(self, key: CacheKey, forecast: np.ndarray) -> None:
        """Store a forecast, evicting the least recently used entry if full."""
        forecast = np.array(forecast, dtype=float)
        forecast.flags.writeable = False
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = forecast
            self._by_content[(key[1], key[2])] = key
            while len(self._entries) > self.max_entries:
                evicted_key, _ = self._entries.popitem(last=False)
                self._evictions += 1
                content = (evicted_key[1], evicted_key[2])
                if self._by_content.get(content) == evicted_key:
                    del self._by_content[content]

    def __contains__(self, key: CacheKey) -> bool:
        with self._lock:
            return key in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        """Drop all entries (counters are preserved)."""
        with self._lock:
            self._entries.clear()
            self._by_content.clear()

    def stats(self) -> CacheStats:
        """Snapshot of the hit/miss/eviction counters."""
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                size=len(self._entries),
                max_entries=self.max_entries,
                stale_hits=self._stale_hits,
            )
