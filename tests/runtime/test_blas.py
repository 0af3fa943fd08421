"""The OpenBLAS thread budget: probe, set/read round trip, nested limits."""

from __future__ import annotations

import gc
import random
import sys
import threading
import types

import numpy as np  # noqa: F401  (loads NumPy's OpenBLAS)
import pytest

from repro.runtime import blas

pytestmark = pytest.mark.skipif(
    blas.threads() is None, reason="no OpenBLAS mapped into this process"
)


@pytest.fixture(autouse=True)
def _restore_threads():
    gc.collect()  # services an earlier test never closed release their limits
    before = blas.threads()
    yield
    blas.set_threads(before)


def test_probe_finds_the_loaded_library():
    assert blas.threads() >= 1
    assert blas.cores() >= 1
    assert blas.budget(1) == blas.cores()
    assert blas.budget(10 * blas.cores()) == 1


def test_the_probe_rescans_only_after_an_import(monkeypatch):
    blas.threads()
    reads = []

    def counting_open(path, *args, **kwargs):
        reads.append(path)
        return open(path, *args, **kwargs)

    monkeypatch.setattr(blas, "open", counting_open, raising=False)
    limit = blas.limit(1)
    limit.release()
    blas.threads()
    assert reads == []  # a split batch's limit costs no /proc read
    monkeypatch.setitem(sys.modules, "_blas_probe_new_module", types.ModuleType("new"))
    blas.threads()
    assert reads == ["/proc/self/maps"]


def test_set_threads_round_trip():
    assert blas.set_threads(1) is True
    assert blas.threads() == 1
    blas.set_threads(2)
    assert blas.threads() == 2
    blas.set_threads(0)  # clamped: a pool never drops below one thread
    assert blas.threads() == 1


def test_nested_limits_take_the_minimum_and_restore_on_last_release():
    blas.set_threads(3)
    outer = blas.limit(2)
    assert blas.threads() == 2
    inner = blas.limit(1)
    assert blas.threads() == 1
    wider = blas.limit(4)  # a wider limit never raises the count
    assert blas.threads() == 1
    wider.release()
    inner.release()
    assert blas.threads() == 2  # back to the smallest limit still held
    outer.release()
    assert blas.threads() == 3  # the count before the first limit
    outer.release()  # idempotent: a second release changes nothing
    assert blas.threads() == 3


def test_a_limit_never_raises_the_count():
    blas.set_threads(1)
    held = blas.limit(2)
    assert blas.threads() == 1
    held.release()
    assert blas.threads() == 1


def test_limits_released_out_of_order():
    blas.set_threads(3)
    first, second = blas.limit(1), blas.limit(2)
    first.release()
    assert blas.threads() == 2
    second.release()
    assert blas.threads() == 3


def test_release_never_waits_for_the_lock():
    # A garbage-collection finalizer can release a limit while this thread
    # is inside limit() holding the module lock; waiting would deadlock.
    blas.set_threads(3)
    held = blas.limit(1)
    with blas._lock:
        held.release()  # queued, not applied
        assert blas.threads() == 1
    blas.limit(2).release()  # the next caller settles the queued release
    assert blas.threads() == 3


def test_concurrent_limits_restore_the_count():
    blas.set_threads(3)
    barrier = threading.Barrier(6)
    seen = []

    def churn(seed: int) -> None:
        rng = random.Random(seed)
        barrier.wait(timeout=10)
        for _ in range(100):
            held = blas.limit(rng.randint(1, 4))
            seen.append(blas.threads())
            held.release()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=churn, args=(seed,)) for seed in range(6)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert len(seen) == 600 and set(seen) <= {1, 2, 3}  # never above the prior count
    assert blas.threads() == 3  # every limit released: the count is back
