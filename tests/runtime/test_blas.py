"""The OpenBLAS thread count: probe and set/read round trip."""

from __future__ import annotations

import numpy as np  # noqa: F401  (loads NumPy's OpenBLAS)
import pytest

from repro.runtime import blas

pytestmark = pytest.mark.skipif(
    blas.threads() is None, reason="no OpenBLAS mapped into this process"
)


@pytest.fixture(autouse=True)
def _restore_threads():
    before = blas.threads()
    yield
    blas.set_threads(before)


def test_probe_finds_the_loaded_library():
    assert blas.threads() >= 1
    assert blas.cores() >= 1


def test_set_threads_round_trip():
    assert blas.set_threads(1) is True
    assert blas.threads() == 1
    blas.set_threads(2)
    assert blas.threads() == 2
    blas.set_threads(0)  # clamped: a pool never drops below one thread
    assert blas.threads() == 1
