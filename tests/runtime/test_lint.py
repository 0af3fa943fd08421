"""The serving concurrency lint: known-bad fixtures and the clean sweep.

Each rule is proven against a minimal bad fixture (lock-order inversion,
blocking work under a lock — direct and through a same-class call — and
unpicklable ``Process`` targets), suppression comments are honoured, and
the whole of ``src/repro/serving`` plus the runtime package lints clean —
the regression half of the satellite "fix anything the verifier flags".
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.runtime.verify import (
    CANONICAL_LOCK_ORDER,
    LINT_RULES,
    lint_paths,
    lint_source,
)

SERVING_DIR = Path(__file__).resolve().parents[2] / "src" / "repro" / "serving"


def _rules(findings):
    return sorted({finding.rule for finding in findings})


class TestLockOrder:
    def test_direct_inversion(self):
        source = """
class Service:
    def snapshot(self):
        with self._stats_lock:
            with self._lock:
                return dict(self._stats)
"""
        findings = lint_source(source, path="bad.py")
        assert _rules(findings) == ["L-LOCK-ORDER"]
        assert "_stats_lock" in findings[0].message

    def test_transitive_inversion_through_self_call(self):
        source = """
class Service:
    def outer(self):
        with self._stats_lock:
            self.inner()

    def inner(self):
        with self._lock:
            pass
"""
        findings = lint_source(source, path="bad.py")
        assert _rules(findings) == ["L-LOCK-ORDER"]
        assert "via Service.inner()" in findings[0].message

    def test_canonical_order_is_clean(self):
        """Acquiring strictly outermost-to-innermost never fires."""
        body = "".join(
            f"{'    ' * (2 + i)}with self.{name}:\n"
            for i, name in enumerate(CANONICAL_LOCK_ORDER)
        )
        source = (
            "class Service:\n    def nest(self):\n" + body
            + f"{'    ' * (2 + len(CANONICAL_LOCK_ORDER))}pass\n"
        )
        assert lint_source(source, path="ok.py") == []

    def test_unknown_locks_not_ranked(self):
        source = """
class Service:
    def run(self):
        with self._weird_custom_lock:
            with self._lock:
                pass
"""
        assert lint_source(source, path="ok.py") == []

    def test_reentrant_same_lock_allowed(self):
        source = """
class Monitor:
    def outer(self):
        with self._lock:
            self.inner()

    def inner(self):
        with self._lock:
            pass
"""
        assert _rules(lint_source(source, path="ok.py")) == []


class TestBlockingUnderLock:
    def test_sleep_and_io_under_lock(self):
        source = """
import time, numpy as np

class Buffer:
    def bad_sleep(self):
        with self._lock:
            time.sleep(0.1)

    def bad_io(self, path):
        with self._lock:
            np.savez(path, data=self._data)

    def bad_compile(self, module, window):
        with self._lock:
            return compile_plan(module, window)
"""
        findings = lint_source(source, path="bad.py")
        assert _rules(findings) == ["L-BLOCK"]
        assert len(findings) == 3

    def test_tracing_under_lock(self):
        """The function that traces is on the table, so a plan cache that
        compiles through a wrapper of it while holding its lock is flagged."""
        source = """
def compile_training_plan(module, example):
    return lower_module(module, example, fold_constants=False)

class Plans:
    def get(self, module, example):
        with self._lock:
            return compile_training_plan(module, example)
"""
        findings = lint_source(source, path="bad.py")
        assert _rules(findings) == ["L-BLOCK"]
        assert "plan tracing via compile_training_plan()" in findings[0].message

    def test_transitive_blocking(self):
        source = """
class Flusher:
    def flush(self):
        with self._flush_lock:
            self._write()

    def _write(self):
        self._path.write_bytes(self._payload)
"""
        findings = lint_source(source, path="bad.py")
        assert _rules(findings) == ["L-BLOCK"]
        assert "via Flusher._write()" in findings[0].message

    def test_join_heuristic_spares_strings(self):
        source = """
import os

class Worker:
    def keys(self):
        with self._lock:
            label = ", ".join(self._names)
            return os.path.join(self._root, label)

    def stop(self):
        with self._lock:
            self._thread.join()

    def stop_with_timeout(self):
        with self._lock:
            self._proc.join(5.0)
"""
        findings = lint_source(source, path="mixed.py")
        assert len(findings) == 2
        assert all("join" in f.message for f in findings)

    def test_condition_wait_not_flagged(self):
        """Condition.wait releases the lock — it must never fire."""
        source = """
class Queue:
    def pop(self):
        with self._cond:
            while not self._items:
                self._cond.wait(0.1)
            return self._items.pop()
"""
        assert lint_source(source, path="ok.py") == []

    def test_blocking_outside_lock_not_flagged(self):
        source = """
import time

class Buffer:
    def flush(self):
        with self._lock:
            payload = dict(self._data)
        time.sleep(0.1)
        return payload
"""
        assert lint_source(source, path="ok.py") == []

    def test_nested_def_not_charged_to_lock(self):
        """A callback defined under a lock runs later, not under it."""
        source = """
import time

class Buffer:
    def schedule(self):
        with self._lock:
            def later():
                time.sleep(1.0)
            self._callbacks.append(later)
"""
        assert lint_source(source, path="ok.py") == []


class TestSpawnSafety:
    def test_lambda_and_bound_targets(self):
        source = """
class Tier:
    def start(self, ctx):
        ctx.Process(target=lambda: None)
        ctx.Process(target=self._serve, args=(1,))
"""
        findings = lint_source(source, path="bad.py")
        assert _rules(findings) == ["L-SPAWN"]
        assert len(findings) == 2

    def test_nested_target_and_lambda_args(self):
        source = """
class Tier:
    def start(self, ctx):
        def worker(conn):
            pass
        ctx.Process(target=worker, args=(lambda: 1,))
"""
        findings = lint_source(source, path="bad.py")
        assert len(findings) == 2
        assert all(f.rule == "L-SPAWN" for f in findings)

    def test_module_level_target_is_clean(self):
        source = """
def _worker_main(conn, name):
    pass

class Tier:
    def start(self, ctx):
        return ctx.Process(target=_worker_main, args=(self._conn, "w0"), daemon=True)
"""
        assert lint_source(source, path="ok.py") == []


class TestRetryLoops:
    def test_bare_while_true_redispatch(self):
        source = """
class Dispatcher:
    def run(self, job):
        while True:
            try:
                return self._dispatch(job)
            except ConnectionError:
                continue
"""
        findings = lint_source(source, path="bad.py")
        assert _rules(findings) == ["L-RETRY"]
        assert "unbounded" in findings[0].message

    def test_bounded_attempt_loop_without_backoff(self):
        source = """
class Dispatcher:
    def run(self, job):
        for attempt in range(3):
            try:
                return self._dispatch(job)
            except ConnectionError:
                continue
"""
        findings = lint_source(source, path="bad.py")
        assert _rules(findings) == ["L-RETRY"]
        assert "unbounded" not in findings[0].message

    def test_backoff_in_loop_passes(self):
        source = """
import time

class Dispatcher:
    def run(self, job):
        for attempt in range(self.max_attempts):
            try:
                return self._dispatch(job)
            except ConnectionError:
                time.sleep(0.05 * attempt)
                continue
"""
        assert lint_source(source, path="ok.py") == []

    def test_backoff_helper_name_passes(self):
        source = """
class Worker:
    def _respawn(self):
        while True:
            try:
                return self._spawn()
            except OSError:
                self._respawn_delay()
                continue
"""
        assert lint_source(source, path="ok.py") == []

    def test_iterating_alternatives_is_not_a_retry(self):
        """Skipping failing *items* of a collection is not a retry loop."""
        source = """
class Loader:
    def load(self, key):
        for store in self.stores:
            try:
                return store.load(key)
            except OSError:
                continue
        raise KeyError(key)
"""
        assert lint_source(source, path="ok.py") == []

    def test_inner_loop_continue_does_not_leak_to_outer(self):
        source = """
class Scanner:
    def scan(self):
        while True:
            for item in self.items:
                try:
                    self.handle(item)
                except ValueError:
                    continue
            if self.done():
                return
"""
        assert lint_source(source, path="ok.py") == []


class TestSuppression:
    def test_inline_and_preceding_line(self):
        source = """
import time

class Buffer:
    def a(self):
        with self._lock:
            time.sleep(0.1)  # lint: disable=L-BLOCK

    def b(self):
        with self._lock:
            # lint: disable=L-BLOCK
            time.sleep(0.1)
"""
        assert lint_source(source, path="ok.py") == []

    def test_wrong_rule_does_not_suppress(self):
        source = """
import time

class Buffer:
    def a(self):
        with self._lock:
            time.sleep(0.1)  # lint: disable=L-SPAWN
"""
        assert _rules(lint_source(source, path="bad.py")) == ["L-BLOCK"]

    def test_disable_all(self):
        source = """
import time

class Buffer:
    def a(self):
        with self._lock:
            time.sleep(0.1)  # lint: disable=all
"""
        assert lint_source(source, path="ok.py") == []


class TestRealCode:
    def test_serving_package_lints_clean(self):
        """The satellite sweep: the whole serving tier has zero findings."""
        assert SERVING_DIR.is_dir()
        findings = lint_paths([SERVING_DIR])
        assert findings == [], "\n".join(str(f) for f in findings)

    def test_runtime_package_lints_clean(self):
        runtime_dir = SERVING_DIR.parent / "runtime"
        findings = lint_paths([runtime_dir])
        assert findings == [], "\n".join(str(f) for f in findings)

    def test_cli_lint_mode(self, tmp_path, capsys):
        from repro.runtime.verify.__main__ import main

        bad = tmp_path / "bad.py"
        bad.write_text(
            "import time\n"
            "class S:\n"
            "    def a(self):\n"
            "        with self._lock:\n"
            "            time.sleep(1)\n"
        )
        assert main(["--lint", str(bad)]) == 1
        assert "L-BLOCK" in capsys.readouterr().out
        assert main(["--lint", str(SERVING_DIR)]) == 0

    def test_rule_catalogue_exported(self):
        assert LINT_RULES == ("L-LOCK-ORDER", "L-BLOCK", "L-SPAWN", "L-RETRY")
        assert "_lock" in CANONICAL_LOCK_ORDER
        # The resilience layer's locks are ranked: breaker/retry bookkeeping
        # nests inside the flush it instruments, outside the _lock family.
        flush = CANONICAL_LOCK_ORDER.index("_flush_lock")
        generic = CANONICAL_LOCK_ORDER.index("_lock")
        assert flush < CANONICAL_LOCK_ORDER.index("_breaker_lock") < generic
        assert flush < CANONICAL_LOCK_ORDER.index("_retry_lock") < generic
