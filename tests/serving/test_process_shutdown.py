"""Interpreter-shutdown hygiene: no leaked workers, segments, or threads.

A service that is simply *dropped* (no ``close()``, no context manager)
must still leave nothing behind when the interpreter exits: the module
atexit hook reaps worker processes and unlinks their shared-memory
segments, and the resource tracker must have nothing to complain about —
a tracker warning on stderr means a registration was left dangling (or,
worse, a child cancelled its parent's).  These run in a subprocess so the
exit path under test is a real interpreter shutdown.
"""

from __future__ import annotations

import json
import os
import select
import signal
import subprocess
import sys
import time

import pytest

_REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

_PREAMBLE = """
import json, sys
import numpy as np
from repro.data import ForecastingData, TrafficSimulatorConfig, WindowConfig, load_dataset
from repro.core import DyHSL, DyHSLConfig
from repro.tensor import seed as seed_everything
from repro.serving import ShardedForecastService

ds = load_dataset(
    "PEMS08", node_scale=0.06, step_scale=0.033, seed=3,
    simulator_config=TrafficSimulatorConfig(noise_std=8.0, missing_rate=0.002, seed=3),
)
fd = ForecastingData(ds, window=WindowConfig(input_length=12, output_length=12))
config = DyHSLConfig(
    num_nodes=fd.num_nodes, hidden_dim=8, prior_layers=1,
    num_hyperedges=4, window_sizes=(1, 3, 12), mhce_layers=1,
)
seed_everything(7)
model = DyHSL(config, fd.adjacency).eval()
windows = np.stack([fd.dataset.signal[i : i + 12] for i in range(3)], axis=0)
"""

_PROCESS_SCRIPT = _PREAMBLE + """
service = ShardedForecastService(
    model, scaler=fd.scaler, num_shards=2, mode="replicas",
    cache_entries=0, executor="processes", start_method="fork",
)
service.forecast_many(windows)
tier = service._tier
print(json.dumps({
    "pids": [pid for pid in tier.worker_pids() if pid is not None],
    "segments": tier.segment_names(),
}))
# Deliberately NO close(): the atexit hook owns the cleanup under test.
"""

_THREAD_SCRIPT = _PREAMBLE + """
service = ShardedForecastService(
    model, scaler=fd.scaler, num_shards=2, mode="replicas", cache_entries=0,
)
handle = service.submit(windows[0])
handle.result()
print(json.dumps({"ok": True}))
# Deliberately NO close(): the replicas' worker threads and the atexit-closed
# process tier must not deadlock exit.
"""


_ORPHAN_SCRIPT = _PREAMBLE + """
import time
service = ShardedForecastService(
    model, scaler=fd.scaler, num_shards=2, cache_entries=0,
    executor="processes", start_method=sys.argv[1],
)
# One window per call: replicas alternate, so the workers start one at a
# time and no fork overlaps a BLAS call on the other shard's thread.
service.forecast_many(windows[:1])
service.forecast_many(windows[1:2])
pids = [pid for pid in service._tier.worker_pids() if pid is not None]
print(json.dumps({"pids": pids}), flush=True)
time.sleep(600)  # killed by the test long before this returns
"""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(_REPO, "src")
    return env


def _run(script: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=180,
        env=_env(),
        cwd=_REPO,
    )


def _alive(pid: int) -> bool:
    """True while ``pid`` runs; an exited-but-unreaped zombie counts as gone
    (an orphan's reaper is whatever adopted it, not this test)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def _assert_clean_exit(result: subprocess.CompletedProcess) -> None:
    assert result.returncode == 0, result.stderr
    for smell in ("Traceback", "resource_tracker", "leaked"):
        assert smell not in result.stderr, result.stderr


class TestShutdownHygiene:
    def test_dropped_process_service_leaks_nothing(self):
        result = _run(_PROCESS_SCRIPT)
        _assert_clean_exit(result)
        payload = json.loads(result.stdout.strip().splitlines()[-1])
        assert payload["pids"] and payload["segments"]
        # Workers reaped with their parent (they are daemonic children of
        # the exited interpreter, so lookup must fail — not find a zombie).
        deadline = time.monotonic() + 10.0
        for pid in payload["pids"]:
            while time.monotonic() < deadline:
                try:
                    os.kill(pid, 0)
                except ProcessLookupError:
                    break
                time.sleep(0.05)
            else:  # pragma: no cover - diagnostic
                pytest.fail(f"worker {pid} outlived its parent interpreter")
        # Segments unlinked by the atexit hook, not abandoned in /dev/shm.
        for name in payload["segments"]:
            assert not os.path.exists(f"/dev/shm/{name}")

    def test_dropped_thread_service_exits_cleanly(self):
        result = _run(_THREAD_SCRIPT)
        _assert_clean_exit(result)
        assert json.loads(result.stdout.strip().splitlines()[-1]) == {"ok": True}

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_workers_exit_when_parent_is_killed(self, start_method):
        """SIGKILL skips every shutdown hook; the orphaned workers must
        notice on their own.  Under fork each child holds an inherited copy
        of the parent's pipe end, so the pipe never reports EOF."""
        parent = subprocess.Popen(
            [sys.executable, "-c", _ORPHAN_SCRIPT, start_method],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            env=_env(),
            cwd=_REPO,
        )
        pids = []
        try:
            ready, _, _ = select.select([parent.stdout], [], [], 120.0)
            assert ready, "parent did not report its workers within 120 s"
            line = parent.stdout.readline()
            assert line, "parent exited before reporting its workers"
            pids = json.loads(line)["pids"]
            assert len(pids) == 2
            parent.send_signal(signal.SIGKILL)
            parent.wait(timeout=10.0)
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline and any(_alive(pid) for pid in pids):
                time.sleep(0.05)
            survivors = [pid for pid in pids if _alive(pid)]
            assert not survivors, f"workers {survivors} outlived their killed parent"
        finally:
            if parent.poll() is None:
                parent.kill()
                parent.wait()
            parent.stdout.close()
            for pid in pids:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
