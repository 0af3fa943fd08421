"""Service-level benchmark of the DyHSL forecasting service.

Run one workload (what a measuring harness does)::

    python3 perfbench/run.py --workload stream-85 --seed 1 --seconds 30 --trace 0

or every workload, each in a fresh process::

    python3 perfbench/run.py --seed 1 --seconds 30

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``).  The lines before it name every metric with its unit, the
per-phase request accounting and the run's provenance.  A full record of
the run (and, traced, its spans) is written under ``.bench_out/``.
Workloads and metrics are described in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import faulthandler
import json
import multiprocessing
import os
import shutil
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("stream-85", "backfill-170", "mixed-85-procs")
RUN_TIMEOUT_S = 170


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="run one workload (default: all, each in its own process)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _arm_watchdog(seconds: float) -> None:
    """End a wedged run: dump every thread's stack, stop workers, exit 3."""

    def expire() -> None:
        faulthandler.dump_traceback(all_threads=True)
        for child in multiprocessing.active_children():
            child.kill()
            child.join(timeout=5)
        os._exit(3)

    timer = threading.Timer(seconds, expire)
    timer.daemon = True
    timer.start()


def _stop_resource_tracker() -> None:
    """Reap the helper process shared memory starts, so none outlives the run."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def _run_all(args) -> None:
    """Every workload in a fresh interpreter; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        lines = done.stdout.strip().splitlines()
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        if done.returncode != 0 or not lines:
            sys.stderr.write(done.stderr)
            _fail(f"workload {name} exited with code {done.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))


def main(argv=None) -> None:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        _fail(f"no repro package under {ROOT / 'src'}; run from a full checkout")
    if args.seconds <= 0:
        _fail("--seconds must be positive")
    if args.workload is None:
        _run_all(args)
        return
    _arm_watchdog(RUN_TIMEOUT_S)
    sys.path.insert(0, str(ROOT / "src"))

    import report
    import workloads

    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    (workdir / "tmp").mkdir(parents=True)
    # The process tier spills plans to a temporary directory: keep it, and
    # everything else the run writes, inside the checkout.
    tempfile.tempdir = str(workdir / "tmp")
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    record_path = out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    try:
        runner = workloads.RUNNERS[args.workload]
        if args.trace:
            import tracing

            result = tracing.traced_run(runner, workdir, args.seed, args.seconds, record_path)
        else:
            result = report.plain_run(runner, workdir, args.seed, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        _stop_resource_tracker()
    report.emit(result, record_path)


if __name__ == "__main__":
    main()
