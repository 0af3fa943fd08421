"""Cold compile cost per batch size: a trace per size against rebatching.

``CompiledModel`` traces a model at one and two rows and lowers every other
batch size from those two traces (:class:`repro.runtime.compiler.Rebatcher`);
before, it traced the whole forward again at every size it served, and
trace time grows with the batch.  This bench compiles each size of the
serving ladder (1, 2, 4, 8, 16) of the perfbench model at full PEMS08
(170 sensors) both ways, each in a fresh process:

* ``trace`` — :func:`~repro.runtime.build_plan_spec` at that size, the
  per-size trace;
* ``rebatch`` — the lowering from :meth:`Rebatcher.lower` (a trace at one
  and two rows, a rebatch above) laid out at that size.  Above two rows
  the b1 and b2 traces run first, untimed, as a served ladder has them.

Per size it records the compile time (median of the fresh processes) and
the process's peak RSS after the compile, and asserts that both ways give
the same spec (its artifact bytes) and that the whole ladder costs less
when rebatched.  Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_compile_cost.py -s
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parents[1]
LADDER = (1, 2, 4, 8, 16)
SENSORS = 170
TRIALS = 3
SEED = 2024


def _worker(mode: str, batch: int) -> dict:
    """Compile one size in this (fresh) process; returns its record."""
    import gc
    import hashlib
    import resource
    import time

    from perfbench.deploy import INPUT_LENGTH, MODEL_CONFIG, road_network
    from repro.core import DyHSL, DyHSLConfig
    from repro.runtime import build_plan_spec
    from repro.runtime.artifacts import _spec_to_payload
    from repro.runtime.compiler import Rebatcher, layout_plan
    from repro.tensor import seed as seed_everything

    seed_everything(SEED)
    config = DyHSLConfig(num_nodes=SENSORS, input_length=INPUT_LENGTH, **MODEL_CONFIG)
    model = DyHSL(config, road_network(SENSORS).adjacency).eval()
    x = np.random.default_rng(SEED).normal(size=(batch, INPUT_LENGTH, SENSORS, 1))
    rebatcher = Rebatcher()
    if mode == "rebatch" and batch > 2:
        rebatcher.lower(model, x[:1])
        rebatcher.lower(model, x[:2])
    gc.collect()
    started = time.perf_counter()
    if mode == "trace":
        spec, values = build_plan_spec(model, x)
    else:
        spec, values = layout_plan(rebatcher.lower(model, x), x.shape)
    elapsed = time.perf_counter() - started
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    blob, arrays = _spec_to_payload(spec)
    digest = hashlib.sha1(blob)
    for name in sorted(arrays):
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(arrays[name]).tobytes())
    for slot in spec.const_slots:
        digest.update(np.ascontiguousarray(values[slot]).tobytes())
    return {
        "compile_ms": elapsed * 1e3,
        "peak_rss_mib": peak_kib / 1024.0,
        "spec_sha1": digest.hexdigest(),
        "steps": spec.stats.steps,
    }


def _run(mode: str, batch: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(REPO_ROOT / "src"), str(REPO_ROOT), env.get("PYTHONPATH")) if part
    )
    result = subprocess.run(
        [sys.executable, __file__, mode, str(batch)],
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert result.returncode == 0, f"worker failed:\n{result.stderr}"
    return json.loads(result.stdout.strip().splitlines()[-1])


def test_compile_cost():
    sys.path.insert(0, str(REPO_ROOT))
    from conftest import print_table, record_bench
    from perfbench.measure import provenance

    rows = []
    for batch in LADDER:
        runs = {"trace": [], "rebatch": []}
        for _ in range(TRIALS):  # interleaved, so drift hits both ways alike
            for mode in runs:
                runs[mode].append(_run(mode, batch))
        digests = {run["spec_sha1"] for mode in runs for run in runs[mode]}
        assert len(digests) == 1, f"b{batch}: rebatched spec differs from the traced spec"
        row = {"batch": batch, "steps": runs["trace"][0]["steps"], "same_spec": True}
        for mode, records in runs.items():
            row[f"{mode}_ms"] = round(float(np.median([r["compile_ms"] for r in records])), 1)
            row[f"{mode}_peak_rss_mib"] = round(
                float(np.median([r["peak_rss_mib"] for r in records])), 1
            )
        rows.append(row)
    print_table(
        f"Cold compile per ladder size ({SENSORS} sensors, median of {TRIALS} fresh processes)",
        rows,
        ["batch", "steps", "trace_ms", "rebatch_ms", "trace_peak_rss_mib", "rebatch_peak_rss_mib"],
    )
    ladder = {mode: round(sum(row[f"{mode}_ms"] for row in rows), 1) for mode in ("trace", "rebatch")}
    print(f"ladder total: trace {ladder['trace']} ms, rebatch {ladder['rebatch']} ms")
    record_bench(
        "compile_cost",
        {
            "sensors": SENSORS,
            "trials": TRIALS,
            "ladder": list(LADDER),
            "rows": rows,
            "ladder_ms": ladder,
            "provenance": provenance(REPO_ROOT, "compile_cost", SEED, "float64"),
        },
    )
    assert ladder["rebatch"] < ladder["trace"]


if __name__ == "__main__":
    print(json.dumps(_worker(sys.argv[1], int(sys.argv[2]))))
