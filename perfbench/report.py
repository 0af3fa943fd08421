"""Turn a workload's observations into checked, named metrics and output.

The end-to-end metrics of ``BENCHMARK.json`` are the same three names on
every workload:

* ``windows_per_s`` — forecast windows the service completes per second
  in closed loop, the median over the run's cycles of each cycle's rate
  (stream-85: back-to-back ticks; backfill-170: ragged ``forecast_many``;
  mixed-85-procs: back-to-back 16-window bulk calls on the process tier).
* ``setup_s`` — median of the run's set-ups, checkpoint load to ready.
* ``peak_rss_mb`` — this process's peak RSS plus its largest child's.

Every end-to-end metric is also printed under its workload-specific name,
next to the ones not listed in ``BENCHMARK.json``: median latency
(``latest_p50_ms`` timed from the tick's due time, ``bulk_p50_ms`` per
call), tails (the highest of p50/p90/p99/p99.9 with at least ten samples
beyond it, percentile printed), goodput, swap time and error rate.
Latencies are not listed: on a shared 2-core VM the host's load moves
them by more than any bound a regression check may use (ten-run quartile
spread of mixed-85-procs' median latency: 0.06 in one hour, 0.41 in the
next; its p90 ranged 28-57 ms over five runs).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Tuple

import gate
from measure import GENERATOR_LAG_LIMIT_MS, median_of, peak_rss_mb, provenance, summarise

#: The benchmark's definition; the one place metric names and units are kept.
BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def spec_metrics(kind: str, values: Dict[str, float]) -> Dict[str, Dict[str, object]]:
    """The result line's ``metrics``: every ``kind`` metric of BENCHMARK.json."""
    spec = json.loads(BENCHMARK_JSON.read_text())
    return {
        metric["name"]: {"value": float(values[metric["name"]]), "unit": metric["unit"]}
        for metric in spec[kind]
    }


def _primary(record) -> List[float]:
    return record.bulk_s if record.workload == "backfill-170" else record.latest_s


def end_to_end(record) -> Dict[str, float]:
    primary = summarise(_primary(record))
    return {
        "setup_s": median_of(record.setup_s),
        "p50_ms": primary.p50_ms,
        "tail_ms": primary.tail_ms,
        "windows_per_s": median_of(record.cycle_rates),
        "peak_rss_mb": peak_rss_mb(),
    }


def attempted_failed(record) -> Tuple[int, int]:
    attempted = sum(phase.sent for phase in record.phases)
    failed = sum(phase.failed + phase.refused for phase in record.phases)
    return attempted, failed


def named_metrics(record, e2e: Dict[str, float]) -> List[Tuple[str, float, str, str]]:
    """Every end-to-end metric this workload has: (name, value, unit, note)."""
    attempted, failed = attempted_failed(record)
    rows = [("setup_s", e2e["setup_s"], "s", f"median of {len(record.setup_s)} set-ups")]
    if record.latest_s:
        latest = summarise(record.latest_s)
        goodput = 1.0 - record.interactive_misses / max(record.interactive_sent, 1)
        rows += [
            ("latest_p50_ms", latest.p50_ms, "ms", f"n={latest.count}"),
            ("latest_tail_ms", latest.tail_ms, "ms", f"p{latest.tail_percentile:g}, n={latest.count}"),
            ("latest_goodput", goodput, "ratio", "answered within 50 ms"),
        ]
    if record.bulk_s:
        bulk = summarise(record.bulk_s)
        rows += [
            ("bulk_p50_ms", bulk.p50_ms, "ms", f"n={bulk.count}"),
            ("bulk_tail_ms", bulk.tail_ms, "ms", f"p{bulk.tail_percentile:g}, n={bulk.count}"),
        ]
    prefix = "backfill_" if record.workload == "backfill-170" else ""
    rows.append((f"{prefix}windows_per_s", e2e["windows_per_s"], "windows/s",
                 f"closed loop, median of {len(record.cycle_rates)} cycles; "
                 f"{record.windows} windows in {record.timed_s:.2f} s"))
    if record.swaps:
        swap_ms = median_of([report.swap_ms for report in record.swaps])
        rows.append(("swap_ms", swap_ms, "ms", f"median of {len(record.swaps)} swaps"))
        during = summarise(record.latest_swap_s)
        rows.append(("latest_p50_ms.during_swaps", during.p50_ms, "ms", f"n={during.count}"))
        rows.append(("latest_tail_ms.during_swaps", during.tail_ms, "ms",
                     f"p{during.tail_percentile:g}, n={during.count}"))
    rows += [
        ("error_rate", failed / max(attempted, 1), "ratio", f"{failed} of {attempted}"),
        ("peak_rss_mb", e2e["peak_rss_mb"], "MiB", "parent + largest child"),
    ]
    return rows


def check(record) -> Dict[str, object]:
    """Correctness gate plus the open-loop validity rule."""
    checked, worst = gate.replay(
        record.samples, record.deployment.versions, shards=record.num_shards
    )
    lag_ok = all(lag <= GENERATOR_LAG_LIMIT_MS for lag in record.lag_p99_ms.values())
    return {
        "replayed": checked,
        "max_abs_diff": worst,
        "parity": checked > 0 and worst == 0.0,
        "generator_lag_p99_ms": record.lag_p99_ms,
        "generator_lag_limit_ms": GENERATOR_LAG_LIMIT_MS,
        "valid": lag_ok,
    }


def summary(record, seed: int) -> Dict[str, object]:
    """Everything about one run except its headline metrics."""
    tier = getattr(record.stats, "process_tier", None)
    e2e = end_to_end(record)
    attempted, failed = attempted_failed(record)
    return {
        "workload": record.workload,
        "provenance": provenance(
            Path(__file__).resolve().parent.parent, record.workload, seed, "float64",
            start_method=tier.start_method if tier is not None else None,
        ),
        "phases": {phase.name: phase.as_dict() for phase in record.phases},
        "check": check(record),
        "named": named_metrics(record, e2e),
        "end_to_end": e2e,
        "setup_s_each": record.setup_s,
        "cycle_rates": record.cycle_rates,
        "attempted": attempted,
        "failed": failed,
    }


def plain_run(runner, workdir: Path, seed: int, seconds: float) -> Dict[str, object]:
    record = runner(workdir, seed, seconds)
    result = summary(record, seed)
    result["metrics"] = spec_metrics("end_to_end", result["end_to_end"])
    return result


def emit(result: Dict[str, object], path: Path) -> None:
    """Print the human-readable report, save the record, print the result line."""
    check_ = result["check"]
    print(f"workload {result['workload']}")
    for name, value, unit, note in result["named"]:
        print(f"  {name:<30} {value:>12.4f} {unit:<10} {note}")
    for name, phase in result["phases"].items():
        print(f"  phase {name:<24} sent={phase['sent']} ok={phase['succeeded']} "
              f"failed={phase['failed']} refused={phase['refused']} errors={phase['errors']}")
    print(f"  gate: replayed={check_['replayed']} max|diff|={check_['max_abs_diff']:.3g} "
          f"parity={check_['parity']}")
    print(f"  generator lag p99 ms: {check_['generator_lag_p99_ms']} "
          f"(limit {check_['generator_lag_limit_ms']}, valid={check_['valid']})")
    if "overhead" in result:
        print(f"  trace overhead (traced / untraced): {result['overhead']}")
    prov = result["provenance"]
    print(f"  provenance: sha={prov['git_sha']} dirty={prov['git_dirty']} cores={prov['cores']} "
          f"blas={prov['blas']['library']} threads={prov['blas']['threads']} "
          f"numpy={prov['numpy']} python={prov['python']} date={prov['date']}")
    path.write_text(json.dumps(result, indent=1, default=str))
    line = {
        "correct": bool(check_["parity"] and check_["valid"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": result["metrics"],
    }
    print(json.dumps(line))
