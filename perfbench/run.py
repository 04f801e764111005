"""Run the benchmark: ``python3 perfbench/run.py [options]``.

    --workload NAME|all   one workload of workloads.WORKLOADS, or all (default)
    --seed N              input seed (default 1)
    --seconds S           measured seconds per run (default 20)
    --trace 0|1           0: end-to-end metrics, untraced; 1: per-layer
                          metrics from a traced run

One workload prints each metric with its unit, a ``meta`` line with the
run's metadata, and last a JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--workload all`` runs every
workload untraced and then traced, and also prints the tracing overhead
and the traced runs' coverage check.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import END_TO_END, PER_LAYER, check_checkout, run_metadata, steal_s  # noqa: E402

#: traced runs must attribute this share of their wall time, give or take.
COVERAGE_TOLERANCE = 0.10


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import replay_bench
    import serve_bench
    import workloads

    workload = workloads.WORKLOADS[name]
    bench = serve_bench if workload.kind == "serve" else replay_bench
    steal0, wall0 = steal_s(), time.perf_counter()
    result = bench.run(workload, seed, seconds, trace)
    # Share of the CPUs' time the host took away during the run: runs
    # with much of it read slower and with a longer latency tail.
    steal = (steal_s() - steal0) / ((time.perf_counter() - wall0) * (os.cpu_count() or 1))
    result["meta"] = {
        "workload": name, **run_metadata(seed), **result["meta"], "host.steal_frac": steal,
    }
    if trace:
        coverage = result["per_layer"]["trace.coverage"]
        result["meta"]["coverage_ok"] = abs(coverage - 1.0) <= COVERAGE_TOLERANCE
    return result


def report(result: dict, trace: bool, prefix: str = "") -> dict:
    """Print one run's metrics with units; returns the metrics object."""
    units = PER_LAYER if trace else END_TO_END
    values = result["per_layer"] if trace else result["metrics"]
    metrics = {}
    for name, unit in units.items():
        metrics[prefix + name] = {"value": values[name], "unit": unit}
        print(f"{prefix + name:52s} {values[name]:>16.6g} {unit}")
    failed_frac = result["failed"] / result["attempted"]
    print(f"{prefix + 'failed_frac':52s} {failed_frac:>16.6g} ratio")
    meta = result["meta"]
    if meta.get("flagged"):
        print(f"{prefix}WARNING: driver fell behind or was saturated "
              f"(send lag {meta['driver.send_lag_ms']:.2f} ms, "
              f"busy {meta['driver.busy_frac']:.2f}); this run does not count",
              file=sys.stderr)
    if trace and not meta["coverage_ok"]:
        print(f"{prefix}WARNING: traced spans cover "
              f"{values['trace.coverage']:.3f} of wall time", file=sys.stderr)
    print("meta " + json.dumps(meta, sort_keys=True))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    check_checkout()
    import workloads

    if args.workload != "all":
        if args.workload not in workloads.WORKLOADS:
            parser.error(f"unknown workload {args.workload!r}")
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        metrics = report(result, bool(args.trace))
        print(json.dumps({
            "correct": bool(result["correct"]),
            "attempted": int(result["attempted"]),
            "failed": int(result["failed"]),
            "metrics": metrics,
        }))
        return 0

    metrics = {}
    correct, attempted, failed = True, 0, 0
    for name in workloads.WORKLOADS:
        runs = {}
        for trace in (False, True):
            print(f"== {name} ({'traced' if trace else 'untraced'})")
            result = runs[trace] = run_workload(name, args.seed, args.seconds, trace)
            metrics.update(report(result, trace, prefix=f"{name}/"))
            correct = correct and bool(result["correct"])
            attempted += int(result["attempted"])
            failed += int(result["failed"])
        untraced = runs[False]["metrics"]["events_per_s"]
        traced = runs[True]["per_layer"]["trace.events_per_s"]
        overhead = 1.0 - traced / untraced
        metrics[f"{name}/trace.overhead"] = {"value": overhead, "unit": "ratio"}
        print(f"{name + '/trace.overhead':52s} {overhead:>16.6g} ratio")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
