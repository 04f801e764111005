"""Check the benchmark's steadiness: ``python3 perfbench/spread.py [options]``.

    --workload NAME   a workload to run; repeat for several (default: all)
    --seeds A-B       seeds of one set of runs, e.g. 301-310; repeat the
                      option for a second set, compared with the first
    --seconds S       measured seconds per run (default: BENCHMARK.json's)

Runs ``run.py --trace 0`` once per seed and prints, for each end-to-end
metric, each set's median and *spread*: the distance between the first
and third quartile of its values (``statistics.quantiles(values, n=4)``)
over their median.  With two sets it also prints the change of the
second median against the first, and whether every spread (except
``setup_s``'s) and every change stays within the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds_of(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def one_set(workload: str, seeds: list[int], seconds: int) -> dict[str, list[float]]:
    values: dict[str, list[float]] = {}
    for seed in seeds:
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, cwd=ROOT, timeout=180, check=True,
        )
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            raise SystemExit(f"{workload} seed {seed}: incorrect output")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    return values


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seeds", action="append", required=True)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    ok = True
    print("| workload | metric | " + " | ".join(
        f"set {i + 1} median | set {i + 1} spread" for i in range(len(args.seeds))
    ) + (" | change | bound |" if len(args.seeds) > 1 else " | bound |"))
    for workload in workloads:
        sets = [one_set(workload, seeds_of(s), args.seconds) for s in args.seeds]
        for name, metric in bounds.items():
            cells = []
            for values in sets:
                s = spread(values[name])
                ok = ok and (name == "setup_s" or s <= metric["bound"])
                cells += [f"{statistics.median(values[name]):.4g}", f"{s:.3f}"]
            if len(sets) > 1:
                first, second = (statistics.median(v[name]) for v in sets[:2])
                worse = (second - first) / first
                if metric["better"] == "higher":
                    worse = -worse
                ok = ok and worse <= metric["bound"]
                cells.append(f"{(second - first) / first:+.3f}")
            print(f"| {workload} | {name} | " + " | ".join(cells) + f" | {metric['bound']} |",
                  flush=True)
    print(f"all within bounds: {ok}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
