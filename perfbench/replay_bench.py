"""The replay workloads: library replay of a bursty NEXMark recording.

The measured replay runs in a worker process of its own (this file with
``--worker``), so its peak RSS and CPU time, and those of its forked
shard children, are the engine's alone.  Each *round* replays every
query once: construct the engine, register the recording, ``query()``
(the set-up), then ``run()``.  A warm-up round runs first and is not
counted.  Rounds repeat until ``--seconds`` have passed.

The driver side (:func:`run`) checks every round's changelog digests
against the reference: the ``batch_size=1`` per-change run for
``replay_serial``, and ``replay_serial``'s configuration for
``replay_sharded``.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    CALIBRATION_REFERENCE_S, LATENCY_TAIL, OUT, calibrate, check_checkout, child_env, digest,
    median,
)
import workloads  # noqa: E402

WORKER_TIMEOUT = 170.0
#: rounds a run measures at the least, so that its tail percentile is
#: taken over enough samples even with a short ``--seconds``.
MIN_ROUNDS = 10


def recording(workload: workloads.ReplayWorkload, seed: int):
    from repro.nexmark import NexmarkConfig, generate

    return generate(NexmarkConfig(
        num_events=workload.num_events,
        seed=seed,
        events_per_instant=workload.events_per_instant,
        watermark_interval=workload.watermark_interval,
    ))


def _replay_once(streams, config, sql: str):
    from repro import ExecutionConfig, StreamEngine

    started = time.perf_counter()
    engine = StreamEngine(config=ExecutionConfig(**config))
    streams.register_on(engine)
    query = engine.query(sql)
    ready = time.perf_counter()
    cpu0 = os.times()
    result = query.run()
    done = time.perf_counter()
    cpu1 = os.times()
    cpu = sum(cpu1[:4]) - sum(cpu0[:4])
    return ready - started, done - ready, cpu, result.changes


def worker(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = workloads.WORKLOADS[name]
    queries = [workloads.sql_of(key) for key in workload.queries]
    streams = recording(workload, seed)
    events = sum(
        len(tvr.events())
        for tvr in (streams.persons, streams.auctions, streams.bids, streams.categories)
    )
    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    for sql in queries:
        _replay_once(streams, workload.config, sql)
    if tracer is not None:
        tracer.reset()
    rounds = []
    deadline = time.perf_counter() + seconds
    # The calibration loop runs before a round and after each query; a
    # query's times are scaled by the mean of the two around it.
    calibration = [calibrate()]
    while len(rounds) < MIN_ROUNDS or time.perf_counter() < deadline:
        samples = []
        for sql in queries:
            setup_s, run_s, cpu_s, changes = _replay_once(streams, workload.config, sql)
            calibration.append(calibrate())
            speed = (calibration[-2] + calibration[-1]) / 2
            samples.append([setup_s, run_s, cpu_s, digest(changes), speed])
        rounds.append(samples)
    # VmHWM, not ru_maxrss: the latter starts from the spawning process's
    # peak, which is the driver's.
    self_kb = next(
        int(line.split()[1])
        for line in Path("/proc/self/status").read_text().splitlines()
        if line.startswith("VmHWM:")
    )
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    out = {
        "events": events,
        "calibration": calibration,
        "rounds": rounds,
        "peak_rss_mb": (self_kb + children_kb) / 1024.0,
    }
    if tracer is not None:
        import layers

        wall = sum(s[0] + s[1] for r in rounds for s in r)
        run_s = sum(s[1] for r in rounds for s in r)
        cpu_s = sum(s[2] for r in rounds for s in r)
        processed = events * len(queries) * len(rounds)
        out["per_layer"] = layers.replay_layers(
            tracer.export(), processed, len(rounds), wall, run_s, cpu_s
        )
    return out


def reference_digests(workload: workloads.ReplayWorkload, seed: int) -> list[str]:
    import oracle

    streams = recording(workload, seed)
    queries = [workloads.sql_of(key) for key in workload.queries]
    if workload.reference == "per-change":
        config = {"batch_size": 1}
    else:
        config = workloads.WORKLOADS[workload.reference].config
    return oracle.replay_digests(streams, queries, config)


def run(workload: workloads.ReplayWorkload, seed: int, seconds: float, trace: bool) -> dict:
    OUT.mkdir(parents=True, exist_ok=True)
    out_path = OUT / f"{workload.name}-{seed}-{os.getpid()}.json"
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--worker", workload.name,
        str(seed), str(seconds), "1" if trace else "0", str(out_path),
    ]
    proc = subprocess.Popen(cmd, env=child_env(), cwd=OUT)
    try:
        code = proc.wait(timeout=WORKER_TIMEOUT)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0:
        raise RuntimeError(f"replay worker exited with code {code}")
    report = json.loads(out_path.read_text())
    out_path.unlink()

    want = reference_digests(workload, seed)
    rounds = report["rounds"]
    attempted = sum(len(r) for r in rounds)
    failed = sum(
        1 for r in rounds for sample, expected in zip(r, want) if sample[3] != expected
    )
    events = report["events"]
    n_queries = len(workload.queries)
    per_round = events * n_queries
    # Each query's times scaled to the reference CPU speed (see
    # common.calibrate); a round is one latency sample: first event in to
    # every query's complete changelog out.
    def scaled(field: int) -> list[float]:
        return [
            sum(s[field] * CALIBRATION_REFERENCE_S / s[4] for s in r) for r in rounds
        ]

    round_s = scaled(1)
    cpu_s = sum(scaled(2))
    latencies = [t * 1000.0 for t in round_s]
    # Interpolated, so the figure moves smoothly with the number of rounds
    # a run holds.
    tail = statistics.quantiles(latencies, n=100, method="inclusive")[LATENCY_TAIL - 1]
    calibration = report["calibration"]
    processed = per_round * len(rounds)
    raw_s = sum(s[1] for r in rounds for s in r)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "events_per_s": processed / sum(round_s),
            "delta_p50_ms": median(latencies),
            "delta_p95_ms": tail,
            "setup_s": median(scaled(0)),
            "peak_rss_mb": report["peak_rss_mb"],
            "cpu_ms_per_kevent": cpu_s * 1e6 / processed,
        },
        "meta": {
            "events_per_round": per_round,
            "rounds": len(rounds),
            "calibration_ms": {
                "min": min(calibration) * 1000.0, "median": median(calibration) * 1000.0,
            },
            "unscaled": {
                "events_per_s": processed / raw_s,
                "delta_p50_ms": median([sum(s[1] for s in r) for r in rounds]) * 1000.0,
                "setup_s": median([sum(s[0] for s in r) for r in rounds]),
                "cpu_ms_per_kevent": sum(s[2] for r in rounds for s in r) * 1e6 / processed,
            },
            "latency_samples": len(latencies),
            "latency_tail_percentile": LATENCY_TAIL,
            "reference": workload.reference,
            "driver.send_lag_ms": 0.0,
            "driver.busy_frac": 0.0,
            "flagged": False,
        },
    }
    if trace:
        result["per_layer"] = report["per_layer"]
        result["per_layer"]["trace.events_per_s"] = result["metrics"]["events_per_s"]
    return result


if __name__ == "__main__":
    if len(sys.argv) == 7 and sys.argv[1] == "--worker":
        check_checkout()
        _, _, name, seed, seconds, trace, out_path = sys.argv
        report = worker(name, int(seed), float(seconds), trace == "1")
        Path(out_path).write_text(json.dumps(report))
    else:
        print("usage: replay_bench.py --worker NAME SEED SECONDS TRACE OUT", file=sys.stderr)
        raise SystemExit(2)
