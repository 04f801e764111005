"""Metrics-layer benchmark: observability cost and shard-skew report.

Runs a key-partitionable NEXMark aggregation (per-auction bid counts
over tumbling windows) serially and sharded, with a trace collector
attached, and writes ``BENCH_metrics.json`` — the artifact CI uploads:

* per-configuration wall time and events/second (the metrics layer is
  always on, so these times *include* its cost);
* the flow totals from the :class:`MetricsReport`, and the per-operator
  counters behind them (``operators``);
* rows routed per shard and the max/min skew summary;
* the trace summary (batches, changes, watermark advances);
* per-query emit-latency and watermark-lag percentiles (``latency``),
  identical across configurations by the routing invariance argument.

``schema_version`` is bumped whenever the artifact layout changes so
downstream dashboards can dispatch on it (currently 4: each run also
lists its per-operator counters, because a two-phase sharded plan has
one operator the serial plan lacks and totals alone cannot be compared;
3 added the ``batch_size``/``coalesce_updates`` workload knobs).

Runs under plain pytest (no pytest-benchmark fixtures) and as a
script::

    PYTHONPATH=src python benchmarks/bench_metrics.py
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro import ExecutionConfig, StreamEngine, TraceCollector
from repro.nexmark import NexmarkConfig, generate

NUM_EVENTS = 5_000
SHARD_SWEEP = [1, 2, 4]

SQL = """
    SELECT TB.auction, TB.wend, COUNT(*) AS bids
    FROM Tumble(
      data    => TABLE(Bid),
      timecol => DESCRIPTOR(bidtime),
      dur     => INTERVAL '10' SECONDS) TB
    GROUP BY TB.auction, TB.wend
"""

ARTIFACT = Path(__file__).resolve().parents[1] / "BENCH_metrics.json"
SCHEMA_VERSION = 4

#: routing-invariant counters every configuration must agree on.
INVARIANT_KEYS = ("rows_in", "rows_out", "late_dropped", "expired_rows")

#: operators only a two-phase sharded plan has.  Its shards pre-aggregate
#: in a ``PartialAggregate`` and the ``CombineAggregate`` above them
#: takes the serial ``Aggregate``'s place.
TWO_PHASE_ONLY = "PartialAggregateOperator"
SERIAL_COUNTERPART = {"CombineAggregateOperator": "AggregateOperator"}


def _latency(report) -> dict:
    """The run's latency telemetry as plain JSON-able percentiles."""
    telemetry = report.telemetry
    if telemetry is None:  # pragma: no cover — every dataflow attaches one
        return {}
    return telemetry.summary()


def _operators(report) -> list[dict]:
    """Per-operator invariant counters, root first, shards summed."""
    return [
        {
            "type": entry["type"],
            "rows_in": sum(entry["rows_in"]),
            "rows_out": entry["rows_out"],
            "late_dropped": entry["late_dropped"],
            "expired_rows": entry["expired_rows"],
        }
        for entry in report.operators
    ]


def shared_totals(run: dict) -> dict:
    """Invariant totals over the operators the serial plan also has."""
    shared = [op for op in run["operators"] if op["type"] != TWO_PHASE_ONLY]
    return {key: sum(op[key] for op in shared) for key in INVARIANT_KEYS}


def shared_types(run: dict) -> list[str]:
    return [
        SERIAL_COUNTERPART.get(op["type"], op["type"])
        for op in run["operators"]
        if op["type"] != TWO_PHASE_ONLY
    ]


def _workload():
    return generate(NexmarkConfig(num_events=NUM_EVENTS, seed=42))


def _run_serial_traced(streams) -> dict:
    """Serial run with a trace collector attached to the dataflow."""
    engine = StreamEngine()
    streams.register_on(engine)
    dataflow = engine.query(SQL).dataflow()
    trace = TraceCollector()
    dataflow.trace = trace
    start = time.perf_counter()
    result = dataflow.run()
    elapsed = time.perf_counter() - start
    return {
        "shards": 1,
        "backend": "serial",
        "seconds": elapsed,
        "events_per_second": NUM_EVENTS / elapsed,
        "totals": result.metrics.totals,
        "operators": _operators(result.metrics),
        "late_dropped": result.late_dropped,
        "expired_rows": result.expired_rows,
        "latency": _latency(result.metrics),
        "trace": trace.summary(),
    }


def _run_sharded(streams, shards: int) -> dict:
    engine = StreamEngine(
        config=ExecutionConfig(parallelism=shards, backend="threads")
    )
    streams.register_on(engine)
    query = engine.query(SQL)
    assert query.partition_decision().partitionable
    start = time.perf_counter()
    result = query.run()
    elapsed = time.perf_counter() - start
    report = result.metrics
    return {
        "shards": shards,
        "backend": "threads",
        "seconds": elapsed,
        "events_per_second": NUM_EVENTS / elapsed,
        "totals": report.totals,
        "operators": _operators(report),
        "late_dropped": result.late_dropped,
        "expired_rows": result.expired_rows,
        "latency": _latency(report),
        "shard_rows": report.shard_rows,
        "skew": report.skew,
    }


def collect() -> dict:
    """All configurations; the serial totals anchor the sharded ones."""
    streams = _workload()
    runs = [_run_serial_traced(streams)]
    for shards in SHARD_SWEEP[1:]:
        runs.append(_run_sharded(streams, shards))
    return {
        "schema_version": SCHEMA_VERSION,
        "workload": {
            "events": NUM_EVENTS,
            "seed": 42,
            "query": " ".join(SQL.split()),
            "batch_size": 1,
            "coalesce_updates": False,
        },
        "runs": runs,
    }


def write_artifact(payload: dict) -> Path:
    ARTIFACT.write_text(json.dumps(payload, indent=2) + "\n")
    return ARTIFACT


def test_metrics_bench_produces_artifact():
    """The bench is also the regression gate: every configuration must
    agree on the flow totals (routing-invariant counters) over the
    operators it shares with the serial plan, and the artifact must land
    on disk for CI to upload."""
    payload = collect()
    assert payload["schema_version"] == SCHEMA_VERSION
    assert payload["workload"]["batch_size"] == 1
    assert payload["workload"]["coalesce_updates"] is False
    serial = payload["runs"][0]
    assert serial["latency"]["emit_latency"]["count"] > 0
    serial_totals = shared_totals(serial)
    assert serial_totals == {key: serial["totals"][key] for key in INVARIANT_KEYS}
    (serial_aggregate,) = [
        op for op in serial["operators"] if op["type"] == "AggregateOperator"
    ]
    for run in payload["runs"][1:]:
        assert shared_types(run) == shared_types(serial)
        totals = shared_totals(run)
        for key in INVARIANT_KEYS:
            assert totals[key] == serial_totals[key], key
        # the two-phase arm: the shards' partial aggregate sees every
        # row the serial aggregate sees, exactly once
        (partial,) = [
            op for op in run["operators"] if op["type"] == TWO_PHASE_ONLY
        ]
        assert partial["rows_in"] == serial_aggregate["rows_in"]
        assert sum(run["shard_rows"]) == sum(
            payload["runs"][1]["shard_rows"]
        )  # every row routed exactly once, regardless of width
        # Routing invariance: shard-merged latency histograms hold exactly
        # the serial run's samples.
        assert run["latency"] == serial["latency"]
    assert serial["trace"]["batches"] > 0
    assert serial["trace"]["watermark_advances"] > 0
    path = write_artifact(payload)
    assert path.exists() and path.stat().st_size > 0


if __name__ == "__main__":
    data = collect()
    path = write_artifact(data)
    for run in data["runs"]:
        print(
            f"shards={run['shards']:<2} ({run['backend']:>7}): "
            f"{run['seconds']:.3f}s  {run['events_per_second']:,.0f} ev/s  "
            f"rows_out={run['totals']['rows_out']}"
        )
    print(f"wrote {path}")
