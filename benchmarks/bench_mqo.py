"""Multi-query optimization benchmark: shared-subplan throughput sweep.

Sweeps the number of resident standing queries (1 → 64) over a fixed
pool of four distinct query shapes — alias-varied tumbling-window
aggregates over one keyed stream — so the count of *distinct* subplans
stays constant while the sharing ratio grows.  Every sweep point runs
twice through the standing-query service: once with ``share_plans``
on (queries with matching fingerprints graft onto one DAG, the shared
prefix executes once per ingested event) and once with it off (one
private dataflow per query, the pre-MQO behaviour).

Two things are asserted on every point, making the bench double as a
regression gate:

* **byte-identity** — each standing query's full delta stream is
  change-for-change identical with sharing on or off (the invariant of
  ``docs/MQO.md``);
* **it pays** — at 16 standing queries the shared service must ingest
  at least 3x the events/second of the unshared one.

Writes ``BENCH_mqo.json`` — the artifact the CI ``mqo-bench`` job
uploads.  Runs under plain pytest and as a script::

    PYTHONPATH=src python benchmarks/bench_mqo.py
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro import ExecutionConfig
from repro.core.schema import Schema, int_col, timestamp_col
from repro.core.tvr import TimeVaryingRelation, ins, wm
from repro.service import StandingQueryService
from repro.service.admission import TenantPolicy

MINUTE = 60_000
NUM_EVENTS = 600
QUERY_SWEEP = [1, 2, 4, 8, 16, 32, 64]
GATE_POINT = 16
GATE_SPEEDUP = 3.0

SCHEMA = Schema(
    [int_col("k"), timestamp_col("ts", event_time=True), int_col("v")]
)

TUMBLE = (
    "Tumble(data => TABLE(S), timecol => DESCRIPTOR(ts), "
    "dur => INTERVAL '2' MINUTE)"
)

#: Four distinct subplans; every query in the sweep is one of these
#: with a per-query output alias (aliases are fingerprint-invariant,
#: so copies of the same shape share their whole plan).
POOL = [
    f"SELECT k, wend, SUM(v) AS a{{i}} FROM {TUMBLE} TS "
    "GROUP BY k, wend EMIT STREAM",
    f"SELECT k, wend, MAX(v) AS a{{i}} FROM {TUMBLE} TS "
    "GROUP BY k, wend EMIT STREAM",
    f"SELECT k, wend, MIN(v) AS a{{i}} FROM {TUMBLE} TS "
    "GROUP BY k, wend EMIT STREAM",
    f"SELECT k, wend, COUNT(*) AS a{{i}} FROM {TUMBLE} TS "
    "GROUP BY k, wend EMIT STREAM",
]

ARTIFACT = Path(__file__).resolve().parents[1] / "BENCH_mqo.json"
SCHEMA_VERSION = 1


def make_events(n: int, start: int = 1_000_000) -> list:
    """A deterministic keyed stream with a watermark every 5th event."""
    events, ptime, wm_value = [], start, 0
    for i in range(n):
        ptime += 15_000
        if i % 5 == 4:
            wm_value += 2 * MINUTE
            events.append(wm(ptime, wm_value))
        else:
            events.append(
                ins(ptime, (i % 5, (i * 37_000) % (12 * MINUTE), i))
            )
    return events


def pool_queries(n: int) -> list[str]:
    """``n`` SQL texts cycling the pool, each with a unique alias."""
    return [POOL[i % len(POOL)].format(i=i) for i in range(n)]


def _service(share_plans: bool) -> StandingQueryService:
    svc = StandingQueryService(
        config=ExecutionConfig(share_plans=share_plans),
        default_policy=TenantPolicy(name="*", max_standing_queries=128),
    )
    svc.register_stream("S", TimeVaryingRelation(SCHEMA))
    return svc


def _run(n: int, events: list, share_plans: bool) -> tuple[dict, list]:
    """Admit ``n`` queries, ingest the stream, time the ingest loop."""
    svc = _service(share_plans)
    queries = [svc.submit("bench", sql) for sql in pool_queries(n)]
    # The service keeps no published history; a collecting subscriber
    # per query gathers each delta stream for the equivalence check.
    collectors = [
        svc.subscribe(q.query_id, "collector", capacity=1 << 30)
        for q in queries
    ]
    start = time.perf_counter()
    for event in events:
        svc.ingest(event, "S")
    elapsed = time.perf_counter() - start
    session = svc.session
    record = {
        "share_plans": share_plans,
        "queries": n,
        "seconds": elapsed,
        "events_per_second": len(events) / elapsed,
        "resident_operators": sum(
            r.flow.resident_operator_count() for r in session.plan_cache.records
        ),
        "shared_subplans": session.shared_subplans(),
        "sharing_ratio": session.sharing_ratio(),
    }
    deltas = [[d.change for d in c.take()] for c in collectors]
    return record, deltas


def collect() -> dict:
    events = make_events(NUM_EVENTS)
    sweep = []
    for n in QUERY_SWEEP:
        shared, shared_deltas = _run(n, events, share_plans=True)
        unshared, unshared_deltas = _run(n, events, share_plans=False)
        for i, (a, b) in enumerate(zip(shared_deltas, unshared_deltas)):
            assert a == b, (
                f"query {i}/{n}: shared delta stream diverged from unshared"
            )
        sweep.append(
            {
                "queries": n,
                "shared": shared,
                "unshared": unshared,
                "speedup": shared["events_per_second"]
                / unshared["events_per_second"],
            }
        )
    return {
        "schema_version": SCHEMA_VERSION,
        "events": NUM_EVENTS,
        "distinct_subplans": len(POOL),
        "sweep": sweep,
    }


def write_artifact(payload: dict) -> Path:
    ARTIFACT.write_text(json.dumps(payload, indent=2) + "\n")
    return ARTIFACT


def test_mqo_bench_produces_artifact():
    """The bench is also the gate: at 16 standing queries over 4
    distinct subplans, sharing must hold at least a 3x ingest-
    throughput advantage, the sharing ratio must reflect the 4-way
    multicast, and every delta stream must be byte-identical either
    way (asserted inside :func:`collect`)."""
    payload = collect()
    assert payload["schema_version"] == SCHEMA_VERSION
    (point,) = [p for p in payload["sweep"] if p["queries"] == GATE_POINT]
    assert point["speedup"] >= GATE_SPEEDUP, (
        f"sharing speedup at {GATE_POINT} queries only "
        f"{point['speedup']:.2f}x"
    )
    assert point["shared"]["sharing_ratio"] >= 2.0
    assert point["shared"]["resident_operators"] < (
        point["unshared"]["resident_operators"]
    )
    path = write_artifact(payload)
    assert path.exists() and path.stat().st_size > 0


if __name__ == "__main__":
    data = collect()
    path = write_artifact(data)
    for point in data["sweep"]:
        shared, unshared = point["shared"], point["unshared"]
        print(
            f"queries={point['queries']:>3}  "
            f"shared: {shared['events_per_second']:>9,.0f} ev/s "
            f"(ops={shared['resident_operators']}, "
            f"ratio={shared['sharing_ratio']:.2f})  "
            f"unshared: {unshared['events_per_second']:>9,.0f} ev/s "
            f"(ops={unshared['resident_operators']})  "
            f"speedup={point['speedup']:.2f}x"
        )
    print(f"wrote {path}")
