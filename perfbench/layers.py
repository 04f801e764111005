"""Turn a span trace into the per-layer metrics of ``BENCHMARK.json``.

Times on the data path are normalised per 1,000 events (or per event or
per delta for the service), set-up times per set-up, so that runs which
complete different amounts of work in their fixed duration compare.
Layers a workload never enters report 0.
"""

from __future__ import annotations

from common import OPERATOR_CLASSES, PER_LAYER
from tracing import inclusive_outermost, lane_busy, root_time, self_times


def _self(times: dict, *names: str) -> float:
    return sum(times.get(name, {}).get("self_s", 0.0) for name in names)


def _operators(out: dict, times: dict, counts: dict, kevents: float) -> None:
    rows_in = 0
    for cls in OPERATOR_CLASSES:
        name = f"exec.operators.{cls}"
        out[f"{name}.self_ms"] = _self(times, name) * 1000.0 / kevents
        for field in ("calls", "rows_in", "rows_out"):
            out[f"{name}.{field}"] = counts.get(f"{name}.{field}", 0) / kevents
        rows_in += counts.get(f"{name}.rows_in", 0)
    out["exec.operators.columnar_share"] = (
        counts.get("columnar_rows", 0) / rows_in if rows_in else 0.0
    )


def _common(trace: dict, times: dict, setup_times: dict, events: int, setups: int) -> dict:
    counts = trace["counts"]
    kevents = events / 1000.0
    out = {name: 0.0 for name in PER_LAYER}
    out["obs.metrics.observe_state_ms"] = _self(times, "obs.metrics.observe_state") * 1000.0 / kevents
    out["obs.metrics.observe_state_calls"] = counts.get("observe_state_calls", 0) / kevents
    _operators(out, times, counts, kevents)
    out["exec.executor.self_ms"] = _self(times, "exec.executor") * 1000.0 / kevents
    batches = counts.get("batches", 0)
    out["exec.executor.batches"] = batches / kevents
    out["exec.executor.rows_per_batch"] = counts.get("batch_rows", 0) / batches if batches else 0.0
    out["exec.state.peak_rows"] = trace["peak_state_rows"]
    out["engine.self_ms"] = _self(times, "engine.query", "engine.run") * 1000.0 / kevents
    for metric, span in (
        ("sql.parse_ms", "sql.parse"),
        ("plan.plan_ms", "plan.plan"),
        ("plan.physical_ms", "plan.physical"),
        ("exec.compile.build_ms", "exec.compile.build"),
        ("service.admission.admit_ms", "service.admission.admit"),
        ("service.session.register_ms", "service.session.register"),
    ):
        out[metric] = _self(setup_times, span) * 1000.0 / setups
    out["service.admission.plans_built"] = counts.get("plans_built", 0) / setups
    return out


def serve_layers(trace: dict, *, window: tuple[float, float], events: int,
                 queue_depth_max: int, evictions: int, sends: int, received_bytes: int,
                 meta: dict, events_per_s: float) -> dict:
    """Per-layer metrics of a traced serve run (see serve_bench.run).

    ``window`` is the measured part of the run; set-up metrics come from
    the spans before it (the set-up of the server that was measured).
    ``sends`` and ``received_bytes`` are counted at the driver.
    """
    events = max(1, events)
    times = self_times(trace, window)
    setup_times = self_times(trace, (0.0, window[0]))
    out = _common(trace, times, setup_times, events, 1)
    counts = trace["counts"]
    per_event = 1e6 / events
    deltas = counts.get("deltas_published", 0)
    out["service.subscriptions.publish_us"] = (
        _self(times, "service.subscriptions.publish") * 1e6 / deltas if deltas else 0.0
    )
    out["service.server.flush_us"] = _self(times, "service.server.flush") * per_event
    out["service.server.sends_per_event"] = sends / events
    out["service.server.bytes_per_event"] = received_bytes / events
    out["service.server.control_us"] = _self(times, "service.server.control") * per_event
    out["service.sources.decode_us"] = _self(times, "service.sources.decode") * per_event
    out["service.sources.read_us"] = _self(times, "service.sources.read", "service.sources.tail") * per_event
    out["service.sources.pump_us"] = _self(times, "service.sources.pump") * per_event
    out["service.sources.queue_depth_max"] = queue_depth_max
    out["service.session.ingest_us"] = _self(times, "service.session.ingest") * per_event
    out["service.session.flow_us"] = inclusive_outermost(trace, "exec.executor", window) * per_event
    out["service.loop.callbacks_us"] = _self(times, "service.loop.callbacks") * per_event
    span = window[1] - window[0]
    out["service.loop.idle_frac"] = times.get("service.loop.idle", {}).get("total_s", 0.0) / span
    out["service.subscriptions.evictions"] = evictions
    out["driver.send_lag_ms"] = meta["driver.send_lag_ms"]
    out["driver.busy_frac"] = meta["driver.busy_frac"]
    out["trace.coverage"] = root_time(trace, window) / span
    out["trace.events_per_s"] = events_per_s
    return out


def replay_layers(trace: dict, events: int, setups: int, wall_s: float,
                  run_s: float, cpu_s: float) -> dict:
    """Per-layer metrics of a traced replay run (see replay_bench.worker);
    the caller fills in ``trace.events_per_s``."""
    times = self_times(trace)
    out = _common(trace, times, times, events, setups)
    counts = trace["counts"]
    kevents = events / 1000.0
    for metric, span in (
        ("runtime.routing.partition_ms", "runtime.routing.partition"),
        ("runtime.backends.run_shards_ms", "runtime.backends.run_shards"),
        ("runtime.checkpoint_ms", "runtime.checkpoint"),
        ("runtime.restore_ms", "runtime.restore"),
        ("runtime.merge.merge_ms", "runtime.merge"),
        ("runtime.sharded.self_ms", "runtime.sharded"),
    ):
        out[metric] = _self(times, span) * 1000.0 / kevents
    busy = lane_busy(trace, "runtime.supervisor")
    out["runtime.supervisor.shard_busy_ms"] = max(busy) * 1000.0 / kevents if busy else 0.0
    out["runtime.state_transfer_bytes"] = counts.get("state_transfer_bytes", 0) / kevents
    out["runtime.merge.rows"] = counts.get("merge_rows", 0) / kevents
    total = counts.get("shard_rows_total", 0)
    shards = counts.get("shards", 0)
    out["runtime.shard_skew"] = (
        counts.get("shard_rows_max", 0) / (total / shards) if total and shards else 0.0
    )
    out["runtime.cpu_util"] = cpu_s / run_s if run_s else 0.0
    out["trace.coverage"] = root_time(trace) / wall_s
    return out
