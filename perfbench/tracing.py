"""Span tracing installed from outside the program, plus the self-time rollup.

:func:`install` wraps public functions of each layer of ``repro`` (and,
for the server, the asyncio event loop's callback and selector calls) so
every call records a span: name, start, end, parent span and the event
sequence number current when it opened.  Nothing under ``src/`` is
edited; the wrappers replace class attributes and module globals at run
time, in the process that is traced.

Spans live in memory (:class:`Tracer`) and are written out once, when
the run ends.  A span's *self time* is its duration minus the part of
it that its child spans cover.  Spans from forked shard workers travel
back to the parent on the shard's outcome object and join the parent's
trace in their own *lane* (one lane per shard), under the parent's
``runtime.backends.run_shards`` span.

asyncio tasks interleave, so a coroutine span may be suspended at an
``await``.  The event-loop wrapper closes the open spans of a task when
its step ends and reopens them when the task resumes, so every recorded
span lies inside one loop callback and self times never double count
time in which another task ran.
"""

from __future__ import annotations

import collections
import functools
import json
import os
import sys
from time import perf_counter
from typing import Callable, Iterable, Optional

#: asyncio task coroutine (qualified name) -> the layer its steps count as.
TASK_LAYERS = {
    "install.<locals>.traced_pump": "service.sources.pump",
    "serve_socket_lines.<locals>.handle": "service.sources.read",
    "tail_file": "service.sources.tail",
    "ServiceServer._handle": "service.server.control",
}

#: span fields, by position in a span record.
NAME, START, END, PARENT, SEQ, LANE = range(6)


class Tracer:
    """In-memory span store with a single open-span stack."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        #: span records ``[name_id, start, end, parent, seq, lane]``.
        self.spans: list[list] = []
        self.stack: list[int] = []
        #: the current event sequence number (the span id of the trace).
        self.seq = 0
        #: named counters recorded at the same boundaries as the spans.
        self.counts: collections.Counter = collections.Counter()
        #: asyncio task -> names of its spans suspended at an ``await``.
        self.suspended: dict[object, list[int]] = {}
        #: per flow (MetricsRegistry id) last observed state rows.
        self.state_rows: dict[int, int] = {}
        self.peak_state_rows = 0
        self.pid = os.getpid()

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def push(self, nid: int) -> None:
        # The span is appended before its index is pushed, so a signal
        # handler that dumps the trace never sees a dangling index.
        stack = self.stack
        spans = self.spans
        spans.append([nid, perf_counter(), 0.0, stack[-1] if stack else -1, self.seq, 0])
        stack.append(len(spans) - 1)

    def pop(self) -> None:
        self.spans[self.stack.pop()][END] = perf_counter()

    def close_open(self) -> None:
        """End every open span now (the run is being cut off)."""
        now = perf_counter()
        for span in self.spans:
            if span[END] == 0.0:
                span[END] = now
        self.stack = []

    def reset(self) -> None:
        """Start an empty trace (a forked worker, or after a warm-up)."""
        self.spans = []
        self.stack = []
        self.counts.clear()
        self.suspended = {}
        self.state_rows.clear()
        self.peak_state_rows = 0
        self.pid = os.getpid()

    def export(self) -> dict:
        return {
            "names": list(self.names),
            "spans": self.spans,
            "counts": dict(self.counts),
            "peak_state_rows": self.peak_state_rows,
        }

    def adopt(self, child: dict, parent: int, lane: int) -> None:
        """Append a worker's exported trace under span ``parent``."""
        remap = [self.name_id(name) for name in child["names"]]
        offset = len(self.spans)
        for nid, start, end, up, seq, _ in child["spans"]:
            self.spans.append([
                remap[nid], start, end,
                parent if up < 0 else up + offset, seq, lane,
            ])
        self.counts.update(child["counts"])
        self.peak_state_rows = max(self.peak_state_rows, child["peak_state_rows"])

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.export(), handle)


# -- wrapping helpers ---------------------------------------------------------


def _span(tracer: Tracer, name: str, fn: Callable) -> Callable:
    nid = tracer.name_id(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.push(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.pop()

    return wrapper


def _patch_method(cls, attr: str, make: Callable[[Callable], Callable]) -> None:
    setattr(cls, attr, make(cls.__dict__[attr]))


def _patch_global(module_names: Iterable[str], attr: str, replacement: Callable,
                  original: Callable) -> None:
    """Replace ``original`` wherever a loaded ``repro`` module imported it."""
    for name in module_names:
        module = sys.modules.get(name)
        if module is not None and getattr(module, attr, None) is original:
            setattr(module, attr, replacement)


def _repro_modules() -> list[str]:
    return [name for name in sys.modules if name == "repro" or name.startswith("repro.")]


# -- installation --------------------------------------------------------------


def install(tracer: Tracer, *, service: bool = False) -> None:
    """Wrap every traced layer of ``repro`` in this process.

    ``service`` also wraps asyncio's callback runner and the selector,
    which the standing-query server needs and replay does not; span ids
    are then ingested-event numbers instead of replayed-event numbers.
    """
    import repro.engine as engine_mod
    import repro.exec.compile as compile_mod
    import repro.exec.executor as executor_mod
    import repro.obs.metrics as metrics_mod
    import repro.plan.optimizer as optimizer_mod
    import repro.plan.physical as physical_mod
    import repro.plan.planner as planner_mod
    import repro.runtime.combine as combine_mod
    import repro.runtime.merge as merge_mod
    import repro.runtime.routing as routing_mod
    import repro.runtime.sharded as sharded_mod
    import repro.runtime.supervisor as supervisor_mod
    import repro.runtime.backends as backends_mod
    import repro.service.admission as admission_mod
    import repro.service.session as session_mod
    import repro.service.sources as sources_mod
    import repro.service.subscriptions as subs_mod
    import repro.io as io_mod
    import repro.sql.parser as parser_mod
    from repro.exec.operators.base import Operator

    modules = _repro_modules()
    counts = tracer.counts

    def patch_fn(module, attr: str, name: str) -> None:
        original = getattr(module, attr)
        _patch_global(modules, attr, _span(tracer, name, original), original)

    # Setup path: parse -> plan -> physical -> compile -> admission/registration.
    patch_fn(parser_mod, "parse", "sql.parse")
    patch_fn(optimizer_mod, "optimize", "plan.plan")
    patch_fn(physical_mod, "plan_physical", "plan.physical")
    patch_fn(compile_mod, "compile_plan", "exec.compile.build")
    patch_fn(compile_mod, "build_operator", "exec.compile.build")
    plan_nid = tracer.name_id("plan.plan")

    def count_plans(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts["plans_built"] += 1
            tracer.push(plan_nid)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.pop()
        return wrapper

    _patch_method(planner_mod.Planner, "plan", count_plans)
    _patch_method(engine_mod.StreamEngine, "query", lambda fn: _span(tracer, "engine.query", fn))
    _patch_method(engine_mod.PreparedQuery, "run", lambda fn: _span(tracer, "engine.run", fn))
    _patch_method(admission_mod.AdmissionGateway, "admit",
                  lambda fn: _span(tracer, "service.admission.admit", fn))
    _patch_method(session_mod.SessionManager, "register",
                  lambda fn: _span(tracer, "service.session.register", fn))

    # Executor: one span per delivery (a single event or a micro-batch).
    exec_nid = tracer.name_id("exec.executor")
    Dataflow = executor_mod.Dataflow
    RowEvent = executor_mod.RowEvent

    def traced_process(fn):
        @functools.wraps(fn)
        def wrapper(self, event, source):
            if not service:
                tracer.seq += 1
            counts["batches"] += 1
            if isinstance(event, RowEvent):
                counts["batch_rows"] += 1
            tracer.push(exec_nid)
            try:
                return fn(self, event, source)
            finally:
                tracer.pop()
        return wrapper

    def traced_process_batch(fn):
        @functools.wraps(fn)
        def wrapper(self, events, source):
            if len(events) > 1:
                if not service:
                    tracer.seq += len(events)
                counts["batches"] += 1
                counts["batch_rows"] += len(events)
            tracer.push(exec_nid)
            try:
                return fn(self, events, source)
            finally:
                tracer.pop()
        return wrapper

    _patch_method(Dataflow, "process", traced_process)
    _patch_method(Dataflow, "process_batch", traced_process_batch)
    _patch_method(Dataflow, "run", lambda fn: _span(tracer, "exec.executor", fn))
    _patch_method(Dataflow, "finish", lambda fn: _span(tracer, "exec.executor", fn))

    # Operators: per-class spans around every counted entry point.
    class_ids: dict[type, int] = {}

    def op_nid(op) -> int:
        cls = type(op)
        nid = class_ids.get(cls)
        if nid is None:
            short = cls.__name__
            if short.endswith("Operator"):
                short = short[: -len("Operator")]
            nid = class_ids[cls] = tracer.name_id("exec.operators." + short)
        return nid

    def traced_op(kind: str):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(self, *args):
                nid = op_nid(self)
                name = tracer.names[nid]
                if kind == "change":
                    rows_in = 1
                elif kind in ("batch", "cols"):
                    rows_in = len(args[1])
                else:
                    rows_in = 0
                nested = kind == "batch" and rows_in == 1
                tracer.push(nid)
                try:
                    out = fn(self, *args)
                finally:
                    tracer.pop()
                if not nested:
                    counts[name + ".calls"] += 1
                    counts[name + ".rows_in"] += rows_in
                    if kind == "cols":
                        counts["columnar_rows"] += rows_in
                    produced = out[0] if kind == "watermark" else out
                    counts[name + ".rows_out"] += len(produced) if produced else 0
                return out
            return wrapper
        return make

    for attr, kind in (
        ("process_change", "change"),
        ("process_batch", "batch"),
        ("process_cols", "cols"),
        ("process_watermark", "watermark"),
        ("process_timer", "timer"),
    ):
        _patch_method(Operator, attr, traced_op(kind))

    # The per-step state sweep, and the dataflow-wide state it reports.
    observe_nid = tracer.name_id("obs.metrics.observe_state")

    def traced_observe(fn):
        @functools.wraps(fn)
        def wrapper(self):
            counts["observe_state_calls"] += 1
            tracer.push(observe_nid)
            try:
                total = fn(self)
            finally:
                tracer.pop()
            rows = tracer.state_rows
            rows[id(self)] = total
            current = sum(rows.values())
            if current > tracer.peak_state_rows:
                tracer.peak_state_rows = current
            return total
        return wrapper

    _patch_method(metrics_mod.MetricsRegistry, "observe_state", traced_observe)

    # Sharded runtime: route, run shards (fork + pipes), supervise, merge.
    original_partition = routing_mod.partition_events
    partition_nid = tracer.name_id("runtime.routing.partition")

    def traced_partition(events, spec, shards):
        tracer.push(partition_nid)
        try:
            tasks = original_partition(events, spec, shards)
        finally:
            tracer.pop()
        rows = [sum(1 for _, event, _ in task if isinstance(event, RowEvent)) for task in tasks]
        counts["shard_rounds"] += 1
        counts["shard_rows_max"] += max(rows)
        counts["shard_rows_total"] += sum(rows)
        counts["shards"] = len(rows)
        return tasks

    _patch_global(modules, "partition_events", traced_partition, original_partition)

    original_run_shards = backends_mod.run_shards
    run_shards_nid = tracer.name_id("runtime.backends.run_shards")

    def traced_run_shards(workers, backend="threads"):
        tracer.push(run_shards_nid)
        parent = tracer.stack[-1]
        try:
            outcomes = original_run_shards(workers, backend)
        finally:
            tracer.pop()
        for lane, outcome in enumerate(outcomes, start=1):
            child = outcome.__dict__.pop("_perfbench_trace", None)
            if child is not None:
                tracer.adopt(child, parent, lane)
            if outcome.state is not None:
                counts["state_transfer_bytes"] += len(outcome.state)
        return outcomes

    _patch_global(modules, "run_shards", traced_run_shards, original_run_shards)

    supervisor_nid = tracer.name_id("runtime.supervisor")

    def traced_supervise(fn):
        @functools.wraps(fn)
        def wrapper(self):
            forked = os.getpid() != tracer.pid
            if forked:
                tracer.reset()
            tracer.push(supervisor_nid)
            try:
                outcome = fn(self)
            finally:
                tracer.pop()
            if forked:
                outcome._perfbench_trace = tracer.export()
            return outcome
        return wrapper

    _patch_method(supervisor_mod.ShardSupervisor, "run", traced_supervise)
    _patch_method(Dataflow, "checkpoint", lambda fn: _span(tracer, "runtime.checkpoint", fn))
    _patch_method(Dataflow, "restore", lambda fn: _span(tracer, "runtime.restore", fn))
    _patch_method(sharded_mod.ShardedDataflow, "run", lambda fn: _span(tracer, "runtime.sharded", fn))

    merge_nid = tracer.name_id("runtime.merge")

    def traced_merge(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.push(merge_nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.pop()
            if fn.__name__ in ("merge_tagged_changes", "feed"):
                counts["merge_rows"] += len(out)
            return out
        return wrapper

    for attr in ("merge_tagged_changes", "merge_tagged_slices", "dedup_by_seq",
                 "dedup_observations", "replay_frontier"):
        original = getattr(merge_mod, attr)
        _patch_global(modules, attr, traced_merge(original), original)
    _patch_method(combine_mod.CombineStage, "feed", traced_merge)
    _patch_method(combine_mod.CombineStage, "advance", traced_merge)

    # Service: ingest, publish, wire decode, and the pump's flush callback.
    _patch_method(session_mod.SessionManager, "ingest",
                  lambda fn: _span(tracer, "service.session.ingest", fn))
    publish_nid = tracer.name_id("service.subscriptions.publish")

    def traced_publish(fn):
        @functools.wraps(fn)
        def wrapper(self, changes):
            tracer.push(publish_nid)
            try:
                out = fn(self, changes)
            finally:
                tracer.pop()
            counts["deltas_published"] += len(out)
            return out
        return wrapper

    _patch_method(subs_mod.SubscriptionRegistry, "publish", traced_publish)
    _patch_method(io_mod.TailParser, "feed", lambda fn: _span(tracer, "service.sources.decode", fn))

    original_pump = sources_mod.pump
    flush_nid = tracer.name_id("service.server.flush")

    async def traced_pump(sources, ingest, *, on_ingest=None):
        def counted_ingest(event, name):
            tracer.seq += 1
            counts["events_ingested"] += 1
            return ingest(event, name)

        async def flush(name, event, result):
            tracer.push(flush_nid)
            try:
                await on_ingest(name, event, result)
            finally:
                tracer.pop()

        return await original_pump(
            sources, counted_ingest, on_ingest=flush if on_ingest is not None else None
        )

    _patch_global(modules, "pump", traced_pump, original_pump)
    if service:
        _install_event_loop(tracer)


def _install_event_loop(tracer: Tracer) -> None:
    """Span every event-loop callback and every wait in the selector."""
    import asyncio.events
    import selectors

    other_nid = tracer.name_id("service.loop.callbacks")
    idle_nid = tracer.name_id("service.loop.idle")
    task_ids: dict[str, int] = {}
    original_run = asyncio.events.Handle._run

    def run(handle):
        task = getattr(handle._callback, "__self__", None)
        nid = other_nid
        if isinstance(task, asyncio.Task):
            qualname = getattr(task.get_coro(), "__qualname__", "")
            nid = task_ids.get(qualname)
            if nid is None:
                nid = task_ids[qualname] = tracer.name_id(
                    TASK_LAYERS.get(qualname, "service.loop.callbacks")
                )
        stack = tracer.stack
        depth = len(stack)
        tracer.push(nid)
        for resumed in tracer.suspended.pop(task, ()):
            tracer.push(resumed)
        try:
            original_run(handle)
        finally:
            if len(stack) > depth + 1:
                # The task suspended inside open spans: close this step's
                # segment of each and reopen them when the task resumes.
                names = []
                while len(stack) > depth + 1:
                    names.append(tracer.spans[stack[-1]][NAME])
                    tracer.pop()
                names.reverse()
                tracer.suspended[task] = names
            tracer.pop()

    asyncio.events.Handle._run = run
    selector_cls = selectors.DefaultSelector
    original_select = selector_cls.select

    def select(self, timeout=None):
        tracer.push(idle_nid)
        try:
            return original_select(self, timeout)
        finally:
            tracer.pop()

    selector_cls.select = select


# -- rollup --------------------------------------------------------------------


def self_times(trace: dict, window: Optional[tuple[float, float]] = None) -> dict:
    """Per span name: total self seconds, total seconds and span count.

    Self time is the span's duration minus the union of the intervals
    its children cover (children in other lanes may overlap each other).
    With ``window``, only spans that start inside it are counted.
    """
    spans = trace["spans"]
    children: dict[int, list[int]] = collections.defaultdict(list)
    for index, span in enumerate(spans):
        if span[PARENT] >= 0:
            children[span[PARENT]].append(index)
    out: dict[str, list[float]] = {}
    for index, span in enumerate(spans):
        start, end = span[START], span[END]
        if window is not None and not (window[0] <= start < window[1]):
            continue
        covered = _covered(spans, children.get(index, ()))
        entry = out.setdefault(trace["names"][span[NAME]], [0.0, 0.0, 0])
        entry[0] += (end - start) - covered
        entry[1] += end - start
        entry[2] += 1
    return {name: {"self_s": v[0], "total_s": v[1], "count": v[2]} for name, v in out.items()}


def _covered(spans: list, indices: Iterable[int]) -> float:
    intervals = sorted((spans[i][START], spans[i][END]) for i in indices)
    covered = 0.0
    cur_start = cur_end = None
    for start, end in intervals:
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                covered += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        covered += cur_end - cur_start
    return covered


def root_time(trace: dict, window: Optional[tuple[float, float]] = None) -> float:
    """Seconds covered by main-lane root spans (those with no parent)."""
    total = 0.0
    for span in trace["spans"]:
        if span[PARENT] < 0 and span[LANE] == 0:
            if window is None or window[0] <= span[START] < window[1]:
                total += span[END] - span[START]
    return total


def lane_busy(trace: dict, name: str) -> list[float]:
    """Per lane: seconds inside spans called ``name`` (e.g. per shard)."""
    nid = trace["names"].index(name) if name in trace["names"] else -1
    busy: dict[int, float] = collections.defaultdict(float)
    for span in trace["spans"]:
        if span[NAME] == nid:
            busy[span[LANE]] += span[END] - span[START]
    return [busy[lane] for lane in sorted(busy)]


def inclusive_outermost(trace: dict, name: str,
                        window: Optional[tuple[float, float]] = None) -> float:
    """Seconds inside ``name`` spans, counting nested same-name spans once."""
    names = trace["names"]
    if name not in names:
        return 0.0
    nid = names.index(name)
    spans = trace["spans"]
    total = 0.0
    for span in spans:
        if span[NAME] != nid:
            continue
        parent = span[PARENT]
        if parent >= 0 and spans[parent][NAME] == nid:
            continue
        if window is None or window[0] <= span[START] < window[1]:
            total += span[END] - span[START]
    return total
