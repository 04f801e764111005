"""Push-based dataflow execution over time-varying relations.

:class:`Dataflow` compiles a :class:`~repro.plan.planner.QueryPlan`,
binds its scans to registered source TVRs, and replays the sources'
stream events in processing-time order through the operator graph.  The
result is each output's changelog plus its watermark track — i.e. the
output *as a time-varying relation*, from which the materializers in
:mod:`repro.exec.materialize` derive every table/stream rendering the
paper describes.

A dataflow starts as a tree (one output, one consumer per operator)
but is a DAG underneath: :meth:`Dataflow.attach_output` grafts a second
query's plan onto any resident subplan with a matching canonical
fingerprint (see :mod:`repro.plan.fingerprint`), multicasting the
shared operator's changelog to every consuming edge while each query
keeps its own downstream operators and its own output channel.
Operators are ref-counted per consuming output, so withdrawing one
sharing query (:meth:`remove_output`) never tears down state a
survivor still reads.

Determinism: events are processed in (ptime, source registration
order, arrival order) order, and a source consumed by several scans
(e.g. ``Bid`` appearing twice in NEXMark Q7) delivers to the scans in
plan (left-to-right) order; a *shared* operator delivers to its
consumer edges in attach order, which reproduces the same interleaving
per output.  This makes changelog outputs — including the intra-instant
ordering visible in Listing 9 — reproducible, and byte-identical with
sharing on or off.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Sequence

from ..core.changelog import Change, compact_intra_instant
from ..core.colbatch import ColumnarBatch
from ..core.errors import ExecutionError
from ..core.relation import Relation
from ..core.schema import Schema
from ..core.times import MAX_TIMESTAMP, MIN_TIMESTAMP, Timestamp
from ..core.tvr import RowEvent, StreamEvent, TimeVaryingRelation, WatermarkEvent
from ..core.watermark import WatermarkTrack
from ..obs.lineage import LineageRecorder
from ..obs.metrics import MetricsRegistry, MetricsReport
from ..obs.telemetry import RunTelemetry
from ..obs.trace import TraceEvent
from ..plan.fingerprint import node_fingerprints, subtree_size
from ..plan.logical import LogicalNode, ValuesNode
from ..plan.pipeline import get_fused_root
from ..plan.planner import QueryPlan
from .compile import build_operator, compile_plan
from .operators.base import Operator
from .operators.stateless import ScanOperator

__all__ = ["Dataflow", "OutputChannel", "RunResult", "columnar_active",
           "iter_event_runs", "merge_source_events"]


def columnar_active(batch_size: int) -> bool:
    """Whether a flow moves its micro-batches as column vectors.

    Columnar execution is not a setting: it follows ``batch_size``.  A
    batching flow (``batch_size > 1``) fuses Filter/Project chains into
    generated pipelines and hands each batch to columnar-capable
    operators as a :class:`~repro.core.colbatch.ColumnarBatch`; a
    per-change flow keeps the unfused row operators, the byte-identity
    reference every batched run is checked against.  EXPLAIN reads
    this same function, so the plan it shows is the plan that runs.
    """
    return batch_size > 1


def merge_source_events(
    sources: dict[str, TimeVaryingRelation],
    until: Optional[Timestamp] = None,
) -> list[tuple[StreamEvent, str]]:
    """All source events merged in deterministic processing-time order.

    Events are ordered by (ptime, source registration order, arrival
    order) — the exact replay order the serial executor uses.  The
    sharded runtime routes the *same* sequence through its shards, which
    is what lets its merged output reproduce the serial changelog
    byte for byte.

    Each source's events are already ptime-ordered (the ``until``
    cutoff has always relied on that), so concatenating the per-source
    lists in registration order and stable-sorting by ptime alone
    yields exactly the (ptime, source order, arrival order) sequence: a
    stable sort keeps the concatenation order among equal ptimes.
    Timsort's galloping mode makes that sort nearly linear over k
    already-sorted runs, and it runs entirely in C — measurably faster
    here than a Python-level k-way heap merge.
    """
    merged: list[tuple[StreamEvent, str]] = []
    append = merged.append
    for name, tvr in sources.items():
        for event in tvr.events():
            if until is not None and event.ptime > until:
                break
            append((event, name))
    merged.sort(key=_event_ptime)
    return merged


def _event_ptime(pair: tuple[StreamEvent, str]) -> Timestamp:
    return pair[0].ptime


def iter_event_runs(
    events: list[tuple[StreamEvent, str]],
    batch_size: int,
    batchable_source: Callable[[str], bool],
) -> Iterator[tuple[int, int]]:
    """Yield ``(start, end)`` slices of a replay stream forming micro-batches.

    A run may only contain consecutive row events with the same ptime
    and the same source, capped at ``batch_size``, and only for sources
    ``batchable_source`` admits (those feeding exactly one scan leaf; a
    multi-scan source delivers each event to all its scans before the
    next event, so batching would reorder the interleaving).  Watermark
    events always break runs, so no operator ever sees its input
    watermark move inside a batch.  Shared by :meth:`Dataflow.run` and
    the shell's ``\\watch`` replay loop.
    """
    i, n = 0, len(events)
    while i < n:
        event, source = events[i]
        j = i + 1
        if isinstance(event, RowEvent) and batchable_source(source):
            ptime = event.ptime
            while (
                j < n
                and j - i < batch_size
                and events[j][1] == source
                and isinstance(events[j][0], RowEvent)
                and events[j][0].ptime == ptime
            ):
                j += 1
        yield i, j
        i = j


@dataclass
class RunResult:
    """The output TVR of a dataflow run, plus runtime statistics.

    ``late_dropped``/``expired_rows``/``peak_state_rows`` are the
    headline totals; ``metrics`` is the full per-operator
    :class:`~repro.obs.metrics.MetricsReport` behind them (rows in/out,
    retractions, state peaks, watermark lag — and, for sharded runs,
    per-shard breakdowns with routing skew).
    """

    schema: Schema
    changes: list[Change]
    watermarks: WatermarkTrack
    last_ptime: Timestamp
    late_dropped: int = 0
    expired_rows: int = 0
    peak_state_rows: int = 0
    metrics: Optional[MetricsReport] = None

    def snapshot(self, at: Timestamp = MAX_TIMESTAMP) -> Relation:
        """Table rendering of the result at processing time ``at``."""
        from ..core.changelog import Changelog

        log = Changelog()
        for change in self.changes:
            if change.ptime <= at:
                log.append(change)
            else:
                break
        return log.snapshot_at(self.schema, at)


class OutputChannel:
    """One query's view of a (possibly shared) dataflow.

    Holds everything that is *per consuming query* rather than per
    physical operator: the root changelog, the output watermark track,
    the latency telemetry, and the plan whose completion columns drive
    it.  The physical operators below ``root`` may be shared with other
    channels of the same :class:`Dataflow`.
    """

    __slots__ = (
        "output_id", "plan", "root", "root_name", "completion",
        "changes", "watermarks", "telemetry",
    )

    def __init__(self, output_id: str, plan: QueryPlan, root: Operator):
        self.output_id = output_id
        self.plan = plan
        self.root = root
        self.root_name = root.name()
        self.completion = plan.root.completion_indices
        self.changes: list[Change] = []
        self.watermarks = WatermarkTrack()
        self.telemetry = RunTelemetry()


class Dataflow:
    """A compiled, source-bound, runnable query (or DAG of queries)."""

    def __init__(
        self,
        plan: QueryPlan,
        sources: dict[str, TimeVaryingRelation],
        allowed_lateness: int = 0,
        batch_size: int = 1,
        coalesce_updates: bool = False,
        output_id: str = "main",
    ):
        if batch_size < 1:
            raise ExecutionError("batch_size must be >= 1")
        self.plan = plan
        #: maximum row events delivered per micro-batch; 1 = per-change.
        self.batch_size = batch_size
        #: whether intra-instant insert/retract churn is compacted.
        self.coalesce_updates = coalesce_updates
        self._columnar_active = columnar_active(batch_size)
        self._allowed_lateness = allowed_lateness
        self._sources: dict[str, TimeVaryingRelation] = {
            name.lower(): tvr for name, tvr in sources.items()
        }
        self._init_graph()
        root_node = self._exec_root(plan)
        compiled = compile_plan(root_node, allowed_lateness=allowed_lateness)
        self._operators = list(compiled.operators)
        for op in self._operators:
            entry = compiled.parents.get(id(op))
            if entry is not None:
                parent, port = entry
                self._consumers.setdefault(id(op), []).append((parent, port))
                self._producers.setdefault(id(parent), []).append((port, op))
            op.bind_timers(self._schedule_timer)
        self._values_rows = dict(compiled.values_rows)
        for leaf in compiled.leaves:
            self._register_leaf(leaf)
        fps = node_fingerprints(root_node)
        #: id(logical node) -> operator, for the plan this flow was
        #: compiled from — the correlation donor transplants rely on.
        self._plan_node_ops = {
            id(node): op for node, op in compiled.node_ops
        }
        for node, op in compiled.node_ops:
            self._op_fps[id(op)] = fps[id(node)]
            # First registration wins; a plan scanning one source twice
            # (NEXMark Q7) keeps both operators — sharing only dedups
            # across attach boundaries, never inside one plan.
            self._fp_index.setdefault(fps[id(node)], op)
        channel = OutputChannel(output_id, plan, compiled.root)
        self._outputs: dict[str, OutputChannel] = {output_id: channel}
        self._primary = output_id
        self._outputs_of = {id(compiled.root): [channel]}
        self._op_refs = {id(op): 1 for op in self._operators}
        self.metrics_registry = MetricsRegistry(self._operators)

    def _init_graph(self) -> None:
        """The per-instance graph/bookkeeping slots shared by both
        construction paths (:meth:`__init__` and :meth:`from_structure`)."""
        self._operators: list[Operator] = []
        #: id(op) -> [(consumer op, input port)], in attach order
        self._consumers: dict[int, list[tuple[Operator, int]]] = {}
        #: id(op) -> [(input port, producer op)]
        self._producers: dict[int, list[tuple[int, Operator]]] = {}
        #: id(op) -> number of output channels reading through it
        self._op_refs: dict[int, int] = {}
        #: id(op) -> canonical fingerprint of its logical subtree
        self._op_fps: dict[int, str] = {}
        #: fingerprint -> resident operator (first registered wins)
        self._fp_index: dict[str, Operator] = {}
        self._leaves: list[ScanOperator] = []
        self._leaves_by_source: dict[str, list[ScanOperator]] = {}
        self._values_rows: dict[int, tuple] = {}
        self._last_ptime: Timestamp = MIN_TIMESTAMP
        self._peak_state = 0
        self._opened = False
        #: optional trace hook: a callable receiving
        #: :class:`~repro.obs.trace.TraceEvent` on every primary-output
        #: change batch and watermark advance.
        self.trace: Optional[Callable[[TraceEvent], None]] = None
        #: optional lineage recorder (see :mod:`repro.obs.lineage`);
        #: install via :meth:`set_lineage`.  Tracing threads a *cause*
        #: token alongside batches and never touches the changes
        #: themselves, so the changelog is byte-identical either way.
        self.lineage: Optional[LineageRecorder] = None
        self._lineage_shard: Optional[int] = None
        self._lineage_register_outputs = True
        # processing-time timer service: (deadline, seq, operator)
        self._timers: list[tuple[Timestamp, int, Operator]] = []
        self._timer_seq = 0

    def _exec_root(self, plan: QueryPlan) -> LogicalNode:
        """The logical root this flow actually compiles for ``plan``.

        In a batching flow adjacent Filter/Project chains are fused into
        :class:`~repro.plan.pipeline.PipelineNode` steps first; the
        fused tree is memoized per plan object so every correlation
        keyed by node identity (donor transplants, checkpoint recipes,
        sharded shard-plan sharing) sees the same objects.
        """
        if self._columnar_active:
            return get_fused_root(plan)
        return plan.root

    def _register_leaf(self, leaf: ScanOperator) -> None:
        key = leaf.source_name.lower()
        self._leaves.append(leaf)
        self._leaves_by_source.setdefault(key, []).append(leaf)
        if not key.startswith("$values") and key not in self._sources:
            raise ExecutionError(f"no source registered for {leaf.source_name!r}")

    # -- public API -----------------------------------------------------------

    @property
    def operators(self) -> list[Operator]:
        return list(self._operators)

    @property
    def telemetry(self) -> RunTelemetry:
        """Latency telemetry sampled at the primary output's root."""
        return self._outputs[self._primary].telemetry

    def telemetry_of(self, output_id: str) -> RunTelemetry:
        """Latency telemetry sampled at one output channel's root."""
        return self._outputs[output_id].telemetry

    def set_lineage(
        self,
        recorder: Optional[LineageRecorder],
        shard: Optional[int] = None,
        register_outputs: bool = True,
    ) -> None:
        """Install (or remove) a lineage recorder on this flow.

        ``shard`` tags recorded operator nodes with a shard index; a
        shard flow of a :class:`~repro.runtime.sharded.ShardedDataflow`
        passes ``register_outputs=False`` because its local changelog
        positions differ from the merged ones — the parent assigns the
        merged positions via the recorder's shard notes.
        """
        self.lineage = recorder
        self._lineage_shard = shard
        self._lineage_register_outputs = register_outputs

    @property
    def output_size(self) -> int:
        """Primary-output changes produced so far (a resumable cursor)."""
        return len(self._outputs[self._primary].changes)

    def output_slice(self, start: int) -> list[Change]:
        """Primary-output changes produced since cursor position ``start``.

        Together with :attr:`output_size` this lets a driver attribute
        output changes to the input event that caused them — the hook
        the sharded runtime's deterministic merge stage is built on.
        """
        return self._outputs[self._primary].changes[start:]

    @property
    def root_watermark(self) -> Timestamp:
        """The current output watermark of the primary output's root."""
        return self._outputs[self._primary].watermarks.current

    def output_ids(self) -> list[str]:
        """The attached output channels, in attach order."""
        return list(self._outputs)

    def output_size_of(self, output_id: str) -> int:
        return len(self._outputs[output_id].changes)

    def output_slice_of(self, output_id: str, start: int = 0) -> list[Change]:
        return self._outputs[output_id].changes[start:]

    def root_watermark_of(self, output_id: str) -> Timestamp:
        return self._outputs[output_id].watermarks.current

    def total_state_rows(self) -> int:
        """Rows currently retained across all operator state."""
        return sum(op.state_size() for op in self._operators)

    def state_rows_of(self, output_id: str) -> int:
        """Rows retained by the operators ``output_id`` reads through.

        Shared operators count toward *every* consuming output — the
        conservative attribution tenant quotas want.
        """
        channel = self._outputs[output_id]
        return sum(op.state_size() for op in self._reachable_ops(channel.root))

    def rows_ingested(self) -> int:
        """Rows delivered to this dataflow's scan leaves so far.

        On a shard this is exactly the rows the hash router assigned to
        it — the per-shard skew signal the dashboard and the merged
        metrics report display.
        """
        return sum(sum(leaf.counters.rows_in) for leaf in self._leaves)

    def state_report(self):
        """Per-operator state breakdown (the Section 5 feedback lesson)."""
        from .state import collect_state

        return collect_state(self)

    # -- multi-query sharing ------------------------------------------------------

    def plan_overlap(self, plan: QueryPlan) -> int:
        """How many of ``plan``'s logical nodes resident subplans cover.

        The session's :class:`~repro.service.session.SharedPlanCache`
        uses this to pick the best host flow for a new standing query.
        """
        root_node = self._exec_root(plan)
        fps = node_fingerprints(root_node)
        covered = 0

        def walk(node: LogicalNode) -> None:
            nonlocal covered
            if fps[id(node)] in self._fp_index:
                covered += subtree_size(node)
                return
            for child in node.inputs:
                walk(child)

        walk(root_node)
        return covered

    def shared_by(self, op: Operator) -> int:
        """Output channels currently reading through ``op``."""
        return self._op_refs.get(id(op), 0)

    def shared_operator_count(self) -> int:
        """Resident operators read by two or more output channels."""
        return sum(
            1 for op in self._operators if self._op_refs.get(id(op), 0) >= 2
        )

    def attached_operator_count(self) -> int:
        """Total operators summed per output (the sharing-ratio numerator)."""
        return sum(
            len(self._reachable_ops(channel.root))
            for channel in self._outputs.values()
        )

    def resident_operator_count(self) -> int:
        """Physical operators resident (the sharing-ratio denominator)."""
        return len(self._operators)

    def sharing_map(self) -> dict[str, list[int]]:
        """Per output, the operator-list indices its plan resolves to.

        Post-order per output; the structural recipe a checkpoint
        manifest records and :meth:`from_structure` rebuilds from.
        """
        op_index = {id(op): i for i, op in enumerate(self._operators)}
        return {
            output_id: [op_index[id(op)] for op in self._channel_node_ops(ch)]
            for output_id, ch in self._outputs.items()
        }

    def attach_output(
        self,
        output_id: str,
        plan: QueryPlan,
        donor: Optional["Dataflow"] = None,
        allow_root_share: bool = True,
    ) -> OutputChannel:
        """Graft ``plan`` onto this dataflow as a new output channel.

        Every subtree of ``plan`` whose canonical fingerprint matches a
        resident operator reuses that operator; the remaining (private)
        suffix is built fresh — from ``donor`` when given, a throwaway
        dataflow compiled from the *same* ``plan`` object that has
        already replayed the sources' history.  Transplanting the
        donor's private operators (with their state, pending timers,
        and output history) is what lets a late-arriving query catch up
        to the host flow's position without replaying through shared
        state.  The donor's own copies of the shared prefix are simply
        discarded: by determinism their state equals the resident one.

        ``allow_root_share=False`` blocks sharing at the root node only
        (used when two plans agree structurally but differ in EMIT
        clause, so their changelogs coincide but their materialization
        does not).
        """
        if output_id in self._outputs:
            raise ExecutionError(f"output {output_id!r} is already attached")
        if donor is not None:
            if donor._opened and not self._opened:
                raise ExecutionError(
                    "cannot transplant from an opened donor into an "
                    "unopened dataflow"
                )
            if self._opened:
                donor._open()
        root_node = self._exec_root(plan)
        fps = node_fingerprints(root_node)
        # Matching consults a snapshot of the index: a plan must never
        # dedup against itself (see the Q7 note in __init__).
        index = dict(self._fp_index)
        new_ops: list[Operator] = []

        def build(node: LogicalNode) -> Operator:
            fp = fps[id(node)]
            resident = index.get(fp)
            if resident is not None and (
                allow_root_share or node is not root_node
            ):
                return resident
            children = [build(child) for child in node.inputs]
            if donor is not None:
                op = donor._plan_node_ops[id(node)]
            else:
                op = build_operator(node, children, self._allowed_lateness)
            for port, child in enumerate(children):
                self._consumers.setdefault(id(child), []).append((op, port))
                self._producers.setdefault(id(op), []).append((port, child))
            self._operators.append(op)
            self._op_fps[id(op)] = fp
            self._fp_index.setdefault(fp, op)
            if isinstance(op, ScanOperator):
                self._register_leaf(op)
            if isinstance(node, ValuesNode):
                self._values_rows[id(op)] = node.rows
            op.bind_timers(self._schedule_timer)
            new_ops.append(op)
            return op

        root_op = build(root_node)
        for op in self._reachable_ops(root_op):
            self._op_refs[id(op)] = self._op_refs.get(id(op), 0) + 1
        channel = OutputChannel(output_id, plan, root_op)
        self._outputs[output_id] = channel
        self._outputs_of.setdefault(id(root_op), []).append(channel)
        self.metrics_registry = MetricsRegistry(self._operators)
        if donor is not None:
            donor_primary = donor._outputs[donor._primary]
            channel.changes = list(donor_primary.changes)
            channel.watermarks = donor_primary.watermarks
            channel.telemetry = donor_primary.telemetry
            new_ids = {id(op) for op in new_ops}
            for when, _, op in sorted(
                donor._timers, key=lambda item: (item[0], item[1])
            ):
                if id(op) in new_ids:
                    self._schedule_timer(when, op)
            self._last_ptime = max(self._last_ptime, donor._last_ptime)
            self._peak_state = max(self._peak_state, donor._peak_state)
        return channel

    def remove_output(self, output_id: str) -> bool:
        """Detach an output channel, tearing down *only* unshared operators.

        Each operator the channel read through loses one reference;
        operators still referenced by a surviving output keep their
        state, timers, and position untouched (the ref-count invariant
        the withdrawal bugfix pins).
        """
        channel = self._outputs.pop(output_id, None)
        if channel is None:
            return False
        siblings = self._outputs_of.get(id(channel.root))
        if siblings is not None:
            siblings.remove(channel)
            if not siblings:
                del self._outputs_of[id(channel.root)]
        for op in self._reachable_ops(channel.root):
            self._op_refs[id(op)] -= 1
        dead = {
            id(op)
            for op in self._operators
            if self._op_refs.get(id(op), 0) <= 0
        }
        if dead:
            self._operators = [
                op for op in self._operators if id(op) not in dead
            ]
            self._leaves = [
                leaf for leaf in self._leaves if id(leaf) not in dead
            ]
            for key in list(self._leaves_by_source):
                kept = [
                    leaf
                    for leaf in self._leaves_by_source[key]
                    if id(leaf) not in dead
                ]
                if kept:
                    self._leaves_by_source[key] = kept
                else:
                    del self._leaves_by_source[key]
            for op_id in dead:
                self._op_refs.pop(op_id, None)
                self._op_fps.pop(op_id, None)
                self._producers.pop(op_id, None)
                self._consumers.pop(op_id, None)
                self._values_rows.pop(op_id, None)
            for op_id, edges in list(self._consumers.items()):
                self._consumers[op_id] = [
                    (consumer, port)
                    for consumer, port in edges
                    if id(consumer) not in dead
                ]
            self._fp_index = {}
            for op in self._operators:
                self._fp_index.setdefault(self._op_fps[id(op)], op)
            self._timers = [
                entry for entry in self._timers if id(entry[2]) not in dead
            ]
            heapq.heapify(self._timers)
            self.metrics_registry = MetricsRegistry(self._operators)
        return True

    @classmethod
    def from_structure(
        cls,
        plans: Sequence[tuple[str, QueryPlan]],
        structure: dict,
        sources: dict[str, TimeVaryingRelation],
        allowed_lateness: int = 0,
        batch_size: int = 1,
        coalesce_updates: bool = False,
    ) -> "Dataflow":
        """Rebuild the exact physical sharing structure of a checkpoint.

        ``structure`` is a checkpoint payload (or the structural subset
        of one): ``op_types`` fixes the operator-list length and order,
        and each output's ``node_ops`` says which operator index every
        plan node resolved to when the checkpoint was cut.  Re-running
        fingerprint matching could legally produce a *different*
        physical sharing (withdrawals reorder the residency index), and
        then the checkpointed operator states would not line up; the
        recipe makes restore structure-exact.  Call :meth:`restore`
        with the full checkpoint afterwards to fill the states.
        """
        if batch_size < 1:
            raise ExecutionError("batch_size must be >= 1")
        if [oid for oid, _ in plans] != list(structure["output_order"]):
            raise ExecutionError(
                "checkpoint outputs do not match the plans being restored"
            )
        self = object.__new__(cls)
        self.batch_size = batch_size
        self.coalesce_updates = coalesce_updates
        self._columnar_active = columnar_active(batch_size)
        self._allowed_lateness = allowed_lateness
        self._sources = {name.lower(): tvr for name, tvr in sources.items()}
        self._init_graph()
        slots: list[Optional[Operator]] = [None] * len(structure["op_types"])
        self._operators = slots  # filled in place below
        self._outputs = {}
        self._outputs_of = {}
        self._plan_node_ops = {}
        for output_id, plan in plans:
            node_ops = structure["outputs"][output_id]["node_ops"]
            root_node = self._exec_root(plan)
            fps = node_fingerprints(root_node)
            pos = 0

            def build(node: LogicalNode) -> Operator:
                nonlocal pos
                children = [build(child) for child in node.inputs]
                index = node_ops[pos]
                pos += 1
                op = slots[index]
                if op is None:
                    op = build_operator(
                        node, children, self._allowed_lateness
                    )
                    slots[index] = op
                    for port, child in enumerate(children):
                        self._consumers.setdefault(id(child), []).append(
                            (op, port)
                        )
                        self._producers.setdefault(id(op), []).append(
                            (port, child)
                        )
                    self._op_fps[id(op)] = fps[id(node)]
                    self._fp_index.setdefault(fps[id(node)], op)
                    if isinstance(op, ScanOperator):
                        self._register_leaf(op)
                    if isinstance(node, ValuesNode):
                        self._values_rows[id(op)] = node.rows
                    op.bind_timers(self._schedule_timer)
                return op

            root_op = build(root_node)
            channel = OutputChannel(output_id, plan, root_op)
            self._outputs[output_id] = channel
            self._outputs_of.setdefault(id(root_op), []).append(channel)
            for op in self._reachable_ops(root_op):
                self._op_refs[id(op)] = self._op_refs.get(id(op), 0) + 1
        if any(op is None for op in slots):
            raise ExecutionError(
                "checkpoint structure references operators no output builds"
            )
        self._primary, self.plan = plans[0][0], plans[0][1]
        self.metrics_registry = MetricsRegistry(self._operators)
        return self

    # -- checkpoint / recovery ---------------------------------------------------

    def checkpoint(self) -> bytes:
        """A consistent snapshot of the whole dataflow, as bytes.

        This is the capability Appendix B.2.1 describes for Flink:
        "Flink periodically writes a consistent checkpoint of the
        application state … For recovery, the application is restarted
        and all operators are initialized with the state of the last
        completed checkpoint."  Feed the remaining source events to the
        restored dataflow and the results are identical to an
        uninterrupted run (see ``tests/test_checkpoint.py``).

        Shared operator state is snapshotted once (the operator list
        holds each physical operator exactly once, however many outputs
        read it), and per-output ``node_ops`` recipes record the
        sharing structure for :meth:`from_structure`.

        Call between events (the incremental ``process`` API), not from
        inside a callback.
        """
        import pickle

        op_index = {id(op): i for i, op in enumerate(self._operators)}
        payload = {
            "op_states": [op.state_snapshot() for op in self._operators],
            "op_types": [type(op).__name__ for op in self._operators],
            "output_order": list(self._outputs),
            "outputs": {
                output_id: {
                    "changes": list(channel.changes),
                    "wm_pairs": channel.watermarks.as_pairs(),
                    "telemetry": channel.telemetry.snapshot(),
                    "node_ops": [
                        op_index[id(op)]
                        for op in self._channel_node_ops(channel)
                    ],
                }
                for output_id, channel in self._outputs.items()
            },
            "last_ptime": self._last_ptime,
            "peak_state": self._peak_state,
            "opened": self._opened,
            "timers": [
                (when, seq, op_index[id(op)])
                for when, seq, op in self._timers
            ],
            "timer_seq": self._timer_seq,
            # Shard flows don't own the recorder (the sharded parent
            # snapshots it once); only the owning flow persists it.
            "lineage": (
                self.lineage.snapshot()
                if self.lineage is not None and self._lineage_register_outputs
                else None
            ),
        }
        return pickle.dumps(payload)

    def restore(self, checkpoint: bytes) -> None:
        """Restore a checkpoint taken from a dataflow of the same structure."""
        import pickle

        payload = pickle.loads(checkpoint)
        operators = self._operators
        if payload["op_types"] != [type(op).__name__ for op in operators]:
            raise ExecutionError(
                "checkpoint does not match this dataflow's plan"
            )
        if set(payload["output_order"]) != set(self._outputs):
            raise ExecutionError(
                "checkpoint does not match this dataflow's outputs"
            )
        for op, snapshot in zip(operators, payload["op_states"]):
            op.state_restore(snapshot)
        for output_id, stored in payload["outputs"].items():
            channel = self._outputs[output_id]
            channel.changes = list(stored["changes"])
            channel.watermarks = WatermarkTrack()
            for ptime, value in stored["wm_pairs"]:
                channel.watermarks.advance(ptime, value)
            channel.telemetry = RunTelemetry()
            channel.telemetry.restore(stored["telemetry"])
        self._last_ptime = payload["last_ptime"]
        self._peak_state = payload["peak_state"]
        self._opened = payload["opened"]
        self._timers = [
            (when, seq, operators[i]) for when, seq, i in payload["timers"]
        ]
        heapq.heapify(self._timers)
        self._timer_seq = payload["timer_seq"]
        if payload["lineage"] is not None:
            self.set_lineage(LineageRecorder.restore(payload["lineage"]))

    def run(self, until: Optional[Timestamp] = None) -> RunResult:
        """Replay all source events (up to ``until``) and collect the result.

        With ``batch_size > 1`` the replay stream is grouped into
        micro-batches — maximal runs of row events that share one
        processing-time instant and one (single-scan) source, capped at
        ``batch_size`` and broken at watermark events — and each batch
        is delivered through the operator tree in one pass.  The
        grouping rule makes the batched changelog byte-identical to the
        per-change one (see :meth:`process_batch`).

        After the last event, pending processing-time timers (e.g.
        tail-of-stream expirations) are drained so the returned
        changelog covers the relation's full known future evolution;
        the materializers then truncate to the instant being queried.
        """
        self._open()
        events = self._merged_events(until)
        if self.batch_size <= 1:
            for event, source in events:
                self.process(event, source)
        else:
            self._run_batched(events)
        self._fire_timers(until if until is not None else MAX_TIMESTAMP)
        return self.result()

    def _run_batched(self, events: list[tuple[StreamEvent, str]]) -> None:
        """The batching scheduler: deliver the replay stream in runs.

        Same grouping rule as :func:`iter_event_runs` (one ptime, one
        batchable source, capped at ``batch_size``, broken at watermark
        events), inlined with the per-source batchability memoized —
        the generator protocol and the repeated leaf lookups are
        measurable at batch-scheduling rates.
        """
        batchable: dict[str, bool] = {}
        zero_leaf: dict[str, bool] = {}
        batch_size = self.batch_size
        process = self.process
        process_batch = self.process_batch
        clock_only = self.lineage is None
        i, n = 0, len(events)
        while i < n:
            event, source = events[i]
            j = i + 1
            ok = batchable.get(source)
            if ok is None:
                ok = batchable[source] = self.batchable_source(source)
                zero_leaf[source] = not self._leaves_by_source.get(
                    source.lower()
                )
            run = None
            if ok and isinstance(event, RowEvent):
                ptime = event.ptime
                run = [event]
                run_append = run.append
                while j < n and len(run) < batch_size:
                    nxt, nxt_source = events[j]
                    if nxt.ptime != ptime:
                        break
                    if nxt_source == source:
                        if not isinstance(nxt, RowEvent):
                            break
                        run_append(nxt)
                        j += 1
                        continue
                    # An event of another source no scan consumes is a
                    # clock no-op at this very instant (nothing to
                    # deliver, no clock movement, no timer can be due
                    # mid-instant) — absorb it so one interleaved
                    # burst still forms one batch.  Only when no
                    # lineage recorder is claiming per-event ordinals.
                    okz = zero_leaf.get(nxt_source)
                    if okz is None:
                        batchable[nxt_source] = self.batchable_source(
                            nxt_source
                        )
                        okz = zero_leaf[nxt_source] = (
                            not self._leaves_by_source.get(nxt_source.lower())
                        )
                    if clock_only and okz:
                        j += 1
                        continue
                    break
            if run is None or len(run) == 1:
                # An event no scan consumes, with no timer due and no
                # lineage recorder claiming ordinals, only advances the
                # processing-time clock — the full delivery path would
                # do exactly that and nothing else.  (The replay stream
                # is ptime-sorted, so the ordering check can't fire.)
                timers = self._timers
                if (
                    clock_only
                    and zero_leaf[source]
                    and not (timers and timers[0][0] <= event.ptime)
                ):
                    if event.ptime > self._last_ptime:
                        self._last_ptime = event.ptime
                else:
                    process(event, source)
            else:
                process_batch(run, source)
            i = j

    def process(self, event: StreamEvent, source: str) -> None:
        """Feed one source event through the dataflow (incremental API)."""
        self._open()
        ptime = event.ptime
        if ptime < self._last_ptime:
            raise ExecutionError("events must be fed in processing-time order")
        timers = self._timers
        fired = bool(timers) and timers[0][0] <= ptime
        if fired:
            self._fire_timers(ptime)
        if ptime > self._last_ptime:
            self._last_ptime = ptime
        cause = self._lineage_cause(event, source)
        leaves = self._leaves_by_source.get(source.lower(), [])
        if isinstance(event, RowEvent):
            for leaf in leaves:
                self._push_changes(leaf, 0, [event.change], cause)
        else:
            for leaf in leaves:
                self._push_watermark(leaf, 0, event.value, ptime, cause)
        if not leaves and not fired:
            # Clock-only event: no operator ran, so no state size moved
            # and the observe_state sweep below would change nothing.
            return
        # One sweep both tracks the dataflow-wide peak and refreshes the
        # per-operator state peaks the metrics layer reports.
        state = self.metrics_registry.observe_state()
        if state > self._peak_state:
            self._peak_state = state

    def process_batch(self, events: Sequence[RowEvent], source: str) -> None:
        """Feed a run of same-instant row events through the dataflow at once.

        Because every operator's batch output is the ordered
        concatenation of its per-change outputs (the :meth:`on_batch`
        contract), delivering a run this way produces — by induction
        over the operator tree — exactly the root changes that feeding
        the events one at a time would have produced, in the same
        order.  Timers due at the batch's instant fire first, as they
        would have before the run's first event; none can fire *inside*
        the run, since operators only ever schedule deadlines strictly
        after the current instant.
        """
        if not events:
            return
        if len(events) == 1:
            self.process(events[0], source)
            return
        self._open()
        ptime = events[0].ptime
        if ptime < self._last_ptime:
            raise ExecutionError("events must be fed in processing-time order")
        for event in events:
            if not isinstance(event, RowEvent) or event.ptime != ptime:
                raise ExecutionError(
                    "a batch must hold row events of a single processing-time "
                    "instant"
                )
        timers = self._timers
        fired = bool(timers) and timers[0][0] <= ptime
        if fired:
            self._fire_timers(ptime)
        if ptime > self._last_ptime:
            self._last_ptime = ptime
        cause = self._lineage_batch_cause(events, source)
        leaves = self._leaves_by_source.get(source.lower(), [])
        if not leaves:
            if fired:
                state = self.metrics_registry.observe_state()
                if state > self._peak_state:
                    self._peak_state = state
            return
        changes = [event.change for event in events]
        if self._columnar_active:
            # One transposition up front; the batch retains ``changes``
            # so a row-only pipeline converts back for free.
            payload = ColumnarBatch.from_changes(
                changes, len(leaves[0].schema)
            )
            for leaf in leaves:
                self._push_changes(leaf, 0, payload, cause)
        else:
            for leaf in leaves:
                self._push_changes(leaf, 0, changes, cause)
        state = self.metrics_registry.observe_state()
        if state > self._peak_state:
            self._peak_state = state

    def batchable_source(self, source: str) -> bool:
        """Whether ``source`` events may be batched without reordering.

        True when the source feeds exactly one scan leaf with at most
        one consumer.  A source scanned several times (NEXMark Q7's
        ``Bid``) must deliver each event to every scan before the next
        event arrives; a *shared* scan with several consumer edges has
        the same per-event interleaving obligation.  A source no scan
        consumes at all is trivially batchable: its events only advance
        the processing-time clock (identically per run or per event,
        since a run holds a single instant).
        """
        leaves = self._leaves_by_source.get(source.lower(), ())
        if not leaves:
            return True
        if len(leaves) != 1:
            return False
        return len(self._consumers.get(id(leaves[0]), ())) <= 1

    def changes_coalesced(self) -> int:
        """Changes dropped by intra-instant compaction, over all operators."""
        return sum(op.counters.changes_coalesced for op in self._operators)

    def finish(self, until: Optional[Timestamp] = None) -> RunResult:
        """Drain pending processing-time timers and return the result.

        The incremental counterpart of the drain ``run()`` performs
        after its last event — use it when driving ``process`` by hand
        and the query has timer-driven operators (tail-of-stream
        views).
        """
        self._fire_timers(until if until is not None else MAX_TIMESTAMP)
        return self.result()

    def result(self) -> RunResult:
        """The result accumulated so far (primary output).

        The drop/expiry totals iterate *every* operator through the
        uniform counters on the base class — an operator that starts
        dropping late rows is accounted for by construction, with no
        per-class allowlist to forget (the old ``isinstance`` tuple
        silently lost OVER and MATCH_RECOGNIZE drops).
        """
        channel = self._outputs[self._primary]
        operators = self._reachable_ops(channel.root)
        return RunResult(
            schema=channel.plan.schema,
            changes=list(channel.changes),
            watermarks=channel.watermarks,
            last_ptime=self._last_ptime,
            late_dropped=sum(op.late_dropped for op in operators),
            expired_rows=sum(op.expired_rows for op in operators),
            peak_state_rows=self._peak_state,
            metrics=self.metrics_report(),
        )

    def metrics_report(self, output_id: Optional[str] = None) -> MetricsReport:
        """The per-operator metrics, shaped as an output's plan tree.

        Entries carry a ``depth`` for rendering, a ``leaf`` flag
        (no inputs wired — the scans rows are routed into), and a
        ``shared_by`` count (output channels reading the operator; the
        renderer annotates entries with ``[shared ×k]`` when k ≥ 2).
        """
        channel = self._outputs[output_id or self._primary]
        entries: list[dict] = []

        def visit(op: Operator, depth: int) -> None:
            producers = sorted(
                self._producers.get(id(op), []), key=lambda pc: pc[0]
            )
            entry = op.metrics()
            entry["depth"] = depth
            entry["leaf"] = not producers
            entry["shared_by"] = self._op_refs.get(id(op), 1)
            entries.append(entry)
            for _, child in producers:
                visit(child, depth + 1)

        visit(channel.root, 0)
        return MetricsReport(operators=entries, telemetry=channel.telemetry)

    # -- internals ---------------------------------------------------------------

    def _reachable_ops(self, root_op: Operator) -> list[Operator]:
        """Operators reachable from ``root_op`` along producer edges,
        children before parents, each exactly once."""
        seen: set[int] = set()
        order: list[Operator] = []

        def visit(op: Operator) -> None:
            if id(op) in seen:
                return
            seen.add(id(op))
            for _, child in self._producers.get(id(op), ()):
                visit(child)
            order.append(op)

        visit(root_op)
        return order

    def _channel_node_ops(self, channel: OutputChannel) -> list[Operator]:
        """The operator every plan node of ``channel`` resolves to, in
        plan post-order (descending *through* shared operators)."""
        ops: list[Operator] = []

        def walk(node: LogicalNode, op: Operator) -> None:
            producers = sorted(
                self._producers.get(id(op), ()), key=lambda pc: pc[0]
            )
            for child_node, (_, child_op) in zip(node.inputs, producers):
                walk(child_node, child_op)
            ops.append(op)

        walk(self._exec_root(channel.plan), channel.root)
        return ops

    def _open(self) -> None:
        if self._opened:
            return
        self._opened = True
        # Open every operator first (children before parents), then
        # propagate initial rows (e.g. the global aggregate's
        # empty-input row) so parents are open when they arrive.
        pending = [(op, op.process_open()) for op in self._operators]
        for op, initial in pending:
            if initial:
                self._emit_up(op, initial)
        # Inline VALUES relations are delivered as a bounded prelude.
        for leaf in self._leaves:
            rows = self._values_rows.get(id(leaf))
            if rows is None:
                continue
            from ..core.changelog import ChangeKind

            self._push_changes(
                leaf,
                0,
                [Change(ChangeKind.INSERT, row, MIN_TIMESTAMP) for row in rows],
            )
            self._push_watermark(leaf, 0, MAX_TIMESTAMP, MIN_TIMESTAMP)

    def _merged_events(
        self, until: Optional[Timestamp]
    ) -> list[tuple[StreamEvent, str]]:
        return merge_source_events(self._sources, until)

    def _lineage_cause(
        self, event: StreamEvent, source: str
    ) -> Optional[tuple[int, ...]]:
        """The cause token for one incoming event (``None`` = untraced).

        When a sharded parent already made the sampling decision for
        this event, its pending token is replayed verbatim; otherwise
        the recorder claims the next per-source ordinal and samples it.
        """
        recorder = self.lineage
        if recorder is None:
            return None
        if recorder.pending_active:
            return recorder.pending
        seq = recorder.offer(source)
        if seq is None:
            return None
        if isinstance(event, RowEvent):
            return recorder.trace_event(
                source,
                seq,
                kind="source",
                values=event.change.values,
                ptime=event.ptime,
            )
        return recorder.trace_event(
            source, seq, kind="watermark", values=event.value, ptime=event.ptime
        )

    def _lineage_batch_cause(
        self, events: Sequence[RowEvent], source: str
    ) -> Optional[tuple[int, ...]]:
        """The merged cause token for a micro-batch of row events.

        Each event claims its own ordinal (so sampling decisions agree
        with per-change execution); the batch's output is attributed to
        every sampled event it contains.
        """
        recorder = self.lineage
        if recorder is None:
            return None
        if recorder.pending_active:
            return recorder.pending
        ids: list[int] = []
        for event in events:
            seq = recorder.offer(source)
            if seq is None:
                continue
            ids.extend(
                recorder.trace_event(
                    source,
                    seq,
                    kind="source",
                    values=event.change.values,
                    ptime=event.ptime,
                )
            )
        return tuple(ids) if ids else None

    def _push_changes(
        self,
        op: Operator,
        port: int,
        changes: list[Change],
        cause: Optional[tuple[int, ...]] = None,
    ) -> None:
        """Deliver changes into ``op`` and propagate its output onward.

        ``changes`` is either a list of :class:`Change` or (columnar
        mode) a :class:`ColumnarBatch`.  A batch is handed to columnar
        operators as-is and converted to rows at the first operator
        that cannot consume it — after which it stays rows; the
        executor never re-columnarizes mid-flight.
        """
        if type(changes) is ColumnarBatch:
            if op.supports_columnar:
                produced = op.process_cols(port, changes)
            else:
                produced = op.process_batch(port, changes.to_changes())
        else:
            produced = op.process_batch(port, changes)
        if not produced:
            return
        if self.coalesce_updates and len(produced) > 1:
            if type(produced) is ColumnarBatch:
                produced = produced.to_changes()
            produced, dropped = compact_intra_instant(produced)
            if dropped:
                op.counters.record_coalesced(dropped)
                if not produced:
                    return
        if cause is not None and self.lineage is not None:
            cause = self.lineage.record_operator(
                cause,
                op.name(),
                shard=self._lineage_shard,
                shared_by=self._op_refs.get(id(op), 1),
                produced=len(produced),
            )
        self._emit_up(op, produced, cause)

    def _emit_up(
        self,
        op: Operator,
        changes: list[Change],
        cause: Optional[tuple[int, ...]] = None,
    ) -> None:
        """Fan an operator's output out: first to any output channels
        rooted at it, then to its consumer edges in attach order."""
        channels = self._outputs_of.get(id(op))
        if channels is not None:
            # Output channels store rows; ``to_changes`` is memoized,
            # so fan-out across channels converts at most once.
            rows = (
                changes.to_changes()
                if type(changes) is ColumnarBatch
                else changes
            )
            for channel in channels:
                self._collect_output(channel, rows, cause)
        for consumer, port in self._consumers.get(id(op), ()):
            self._push_changes(consumer, port, changes, cause)

    def _push_watermark(
        self,
        op: Operator,
        port: int,
        value: Timestamp,
        ptime: Timestamp,
        cause: Optional[tuple[int, ...]] = None,
    ) -> None:
        changes, out_wm = op.process_watermark(port, value, ptime)
        if changes:
            emit_cause = cause
            if emit_cause is not None and self.lineage is not None:
                emit_cause = self.lineage.record_operator(
                    emit_cause,
                    op.name(),
                    shard=self._lineage_shard,
                    shared_by=self._op_refs.get(id(op), 1),
                    produced=len(changes),
                )
            self._emit_up(op, changes, emit_cause)
        if out_wm is None:
            return
        channels = self._outputs_of.get(id(op))
        if channels is not None:
            for channel in channels:
                channel.watermarks.advance(ptime, out_wm)
                if self.trace is not None and channel.output_id == self._primary:
                    self.trace(
                        TraceEvent(
                            kind="watermark",
                            ptime=ptime,
                            value=out_wm,
                            operator=channel.root_name,
                        )
                    )
        for consumer, consumer_port in self._consumers.get(id(op), ()):
            self._push_watermark(consumer, consumer_port, out_wm, ptime, cause)

    def _collect_output(
        self,
        channel: OutputChannel,
        changes: list[Change],
        cause: Optional[tuple[int, ...]] = None,
    ) -> None:
        if cause is not None and self.lineage is not None:
            if self._lineage_register_outputs:
                start = len(channel.changes)
                self.lineage.record_output(
                    cause, channel.output_id, range(start, start + len(changes))
                )
            else:
                self.lineage.note_shard_output(
                    channel.output_id, cause, len(changes)
                )
        channel.changes.extend(changes)
        root_wm = channel.watermarks.current
        completion = channel.completion
        if len(changes) == 1:
            change = changes[0]
            completion_time: Optional[Timestamp] = None
            if completion is not None:
                # Completion columns hold event-time bounds, but outer
                # joins may emit NULLs there; a row with no bound yields
                # no emit-latency sample.
                bounds = [
                    change.values[i]
                    for i in completion
                    if isinstance(change.values[i], int)
                ]
                if bounds:
                    completion_time = max(bounds)
            channel.telemetry.record_emit(change.ptime, completion_time, root_wm)
        else:
            # Batched emission: same samples, bulk-recorded.  The root
            # watermark is constant across the run (batches never span
            # a watermark event), so one lookup covers every change.
            channel.telemetry.record_emit_run(changes, completion, root_wm)
        if self.trace is not None and channel.output_id == self._primary:
            self.trace(
                TraceEvent(
                    kind="batch",
                    ptime=changes[-1].ptime,
                    count=len(changes),
                    operator=channel.root_name,
                )
            )

    # -- timer service -------------------------------------------------------------

    def _schedule_timer(self, when: Timestamp, op: Operator) -> None:
        heapq.heappush(self._timers, (when, self._timer_seq, op))
        self._timer_seq += 1

    def _fire_timers(self, up_to: Timestamp) -> None:
        """Fire pending timers with deadline <= ``up_to``, in order.

        A timer due exactly at an event's instant fires *before* the
        event: a row whose visibility ends at t is no longer visible at
        t.
        """
        while self._timers and self._timers[0][0] <= up_to:
            when, _, op = heapq.heappop(self._timers)
            changes = op.process_timer(when)
            self._last_ptime = max(self._last_ptime, when)
            if changes:
                self._emit_up(op, changes)
