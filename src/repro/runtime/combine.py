"""The merge-stage half of two-phase sharded aggregation.

:class:`CombineStage` hosts the
:class:`~repro.exec.operators.aggregate.CombineAggregateOperator` plus
the original plan's stateless finishing operators (the Project/Filter
chain that sat above the aggregate), rebuilt from the logical nodes the
physical split preserved.  The sharded runtime feeds it partial
payloads in global sequence order — one :meth:`feed` per merged output
slice — and watermark advances from the merged frontier, so the stage
sees exactly the event interleaving the serial executor would and its
output splices into the merged changelog byte-identically.

The stage deliberately mirrors the executor's per-edge behavior:
outputs are compacted between operators when ``coalesce_updates`` is
on (with ``changes_coalesced`` charged to the producing operator, as
``Dataflow._push_changes`` does), per-operator state peaks are noted
after every feed, and root emissions are recorded into a
:class:`~repro.obs.telemetry.RunTelemetry` against the original plan
root's completion columns.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..core.changelog import Change, compact_intra_instant
from ..core.errors import ExecutionError
from ..core.times import Timestamp
from ..obs.telemetry import RunTelemetry

__all__ = ["CombineStage"]


class CombineStage:
    """Combine operator + finishing chain, driven by the merge loop."""

    def __init__(
        self,
        split,
        allowed_lateness: int = 0,
        coalesce_updates: bool = False,
    ):
        # Imported here: repro.exec imports repro.plan, and this module
        # is imported by repro.runtime.sharded which repro.exec's
        # executor does not depend on — but keeping the import local
        # avoids ever creating a cycle through repro.exec.compile.
        from ..exec.compile import build_operator
        from ..exec.operators.aggregate import CombineAggregateOperator

        self._split = split
        self._coalesce = coalesce_updates
        agg = split.aggregate
        combine = CombineAggregateOperator(
            agg.schema,
            agg.group_indices,
            agg.aggs,
            agg.event_time_key_positions,
            agg.input.bounded,
            allowed_lateness=allowed_lateness,
        )
        # ``split.finish`` is root-first; build upward from the combine
        # so each finishing operator consumes the one below it.
        ops: list = [combine]
        prev = combine
        for node in reversed(split.finish):
            op = build_operator(node, [prev], allowed_lateness)
            ops.append(op)
            prev = op
        self._combine = combine
        self._ops = ops  # feed order: combine first, root last
        self._root = prev
        root_node = split.finish[0] if split.finish else agg
        self._completion = root_node.completion_indices
        self.telemetry = RunTelemetry()

    # -- driving ---------------------------------------------------------------

    def feed(
        self, changes: Sequence[Change], root_watermark: Timestamp
    ) -> list[Change]:
        """Run one merged slice of partial payloads through the stage.

        Returns the final changes to splice into the merged output at
        the slice's position.
        """
        current: list[Change] = list(changes)
        for op in self._ops:
            if not current:
                break
            produced = op.process_batch(0, current)
            if self._coalesce and len(produced) > 1:
                produced, dropped = compact_intra_instant(produced)
                if dropped:
                    op.counters.record_coalesced(dropped)
            current = produced
        for op in self._ops:
            op.counters.note_state(op.state_size())
        if current:
            self.telemetry.record_emit_run(
                current, self._completion, root_watermark
            )
        return current

    def advance(self, value: Timestamp, ptime: Timestamp) -> None:
        """Propagate a merged-frontier advance through the stage.

        Watermark advances free combine state but never produce output
        — two-phase splitting is only planned for row-driven
        (partitionable) plans, so anything else is a bug.
        """
        wm: Optional[Timestamp] = value
        for op in self._ops:
            changes, wm = op.process_watermark(0, wm, ptime)
            if changes:
                raise ExecutionError(
                    "combine stage produced output on a watermark advance; "
                    "the plan should not have been split"
                )
            if wm is None:
                break
        for op in self._ops:
            op.counters.note_state(op.state_size())

    # -- introspection ---------------------------------------------------------

    @property
    def combine_operator(self):
        return self._combine

    @property
    def operator_count(self) -> int:
        return len(self._ops)

    def state_rows(self) -> int:
        return sum(op.state_size() for op in self._ops)

    def changes_coalesced(self) -> int:
        return sum(op.counters.changes_coalesced for op in self._ops)

    def peak_state_rows(self) -> int:
        return sum(op.counters.peak_state_rows for op in self._ops)

    def expired_rows(self) -> int:
        return sum(op.expired_rows for op in self._ops)

    def metrics_entries(self) -> list[dict]:
        """Per-operator metric blocks, plan-root first (depth 0 at the
        top of the finishing chain, the combine deepest)."""
        entries = []
        for depth, op in enumerate(reversed(self._ops)):
            entry = op.metrics()
            entry["depth"] = depth
            entry["leaf"] = False
            entry["shared_by"] = 1
            entries.append(entry)
        return entries

    # -- checkpointing ---------------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "ops": [op.state_snapshot() for op in self._ops],
            "telemetry": self.telemetry,
        }

    def restore(self, payload: dict) -> None:
        states = payload["ops"]
        if len(states) != len(self._ops):
            raise ExecutionError(
                f"combine stage shape changed: checkpoint has "
                f"{len(states)} operators, stage has {len(self._ops)}"
            )
        for op, state in zip(self._ops, states):
            op.state_restore(state)
        restored = payload["telemetry"]
        if restored is not None:
            self.telemetry = restored
