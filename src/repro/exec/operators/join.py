"""Incremental binary joins over changelogs.

The classic two-sided materialized join (Appendix B.2.3: "a join
operator fully materializes both input relations"): each side's live
rows are kept in keyed bags; a change on one side probes the other
side's bag and emits the delta of the join result.  Insert probes emit
inserts, retract probes emit retracts — the algebra of changelogs makes
the incremental maintenance uniform.

When the optimizer can prove the join condition bounds the two sides'
event times to within a window of each other (a *time-windowed join*,
e.g. NEXMark Q7's ``bidtime >= wend - 10min AND bidtime < wend``), it
supplies expiration metadata and the operator purges rows the watermark
has made unjoinable — the state-cleanup special case Section 5 calls
out.
"""

from __future__ import annotations

import copy

from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

from ...core.changelog import Change
from ...core.schema import Schema
from ...core.times import Duration, Timestamp
from .base import Operator

__all__ = ["JoinOperator", "TimeBound"]


@dataclass(frozen=True)
class TimeBound:
    """State-expiry metadata for one join side.

    ``time_index`` is the event time column (side-local ordinal) and
    ``slack`` how long past the watermark the row may still join: the
    row expires when ``watermark >= row[time_index] + slack``.
    """

    time_index: int
    slack: Duration


class JoinOperator(Operator):
    """INNER/CROSS join with two-sided materialized state."""

    def __init__(
        self,
        schema: Schema,
        left_width: int,
        condition: Optional[Callable[[tuple], Any]],
        left_key: Optional[tuple[int, ...]] = None,
        right_key: Optional[tuple[int, ...]] = None,
        left_bound: Optional[TimeBound] = None,
        right_bound: Optional[TimeBound] = None,
    ):
        super().__init__(schema, arity=2)
        self._left_width = left_width
        self._condition = condition
        # Hash keys: equal-length index tuples into each side's rows.
        # Without equi-keys everything lands in one bucket.
        self._keys = (left_key or (), right_key or ())
        self._state: tuple[dict, dict] = ({}, {})
        self._bounds = (left_bound, right_bound)

    # -- data path ---------------------------------------------------------------

    def on_batch(self, port: int, changes: Sequence[Change]) -> list[Change]:
        # Each change updates its own side's keyed bag, then probes the
        # other side's bag.  Both sides' state dicts, the key indices,
        # and the condition are bound once for the whole batch instead
        # of re-fetched per probe.
        key_indices = self._keys[port]
        side = self._state[port]
        other = self._state[1 - port]
        condition = self._condition
        left = port == 0
        out: list[Change] = []
        append = out.append
        extend = out.extend
        for change in changes:
            values = change.values
            key = tuple(values[i] for i in key_indices)
            bucket = side.get(key)
            if change.is_insert:
                if bucket is None:
                    bucket = Counter()
                    side[key] = bucket
                bucket[values] += 1
            else:
                if bucket is None or bucket[values] <= 0:
                    # The matching insert was expired by the watermark;
                    # the retraction has nothing to undo.
                    self.expired_rows += 1
                    continue
                bucket[values] -= 1
                if bucket[values] == 0:
                    del bucket[values]
                    if not bucket:
                        del side[key]
            matches = other.get(key)
            if not matches:
                continue
            kind, ptime = change.kind, change.ptime
            for other_values, count in matches.items():
                combined = (
                    values + other_values if left else other_values + values
                )
                if condition is not None and condition(combined) is not True:
                    continue
                if count == 1:
                    append(Change(kind, combined, ptime))
                else:
                    extend(Change(kind, combined, ptime) for _ in range(count))
        return out

    # -- watermark-driven state expiry -----------------------------------------------

    def _on_watermark_advanced(self, merged: Timestamp, ptime: Timestamp) -> list[Change]:
        for port in (0, 1):
            bound = self._bounds[port]
            if bound is None:
                continue
            side = self._state[port]
            empty_keys = []
            for key, bucket in side.items():
                doomed = [
                    values
                    for values in bucket
                    if values[bound.time_index] + bound.slack <= merged
                ]
                for values in doomed:
                    self.expired_rows += bucket.pop(values)
                if not bucket:
                    empty_keys.append(key)
            for key in empty_keys:
                del side[key]
        return []

    # -- introspection ---------------------------------------------------------------

    def state_snapshot(self) -> dict:
        snapshot = super().state_snapshot()
        snapshot["state"] = copy.deepcopy(self._state)
        return snapshot

    def state_restore(self, snapshot: dict) -> None:
        super().state_restore(snapshot)
        self._state = copy.deepcopy(snapshot["state"])

    def state_size(self) -> int:
        return sum(
            sum(bucket.values())
            for side in self._state
            for bucket in side.values()
        )

    def name(self) -> str:
        return f"Join(state={self.state_size()} rows)"
