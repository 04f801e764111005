"""Physical operator protocol.

Operators process *changelogs*: every data message is a
:class:`~repro.core.changelog.Change` (an insert or retract of one row
occurrence), mirroring how Flink's retraction streams drive its SQL
runtime (Appendix B.2.3): an operator adjusts and forwards change
messages.  Watermarks flow as separate control messages.

The contract — each operator writes its row transition exactly once:

* Override **one** row hook.  ``on_batch(port, changes)`` consumes a
  run of same-instant changes on an input port and returns the
  resulting output changes, in order; an operator with a batch loop
  overrides it, and a single change reaches it as a batch of one
  (the base ``on_change``).  Operators whose transition is inherently
  per-change override ``on_change(port, change)`` instead, and the base
  ``on_batch`` concatenates its per-change outputs.  Either way the
  batch output is the ordered concatenation of the per-change outputs,
  the invariant byte-identical batching rests on.  Never override both.
* Override ``on_cols(port, batch)`` only together with
  ``supports_columnar = True``: it consumes a
  :class:`~repro.core.colbatch.ColumnarBatch` and must produce the
  same changes the row hook would.
* ``on_open`` runs once before any input and may emit initial rows
  (e.g. the empty-input row of a global aggregate).
* ``on_watermark(port, value, ptime)`` records an input watermark
  advance and returns ``(changes, output_watermark)`` — the changes the
  advance triggered plus the operator's new output watermark (``None``
  if unchanged).  Output watermarks must be monotonic; multi-input
  operators merge by minimum (the hold-back rule of Section 5).
* ``state_size()`` reports retained row count, powering the paper's
  "reasoning about the size of query state" lesson and the state
  benchmarks.

Observability is part of the contract, not an add-on: the executor
drives operators through the ``process_*`` wrappers defined here, which
count rows in/out around the ``on_*`` hooks, and every operator carries
the uniform ``late_dropped``/``expired_rows`` counters.  ``metrics()``
assembles the whole block, so downstream reporting iterates operators
instead of maintaining per-class ``isinstance`` allowlists (the pattern
that silently lost OVER and MATCH_RECOGNIZE late drops).
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from ...core.changelog import Change
from ...core.schema import Schema
from ...core.times import MIN_TIMESTAMP, Timestamp
from ...core.watermark import merge_watermarks
from ...obs.metrics import OperatorCounters, watermark_lag

__all__ = ["Operator"]


class Operator:
    """Base class for physical operators."""

    #: Operators that consume :class:`~repro.core.colbatch.ColumnarBatch`
    #: payloads directly set this True and implement :meth:`on_cols`.
    #: For everything else the executor converts the batch back to rows
    #: at the operator boundary.
    supports_columnar = False

    def __init__(self, schema: Schema, arity: int):
        self.schema = schema
        self.arity = arity
        self._input_wms: list[Timestamp] = [MIN_TIMESTAMP] * arity
        self._output_wm: Timestamp = MIN_TIMESTAMP
        self._timer_sink: Optional[Callable[[Timestamp, "Operator"], None]] = None
        self.counters = OperatorCounters(arity)
        #: rows rejected because the watermark already declared their
        #: position complete; every operator has the counter, whether or
        #: not it ever drops.
        self.late_dropped = 0
        #: state rows purged (or arrivals ignored) because the watermark
        #: proved them unreachable.
        self.expired_rows = 0

    # -- processing-time timers -----------------------------------------------

    def bind_timers(self, sink: Callable[[Timestamp, "Operator"], None]) -> None:
        """Connect this operator to the executor's timer service."""
        self._timer_sink = sink

    def register_timer(self, when: Timestamp) -> None:
        """Request an ``on_timer`` callback at processing time ``when``.

        Timers power operators whose output changes with the mere
        passage of processing time — the time-progressing expressions of
        Section 8 — rather than with new input.
        """
        if self._timer_sink is not None:
            self._timer_sink(when, self)

    def on_timer(self, when: Timestamp) -> list[Change]:
        """Handle a timer firing; returns emitted changes."""
        return []

    # -- data path ----------------------------------------------------------

    def on_open(self) -> list[Change]:
        """Emit any initial output (before the first input arrives)."""
        return []

    def on_change(self, port: int, change: Change) -> list[Change]:
        """Consume one change: by default, a batch of one."""
        return self.on_batch(port, (change,))

    def on_batch(self, port: int, changes: Sequence[Change]) -> list[Change]:
        """Consume a run of same-instant changes on one port.

        The default delegates to :meth:`on_change` per change and
        concatenates, for operators whose transition is per-change.
        """
        on_change = self.on_change
        out: list[Change] = []
        for change in changes:
            out.extend(on_change(port, change))
        return out

    # -- counted entry points -------------------------------------------------
    #
    # The executor drives operators through these wrappers so the
    # metrics layer sees every row on every port of every operator —
    # counting lives in exactly one place and cannot drift per class.

    def process_open(self) -> list[Change]:
        out = self.on_open()
        self.counters.record_out(out)
        return out

    def process_change(self, port: int, change: Change) -> list[Change]:
        self.counters.record_in(port, change)
        out = self.on_change(port, change)
        self.counters.record_out(out)
        return out

    def process_batch(self, port: int, changes: Sequence[Change]) -> list[Change]:
        """Counted batch entry point; counters land exactly as if the
        batch had been delivered change by change."""
        if len(changes) == 1:
            return self.process_change(port, changes[0])
        self.counters.record_in_batch(port, changes)
        out = self.on_batch(port, changes)
        self.counters.record_out(out)
        return out

    def on_cols(self, port: int, batch):
        """Consume a columnar batch; only called when
        ``supports_columnar`` is True.  May return either a
        :class:`~repro.core.colbatch.ColumnarBatch` or a row list —
        the executor handles both payload encodings downstream."""
        raise NotImplementedError

    def process_cols(self, port: int, batch):
        """Counted columnar entry point; counters land exactly as if
        the batch had been delivered change by change."""
        counters = self.counters
        counters.record_in_cols(port, batch)
        out = self.on_cols(port, batch)
        if isinstance(out, list):
            counters.record_out(out)
        else:
            counters.record_out_cols(out)
        return out

    def process_watermark(
        self, port: int, value: Timestamp, ptime: Timestamp
    ) -> tuple[list[Change], Optional[Timestamp]]:
        changes, out_wm = self.on_watermark(port, value, ptime)
        self.counters.record_out(changes)
        if out_wm is not None:
            self.counters.record_wm_advance()
        return changes, out_wm

    def process_timer(self, when: Timestamp) -> list[Change]:
        out = self.on_timer(when)
        self.counters.record_out(out)
        return out

    # -- watermark path -------------------------------------------------------

    def on_watermark(
        self, port: int, value: Timestamp, ptime: Timestamp
    ) -> tuple[list[Change], Optional[Timestamp]]:
        """Record an input watermark; default merges inputs by minimum."""
        self._input_wms[port] = value
        merged = merge_watermarks(self._input_wms)
        changes = self._on_watermark_advanced(merged, ptime)
        if merged > self._output_wm:
            self._output_wm = merged
            return changes, merged
        return changes, None

    def _on_watermark_advanced(
        self, merged: Timestamp, ptime: Timestamp
    ) -> list[Change]:
        """Hook for watermark-triggered work (state GC, session closes)."""
        return []

    @property
    def input_watermark(self) -> Timestamp:
        """The merged watermark over all input ports."""
        return merge_watermarks(self._input_wms)

    @property
    def output_watermark(self) -> Timestamp:
        return self._output_wm

    # -- checkpointing ------------------------------------------------------------

    def state_snapshot(self) -> dict:
        """Picklable snapshot of this operator's state.

        The base snapshot covers the watermark bookkeeping; stateful
        subclasses extend it.  Together with the executor's own
        bookkeeping this gives consistent stop-and-resume, the
        checkpoint/recovery capability Appendix B.2.1 describes for
        Flink.
        """
        return {
            "input_wms": list(self._input_wms),
            "output_wm": self._output_wm,
            "counters": self.counters.snapshot(),
            "late_dropped": self.late_dropped,
            "expired_rows": self.expired_rows,
        }

    def state_restore(self, snapshot: dict) -> None:
        """Restore state captured by :meth:`state_snapshot`."""
        self._input_wms = list(snapshot["input_wms"])
        self._output_wm = snapshot["output_wm"]
        self.counters.restore(snapshot["counters"])
        self.late_dropped = snapshot["late_dropped"]
        self.expired_rows = snapshot["expired_rows"]

    # -- introspection ---------------------------------------------------------

    def state_size(self) -> int:
        """Number of row occurrences retained in operator state."""
        return 0

    def metrics(self) -> dict:
        """The operator's full metric block, uniformly shaped.

        Standard keys are identical for every operator; subclasses
        append class-specific gauges via :meth:`_extra_metrics`.
        """
        counters = self.counters
        block = {
            "operator": self.name(),
            "type": type(self).__name__,
            "rows_in": list(counters.rows_in),
            "retracts_in": list(counters.retracts_in),
            "rows_out": counters.rows_out,
            "retracts_out": counters.retracts_out,
            "late_dropped": self.late_dropped,
            "expired_rows": self.expired_rows,
            "state_rows": self.state_size(),
            "peak_state_rows": counters.peak_state_rows,
            "watermark_lag": watermark_lag(self.input_watermark, self._output_wm),
            "wm_advances": counters.wm_advances,
            "changes_coalesced": counters.changes_coalesced,
        }
        block.update(self._extra_metrics())
        return block

    def _extra_metrics(self) -> dict:
        """Class-specific gauges merged into :meth:`metrics`."""
        return {}

    def name(self) -> str:
        return type(self).__name__
