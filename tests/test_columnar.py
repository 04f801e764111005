"""Columnar micro-batch execution: byte-identity, codegen, recovery.

Every batching flow (``batch_size > 1``) runs columnar; there is no
switch.  The columnar invariant (docs/RUNTIME.md section 9): at any
batch size, serial or sharded, with or without two-phase aggregation,
the changelog a columnar run produces is *byte-identical* — values,
``ptime``, ordering, watermark steps — to the ``batch_size=1``
per-change run over the unfused row operators.  With coalescing it is
snapshot-equivalent at every instant instead.  Columnar execution
changes how batches move between operators (per-column vectors, fused
filter/project pipelines, generated loops), never what they contain.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ExecutionConfig, RetryPolicy, StreamEngine
from repro.core.changelog import Change, ChangeKind
from repro.core.colbatch import ColumnarBatch
from repro.core.errors import ExecutionError
from repro.core.schema import Schema, int_col, timestamp_col
from repro.core.schema import SqlType
from repro.core.times import seconds, t
from repro.core.tvr import TimeVaryingRelation, ins, wm
from repro.exec.executor import columnar_active
from repro.exec.operators.pipeline import PipelineOperator
from repro.exec.operators.stateless import FilterOperator, ProjectOperator
from repro.nexmark.queries import Q3_LOCAL_ITEM_SUGGESTION
from repro.plan.rex import (
    RexCase,
    RexCast,
    RexCurrentTime,
    RexInput,
    RexLiteral,
    compile_rex,
)

KEYED_SCHEMA = Schema(
    [int_col("k"), timestamp_col("ts", event_time=True), int_col("v")]
)

TUMBLE_SQL = (
    "SELECT k, wend, COUNT(*) AS n "
    "FROM Tumble(data => TABLE(S), timecol => DESCRIPTOR(ts), "
    "dur => INTERVAL '2' MINUTE) TS "
    "GROUP BY k, wend"
)

SUM_SQL = (
    "SELECT k, wend, SUM(v) AS total "
    "FROM Tumble(data => TABLE(S), timecol => DESCRIPTOR(ts), "
    "dur => INTERVAL '2' MINUTE) TS "
    "GROUP BY k, wend"
)

STATELESS_SQL = "SELECT k + 1 AS k1, v * 2 AS v2 FROM S WHERE v >= 1"

HOP_SQL = (
    "SELECT wstart, COUNT(*) AS n "
    "FROM Hop(data => TABLE(S), timecol => DESCRIPTOR(ts), "
    "dur => INTERVAL '2' MINUTE, slide => INTERVAL '1' MINUTE) HS "
    "GROUP BY wstart"
)

# Expressions that codegen cannot emit inline — they run through the
# spliced closure fallback inside the generated loop.
FALLBACK_SQL = (
    "SELECT CAST(v AS STRING) AS vs, "
    "CASE WHEN v > 2 THEN 'hi' ELSE 'lo' END AS tag "
    "FROM S WHERE v % 2 = 0"
)

entries_strategy = st.lists(
    st.tuples(
        st.integers(0, 3),
        st.integers(0, 2),
        st.integers(0, 50),
        st.booleans(),
    ),
    min_size=1,
    max_size=40,
)


def _build_events(entries):
    events = []
    ptime = 1000
    wm_seconds = 0
    for kind, key, secs, advance in entries:
        if advance:
            ptime += 100
        if kind == 3:
            wm_seconds = max(wm_seconds, secs)
            events.append(wm(ptime, t("8:00") + seconds(wm_seconds)))
        else:
            events.append(ins(ptime, (key, t("8:00") + seconds(secs), kind)))
    return events


def _run(events, sql, **config):
    engine = StreamEngine(config=ExecutionConfig(**config))
    engine.register_stream("S", TimeVaryingRelation(KEYED_SCHEMA, events))
    return engine.query(sql).run()


def _assert_identical(events, sql, **config):
    """The run under ``config`` == the serial ``batch_size=1`` per-change
    run: byte for byte, or snapshot-equivalent at every instant when
    ``config`` coalesces."""
    reference = _run(events, sql, batch_size=1)
    result = _run(events, sql, **config)
    assert result.watermarks.as_pairs() == reference.watermarks.as_pairs()
    assert result.late_dropped == reference.late_dropped
    if not config.get("coalesce_updates"):
        assert result.changes == reference.changes
        return
    instants = {c.ptime for c in reference.changes}
    instants |= {c.ptime for c in result.changes}
    for at in sorted(instants):
        assert result.snapshot(at) == reference.snapshot(at)


# ---------------------------------------------------------------------------
# hypothesis: columnar batches == per-change rows, byte for byte
# ---------------------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(
    entries=entries_strategy,
    sql=st.sampled_from([STATELESS_SQL, TUMBLE_SQL, FALLBACK_SQL]),
    batch_size=st.sampled_from([1, 2, 7, 64]),
)
def test_columnar_identical_serial(entries, sql, batch_size):
    _assert_identical(_build_events(entries), sql, batch_size=batch_size)


@settings(max_examples=15, deadline=None)
@given(
    entries=entries_strategy,
    shards=st.sampled_from([1, 3]),
    two_phase=st.sampled_from(["off", "on"]),
    coalesce=st.booleans(),
)
def test_columnar_identical_sharded(entries, shards, two_phase, coalesce):
    _assert_identical(
        _build_events(entries),
        SUM_SQL,
        batch_size=7,
        parallelism=shards,
        backend="sync",
        two_phase=two_phase,
        coalesce_updates=coalesce,
    )


@settings(max_examples=10, deadline=None)
@given(entries=entries_strategy)
def test_columnar_identical_hop(entries):
    _assert_identical(_build_events(entries), HOP_SQL, batch_size=16)


def test_columnar_auto_follows_batch_size():
    assert not columnar_active(1)
    assert columnar_active(2)
    events = _build_events([(0, 0, 5, True), (1, 1, 9, True), (3, 0, 20, False)])
    engine = StreamEngine(config=ExecutionConfig(batch_size=64))
    engine.register_stream("S", TimeVaryingRelation(KEYED_SCHEMA, events))
    flow = engine.query(STATELESS_SQL).dataflow()
    assert flow._columnar_active
    assert any(isinstance(op, PipelineOperator) for op in flow.operators)
    engine2 = StreamEngine()
    engine2.register_stream("S", TimeVaryingRelation(KEYED_SCHEMA, events))
    flow2 = engine2.query(STATELESS_SQL).dataflow()
    assert not flow2._columnar_active
    assert not any(isinstance(op, PipelineOperator) for op in flow2.operators)


# ---------------------------------------------------------------------------
# codegen: fused pipelines, fallback splicing, build-time errors
# ---------------------------------------------------------------------------


def _int_input(i):
    return RexInput(i, type=SqlType.INT)


def _lit(value, sql_type=SqlType.INT):
    return RexLiteral(value, type=sql_type)


def _changes(rows):
    return [Change(ChangeKind.INSERT, tuple(row), 1000 + i)
            for i, row in enumerate(rows)]


def test_pipeline_codegen_matches_unfused_operators():
    """The fused generated loop == the unfused Filter -> Project
    operators fed one change at a time (the batch_size=1 reference)."""
    cond = RexCall_gt(_int_input(0), _lit(2))
    exprs = (RexCall_add(_int_input(0), _int_input(1)),)
    compiled = PipelineOperator(
        _two_int_schema(), 2, (("filter", cond), ("project", exprs))
    )
    filter_op = FilterOperator(_two_int_schema(), compile_rex(cond))
    project_op = ProjectOperator(
        Schema([int_col("s")]), [compile_rex(e) for e in exprs]
    )
    batch = _changes([(1, 10), (3, 20), (5, 30), (None, 40)])
    reference = [
        projected
        for change in batch
        for kept in filter_op.on_change(0, change)
        for projected in project_op.on_change(0, kept)
    ]
    assert compiled.on_batch(0, batch) == reference
    cols = ColumnarBatch.from_changes(batch, 2)
    out = compiled.on_cols(0, cols)
    rows = out.to_changes() if isinstance(out, ColumnarBatch) else out
    assert rows == reference


def test_case_and_cast_fall_back_to_closures():
    case = RexCase(
        whens=((RexCall_gt(_int_input(0), _lit(1)), _lit("hi", SqlType.STRING)),),
        else_=_lit("lo", SqlType.STRING),
        type=SqlType.STRING,
    )
    cast = RexCast(_int_input(1), type=SqlType.STRING)
    op = PipelineOperator(_two_int_schema(), 2, (("project", (case, cast)),))
    # The generated source splices closure fallbacks for both exprs.
    source = getattr(op._run_rows, "_codegen_source", "")
    assert "_fb" in source
    out = op.on_batch(0, _changes([(0, 7), (2, 8)]))
    assert [c.values for c in out] == [("lo", "7"), ("hi", "8")]
    cols_out = op.on_cols(0, ColumnarBatch.from_changes(_changes([(0, 7), (2, 8)]), 2))
    rows = cols_out.to_changes() if isinstance(cols_out, ColumnarBatch) else cols_out
    assert [c.values for c in rows] == [("lo", "7"), ("hi", "8")]


def test_current_time_errors_at_build_time():
    clock = RexCurrentTime(type=SqlType.TIMESTAMP)
    with pytest.raises(ExecutionError, match="CURRENT_TIME"):
        PipelineOperator(_two_int_schema(), 2, (("project", (clock,)),))


def test_sql_division_semantics_preserved():
    div = RexCall_div(_int_input(0), _int_input(1))
    op = PipelineOperator(_two_int_schema(), 2, (("project", (div,)),))
    out = op.on_batch(0, _changes([(7, 2), (-7, 2), (7, None)]))
    assert [c.values for c in out] == [(3,), (-3,), (None,)]
    with pytest.raises(ExecutionError, match="division by zero"):
        op.on_batch(0, _changes([(1, 0)]))


def test_columnar_batch_roundtrip_preserves_identity():
    batch = _changes([(1, 2), (3, 4)])
    cols = ColumnarBatch.from_changes(batch, 2)
    # The memoized row view hands back the very Change objects the
    # batch was built from — no reconstruction.
    assert all(a is b for a, b in zip(cols.to_changes(), batch))
    rebuilt = ColumnarBatch(cols.columns, cols.kinds, cols.ptimes)
    assert rebuilt.to_changes() == batch


def _two_int_schema():
    return Schema([int_col("a"), int_col("b")])


def RexCall_gt(a, b):
    from repro.plan.rex import RexCall

    return RexCall(">", (a, b), type=SqlType.BOOL)


def RexCall_add(a, b):
    from repro.plan.rex import RexCall

    return RexCall("+", (a, b), type=SqlType.INT)


def RexCall_div(a, b):
    from repro.plan.rex import RexCall

    return RexCall("/", (a, b), type=SqlType.INT)


# ---------------------------------------------------------------------------
# fault tolerance: columnar batches align with checkpoints
# ---------------------------------------------------------------------------


def test_columnar_crash_after_checkpoint_recovers_exactly(nexmark_small):
    """batch_size=64 (columnar), crash-after-checkpoint: recovery
    replays the same micro-batches through the same columnar pipelines
    and reproduces the fault-free serial output byte for byte."""
    serial = StreamEngine()
    nexmark_small.register_on(serial)
    baseline = serial.query(Q3_LOCAL_ITEM_SUGGESTION).dataflow().run()

    faulted = StreamEngine(
        config=ExecutionConfig(
            parallelism=3,
            backend="threads",
            batch_size=64,
            retry=RetryPolicy(max_restarts=3, checkpoint_interval=3),
            fault_plan="crash-after-checkpoint:shard=0,at=1",
        )
    )
    nexmark_small.register_on(faulted)
    result = faulted.query(Q3_LOCAL_ITEM_SUGGESTION).run()
    assert result.changes == baseline.changes
    assert result.watermarks.as_pairs() == baseline.watermarks.as_pairs()
    recovery = result.metrics.recovery
    assert recovery is not None and recovery.shard_restarts > 0


def test_columnar_checkpoint_restore_roundtrip():
    """Cut a checkpoint mid-stream on a columnar flow, rebuild from the
    structural recipe, restore, and finish: identical to an
    uninterrupted columnar run."""
    from repro.exec.executor import Dataflow

    events = _build_events(
        [(0, 0, 5, True), (1, 1, 9, False), (2, 0, 12, True),
         (3, 0, 20, True), (0, 2, 25, False), (1, 0, 30, True),
         (3, 1, 40, True)]
    )
    engine = StreamEngine(config=ExecutionConfig(batch_size=64))
    engine.register_stream("S", TimeVaryingRelation(KEYED_SCHEMA, events))
    query = engine.query(TUMBLE_SQL)
    uninterrupted = query.dataflow().run()

    flow = query.dataflow()
    half = len(events) // 2
    for event in events[:half]:
        flow.process(event, "S")
    blob = flow.checkpoint()

    import pickle

    restored = Dataflow.from_structure(
        [("main", query.plan)],
        pickle.loads(blob),
        {"S": TimeVaryingRelation(KEYED_SCHEMA, events)},
        batch_size=64,
    )
    restored.restore(blob)
    for event in events[half:]:
        restored.process(event, "S")
    result = restored.finish()
    assert result.changes == uninterrupted.changes
    assert result.watermarks.as_pairs() == uninterrupted.watermarks.as_pairs()


# ---------------------------------------------------------------------------
# EXPLAIN and config surface
# ---------------------------------------------------------------------------


def test_physical_explain_annotates_columnar():
    engine = StreamEngine(config=ExecutionConfig(batch_size=64))
    engine.register_stream("S", TimeVaryingRelation(KEYED_SCHEMA, []))
    text = engine.query(STATELESS_SQL).explain(mode="physical")
    assert "[columnar]" in text
    assert "[fused: filter+project]" in text


def test_physical_explain_columnar_off():
    engine = StreamEngine()
    engine.register_stream("S", TimeVaryingRelation(KEYED_SCHEMA, []))
    text = engine.query(STATELESS_SQL).explain(mode="physical")
    assert "Columnar: off" in text


def test_columnar_config_validation():
    """Columnar execution follows batch_size; it is no config field."""
    with pytest.raises(TypeError, match="columnar"):
        ExecutionConfig(columnar="on")


def test_columnar_cli_flag():
    """No ``--columnar`` flag: ``--batch-size`` alone decides."""
    from repro.__main__ import build_parser

    with pytest.raises(SystemExit):
        build_parser().parse_args(["--columnar", "on"])
