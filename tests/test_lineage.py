"""Delta lineage: deterministic sampling, provenance, byte-identity.

The load-bearing guarantees, mirroring docs/OBSERVABILITY.md:

* sampling is a pure function of ``(source, sequence)`` — no wall
  clock, no RNG — so reruns trace identical events;
* the output changelog is **byte-identical** with tracing on, off, or
  sampled, serial and sharded, shared and unshared plans (tracing rides
  alongside the data path as cause tokens, never in it);
* a subscriber delta explains back to concrete source rows through the
  operator path, with ``[shared ×k]`` attribution on shared subplans
  and shard tags on sharded flows;
* lineage survives checkpoint/restore, and the trace store is bounded
  (whole-trace eviction, counted in ``dropped``).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ExecutionConfig, StreamEngine
from repro.core.tvr import TimeVaryingRelation, ins, wm
from repro.obs.lineage import LineageRecorder, is_sampled, sample_hash
from repro.obs.trace import TraceCollector, TraceEvent

from .test_mqo import (
    MINUTE,
    Q_MAX,
    Q_SUM,
    Q_SUM_ALIASED,
    SCHEMA,
    PublishingService,
    expected_from,
    make_events,
    oneshot_changes,
    query_changes,
    service_with_source,
)


def run_standing(events, sqls, config, tenant="t"):
    """Submit ``sqls``, subscribe to each, ingest ``events``; return
    (changelogs, delta streams) for byte-identity comparison."""
    svc = service_with_source(config=config)
    queries = [svc.submit(tenant, sql) for sql in sqls]
    subscribers = [
        svc.subscribe(q.query_id, f"sub-{i}") for i, q in enumerate(queries)
    ]
    for event in events:
        svc.ingest(event, "S")
    changelogs = []
    for query in queries:
        start, changes = query_changes(query)
        assert start == 0  # admitted before the first event
        changelogs.append(changes)
    deltas = [
        [(d.seq, d.change) for d in sub.take()] for sub in subscribers
    ]
    return svc, queries, changelogs, deltas


class TestSampling:
    def test_sample_hash_is_deterministic(self):
        assert sample_hash("bid", 7) == sample_hash("bid", 7)
        assert sample_hash("bid", 7) != sample_hash("bid", 8)
        assert sample_hash("bid", 7) != sample_hash("ask", 7)

    def test_rate_zero_samples_nothing_rate_one_everything(self):
        assert not any(is_sampled("s", seq, 0) for seq in range(100))
        assert all(is_sampled("s", seq, 1) for seq in range(100))

    def test_one_in_n_hits_roughly_a_fraction(self):
        hits = sum(is_sampled("s", seq, 8) for seq in range(4096))
        assert 0 < hits < 4096
        assert abs(hits / 4096 - 1 / 8) < 0.05

    def test_recorder_lowercases_source_names(self):
        rec = LineageRecorder(sample_rate=1)
        cause = rec.begin_event("Bid", kind="source", values=(1,), ptime=5)
        assert cause is not None
        assert rec.next_seq("BID") == 1  # same counter as "Bid"


class TestExplain:
    def test_delta_explains_to_source_rows_and_path(self):
        config = ExecutionConfig(lineage_sample=1)
        svc, (query,), (changes,), _ = run_standing(
            make_events(30), [Q_SUM], config
        )
        assert changes  # the query produced output
        recorder = query.flow.lineage
        positions = recorder.traced_positions(query.output_id)
        assert positions == list(range(len(changes)))
        explanation = svc.explain_delta(query.query_id, positions[0])
        assert explanation["output_id"] == query.query_id
        assert explanation["sources"], "no source rows attributed"
        for row in explanation["sources"]:
            assert row["source"] == "s"
            assert row["kind"] in ("source", "watermark")
        assert explanation["path"], "no operator path recorded"
        operators = [step["operator"] for step in explanation["path"]]
        assert any("scan" in op.lower() for op in operators)

    def test_shared_subplan_attribution(self):
        config = ExecutionConfig(lineage_sample=1, share_plans=True)
        svc, queries, changelogs, _ = run_standing(
            make_events(30), [Q_SUM, Q_SUM_ALIASED], config
        )
        q1, q2 = queries
        assert q1.flow is q2.flow  # grafted onto one dataflow
        explanation = svc.explain_delta(q1.query_id, 0)
        assert explanation is not None
        shared = [s for s in explanation["path"] if s["shared_by"] >= 2]
        assert shared, "no [shared ×k] step on a shared plan"

    def test_sharded_path_carries_shard_tags(self):
        config = ExecutionConfig(parallelism=2, lineage_sample=1)
        svc, (query,), (changes,), _ = run_standing(
            make_events(30), [Q_SUM], config
        )
        assert query.sharded
        assert changes
        explanation = svc.explain_delta(query.query_id, 0)
        assert explanation is not None
        shards = {s["shard"] for s in explanation["path"]}
        assert shards and shards != {None}

    def test_unsampled_position_returns_none(self):
        config = ExecutionConfig(lineage_sample=0)
        svc, (query,), (changes,), _ = run_standing(
            make_events(20), [Q_SUM], config
        )
        assert svc.explain_delta(query.query_id, 0) is None

    def test_unknown_query_raises(self):
        from repro.core.errors import ExecutionError

        svc = service_with_source(config=ExecutionConfig(lineage_sample=1))
        with pytest.raises(ExecutionError):
            svc.explain_delta("nope", 0)


class TestByteIdentity:
    @pytest.mark.parametrize("parallelism", [1, 2])
    @pytest.mark.parametrize("share", [True, False])
    def test_changelogs_identical_across_sampling_rates(
        self, parallelism, share
    ):
        events = make_events(40)
        sqls = [Q_SUM, Q_MAX]
        baseline = None
        for sample in (0, 1, 4):
            config = ExecutionConfig(
                parallelism=parallelism,
                share_plans=share,
                lineage_sample=sample,
            )
            _, _, changelogs, deltas = run_standing(events, sqls, config)
            if baseline is None:
                baseline = (changelogs, deltas)
            else:
                assert (changelogs, deltas) == baseline, (
                    f"sample={sample} changed the changelog"
                )
        # and the service changelog equals the one-shot oracle
        assert baseline[0][0] == oneshot_changes(events, Q_SUM, parallelism)

    @settings(max_examples=25, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.integers(0, 3),
                st.integers(0, 9),
                st.integers(-50, 50),
            ),
            min_size=1,
            max_size=30,
        ),
        sample=st.sampled_from([1, 3, 7]),
        parallelism=st.sampled_from([1, 2]),
        share=st.booleans(),
    )
    def test_property_tracing_never_touches_the_changelog(
        self, rows, sample, parallelism, share
    ):
        events, ptime = [], 1_000_000
        for i, (k, w, v) in enumerate(rows):
            ptime += 10_000
            events.append(ins(ptime, (k, w * MINUTE, v)))
            if i % 4 == 3:
                ptime += 1_000
                events.append(wm(ptime, (i // 4 + 1) * 2 * MINUTE))
        sqls = [Q_SUM, Q_SUM_ALIASED] if share else [Q_SUM]
        off = ExecutionConfig(
            parallelism=parallelism, share_plans=share, lineage_sample=0
        )
        on = ExecutionConfig(
            parallelism=parallelism, share_plans=share, lineage_sample=sample
        )
        _, _, base_changes, base_deltas = run_standing(events, sqls, off)
        _, _, traced_changes, traced_deltas = run_standing(events, sqls, on)
        assert traced_changes == base_changes
        assert traced_deltas == base_deltas


class TestCheckpointRestore:
    def test_lineage_survives_checkpoint_restore(self, tmp_path):
        config = ExecutionConfig(
            lineage_sample=1, checkpoint_dir=str(tmp_path)
        )
        events = make_events(40)
        svc = service_with_source(config=config)
        query = svc.submit("t", Q_SUM)
        for event in events[:25]:
            svc.ingest(event, "S")
        svc.checkpoint()
        before = query.flow.lineage.traced_positions(query.query_id)

        resumed = StandingQueryService_resume(config)
        restored = resumed.session.get(query.query_id)
        recorder = restored.flow.lineage
        assert recorder is not None
        assert recorder.traced_positions(query.query_id) == before
        # provenance recorded before the cut still explains
        if before:
            explanation = resumed.explain_delta(query.query_id, before[0])
            assert explanation is not None and explanation["sources"]
        # and the resumed flow keeps tracing new deltas
        for event in events[25:]:
            resumed.ingest(event, "S")
        after = recorder.traced_positions(query.query_id)
        assert len(after) >= len(before)
        assert query_changes(restored) == expected_from(
            restored, oneshot_changes(events, Q_SUM)
        )

    def test_sharded_lineage_survives_restore(self, tmp_path):
        config = ExecutionConfig(
            parallelism=2, lineage_sample=1, checkpoint_dir=str(tmp_path)
        )
        events = make_events(40)
        svc = service_with_source(config=config)
        query = svc.submit("t", Q_SUM)
        for event in events[:25]:
            svc.ingest(event, "S")
        svc.checkpoint()

        resumed = StandingQueryService_resume(config)
        restored = resumed.session.get(query.query_id)
        assert restored.sharded
        assert restored.flow.lineage is not None
        for event in events[25:]:
            resumed.ingest(event, "S")
        assert query_changes(restored) == expected_from(
            restored, oneshot_changes(events, Q_SUM, 2)
        )
        assert restored.flow.lineage.traced_positions(query.query_id)


def StandingQueryService_resume(config):
    """A fresh service resumed from ``config.checkpoint_dir``."""
    from repro.service.admission import TenantPolicy

    svc = PublishingService(
        config=config,
        default_policy=TenantPolicy(name="*", max_standing_queries=8),
    )
    assert svc.resume() >= 1
    return svc


class TestBoundedStores:
    def test_recorder_evicts_whole_traces_past_max(self):
        rec = LineageRecorder(sample_rate=1, max_traces=4)
        for seq in range(10):
            cause = rec.begin_event(
                "s", kind="source", values=(seq,), ptime=seq
            )
            cause = rec.record_operator(cause, "scan(s)", produced=1)
            rec.record_output(cause, "q1", range(seq, seq + 1))
        summary = rec.summary()
        assert summary["sampled"] == 10
        assert summary["retained"] == 4
        assert summary["dropped"] == 6
        positions = rec.traced_positions("q1")
        assert positions == [6, 7, 8, 9]  # oldest evicted first
        assert rec.explain("q1", 0) is None
        assert rec.explain("q1", 9) is not None

    def test_trace_collector_ring_drops_oldest_but_counts_exactly(self):
        collector = TraceCollector(max_events=3)
        for i in range(8):
            collector(TraceEvent(kind="batch", ptime=i, count=2))
        assert len(collector.events) == 3
        assert [e.ptime for e in collector.events] == [5, 6, 7]
        assert collector.dropped == 5
        summary = collector.summary()
        assert summary["batches"] == 8  # exact despite the drops
        assert summary["changes"] == 16
        assert summary["dropped"] == 5

    def test_trace_collector_unbounded_mode(self):
        collector = TraceCollector(max_events=None)
        for i in range(10):
            collector(TraceEvent(kind="watermark", ptime=i, value=i))
        assert len(collector.events) == 10
        assert collector.dropped == 0

    def test_trace_collector_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            TraceCollector(max_events=0)
