"""Service-mode residency: incremental feeding is replay-equivalent.

The load-bearing guarantee: a standing query fed event-by-event through
:meth:`SessionManager.ingest` produces a changelog byte-identical —
values, ``ptime``, change kind, ordering — to a one-shot ``run()``
over the same recorded events, on both the serial and the sharded
runtime.  Plus the session plumbing around it: catch-up, fan-out,
eviction, checkpoint/restore.
"""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ExecutionConfig, StreamEngine
from repro.core.schema import Schema, int_col, timestamp_col
from repro.core.tvr import TimeVaryingRelation, ins, wm
from repro.service import StandingQueryService
from repro.service.subscriptions import SubscriptionRegistry

MINUTE = 60_000

SCHEMA = Schema([int_col("k"), timestamp_col("ts", event_time=True), int_col("v")])

KEYED_WINDOW_SUM = """
    SELECT k, wend, SUM(v) AS total
    FROM Tumble(data => TABLE(S),
                timecol => DESCRIPTOR(ts),
                dur => INTERVAL '2' MINUTE) TS
    GROUP BY k, wend
    EMIT STREAM
"""

WINDOWED_MAX = (
    "SELECT TB.wend, MAX(TB.price) maxPrice "
    "FROM Tumble(data => TABLE(Bid), timecol => DESCRIPTOR(bidtime), "
    "dur => INTERVAL '10' MINUTES) TB GROUP BY TB.wend EMIT STREAM"
)


@st.composite
def event_histories(draw):
    """A random keyed stream: rows with jittered event times + watermarks."""
    steps = draw(
        st.lists(
            st.tuples(
                st.booleans(),
                st.integers(min_value=0, max_value=7),
                st.integers(min_value=-3, max_value=3),
                st.integers(min_value=0, max_value=99),
            ),
            min_size=1,
            max_size=40,
        )
    )
    events = []
    ptime = 1_000_000
    wm_value = 0
    for is_row, a, b, c in steps:
        ptime += MINUTE // 4
        if is_row:
            events.append(ins(ptime, (a, max(0, wm_value + b * MINUTE), c)))
        else:
            wm_value += a * MINUTE
            events.append(wm(ptime, wm_value))
    return events


def oneshot_changes(events, sql, parallelism=1):
    eng = StreamEngine(
        config=ExecutionConfig(parallelism=parallelism, backend="sync")
    )
    eng.register_stream("S", TimeVaryingRelation(SCHEMA, events))
    return eng.query(sql).run().changes


def service_with_empty_source(config=None, schema=SCHEMA, name="S"):
    svc = StandingQueryService(config=config)
    svc.register_stream(name, TimeVaryingRelation(schema))
    return svc


def collector(svc, query):
    """A subscriber that never falls behind: the service keeps no
    published history, so equivalence checks read what it delivered."""
    return svc.subscribe(query.query_id, "collector", capacity=1 << 30)


def drain(subscriber):
    """``(first seq, changes)`` of everything ``subscriber`` has not read."""
    start = subscriber.cursor
    return start, [d.change for d in subscriber.take()]


class TestIncrementalEquivalence:
    def test_serial_matches_oneshot_paper_stream(self, bid_stream):
        svc = service_with_empty_source(schema=bid_stream.schema, name="Bid")
        query = svc.submit("alice", WINDOWED_MAX)
        sink = collector(svc, query)
        for event in bid_stream.events():
            svc.ingest(event, "Bid")
        eng = StreamEngine()
        eng.register_stream("Bid", bid_stream)
        expected = eng.query(WINDOWED_MAX).run().changes
        assert drain(sink) == (0, expected)

    def test_sharded_matches_oneshot_paper_stream(self, bid_stream):
        svc = service_with_empty_source(schema=bid_stream.schema, name="Bid")
        query = svc.submit(
            "alice", WINDOWED_MAX, config=ExecutionConfig(parallelism=3)
        )
        assert query.sharded
        sink = collector(svc, query)
        for event in bid_stream.events():
            svc.ingest(event, "Bid")
        eng = StreamEngine()
        eng.register_stream("Bid", bid_stream)
        assert drain(sink) == (0, eng.query(WINDOWED_MAX).run().changes)

    @settings(max_examples=25, deadline=None)
    @given(
        events=event_histories(),
        parallelism=st.sampled_from([1, 2, 4]),
    )
    def test_service_feeding_equals_oneshot(self, events, parallelism):
        """The acceptance property: serve-mode ingest == one-shot replay."""
        svc = service_with_empty_source(
            config=ExecutionConfig(parallelism=parallelism, backend="sync")
        )
        query = svc.submit("t", KEYED_WINDOW_SUM)
        assert query.sharded == (parallelism > 1)
        sink = collector(svc, query)
        for event in events:
            svc.ingest(event, "S")
        assert drain(sink) == (
            0, oneshot_changes(events, KEYED_WINDOW_SUM, parallelism)
        )

    def test_unrelated_source_events_keep_equivalence(self, bid_stream):
        """Events of sources a query never scans still advance its clock."""
        svc = service_with_empty_source(schema=bid_stream.schema, name="Bid")
        svc.register_stream("Other", TimeVaryingRelation(SCHEMA))
        query = svc.submit("t", WINDOWED_MAX)
        sink = collector(svc, query)
        for i, event in enumerate(bid_stream.events()):
            svc.ingest(event, "Bid")
            if i == 3:
                svc.ingest(ins(event.ptime, (1, event.ptime, 5)), "Other")
        eng = StreamEngine()
        eng.register_stream("Bid", bid_stream)
        assert drain(sink) == (0, eng.query(WINDOWED_MAX).run().changes)

    def test_late_registration_catches_up(self, bid_stream):
        """A query admitted mid-stream replays history before going live."""
        events = bid_stream.events()
        svc = service_with_empty_source(schema=bid_stream.schema, name="Bid")
        for event in events[: len(events) // 2]:
            svc.ingest(event, "Bid")
        query = svc.submit("late", WINDOWED_MAX)
        sink = collector(svc, query)
        for event in events[len(events) // 2 :]:
            svc.ingest(event, "Bid")
        eng = StreamEngine()
        eng.register_stream("Bid", bid_stream)
        expected = eng.query(WINDOWED_MAX).run().changes
        # the caught-up history sits below the join cursor, undelivered
        start, changes = drain(sink)
        assert changes == expected[start:]
        assert query.flow.output_size == len(expected)

    def test_coalesce_config_flows_through(self, bid_stream):
        config = ExecutionConfig(coalesce_updates=True)
        svc = service_with_empty_source(
            config=config, schema=bid_stream.schema, name="Bid"
        )
        query = svc.submit("t", WINDOWED_MAX)
        sink = collector(svc, query)
        for event in bid_stream.events():
            svc.ingest(event, "Bid")
        eng = StreamEngine(config=config)
        eng.register_stream("Bid", bid_stream)
        with pytest.warns(UserWarning):
            expected = eng.query(WINDOWED_MAX).run().changes
        assert drain(sink) == (0, expected)


class TestSubscriptions:
    def test_subscribers_see_only_live_deltas(self, bid_stream):
        events = bid_stream.events()
        svc = service_with_empty_source(schema=bid_stream.schema, name="Bid")
        query = svc.submit("t", WINDOWED_MAX)
        for event in events[:6]:
            svc.ingest(event, "Bid")
        early_deltas = query.subscriptions.next_seq
        subscriber = svc.subscribe(query.query_id, "late-joiner")
        assert subscriber.cursor == early_deltas
        for event in events[6:]:
            svc.ingest(event, "Bid")
        taken = subscriber.take()
        assert [d.seq for d in taken] == list(
            range(early_deltas, query.subscriptions.next_seq)
        )
        assert subscriber.cursor == query.subscriptions.next_seq

    def test_delta_sequence_is_gap_free_and_changelog_aligned(self, bid_stream):
        svc = service_with_empty_source(schema=bid_stream.schema, name="Bid")
        query = svc.submit("t", WINDOWED_MAX)
        subscriber = svc.subscribe(query.query_id, "s")
        for event in bid_stream.events():
            svc.ingest(event, "Bid")
        deltas = subscriber.take()
        assert [d.seq for d in deltas] == list(range(len(deltas)))
        eng = StreamEngine()
        eng.register_stream("Bid", bid_stream)
        assert [d.change for d in deltas] == eng.query(WINDOWED_MAX).run().changes
        assert query.flow.output_size == len(deltas)

    def test_slow_consumer_is_evicted(self, bid_stream):
        svc = service_with_empty_source(
            config=ExecutionConfig(subscriber_capacity=2),
            schema=bid_stream.schema,
            name="Bid",
        )
        query = svc.submit("t", WINDOWED_MAX)
        slow = svc.subscribe(query.query_id, "slow")
        fast = svc.subscribe(query.query_id, "fast")
        for event in bid_stream.events():
            svc.ingest(event, "Bid")
            fast.take()  # drains every round; never evicted
        assert slow.evicted
        assert slow.depth == 0  # buffer released on eviction
        assert not fast.evicted
        assert query.subscriptions.evictions == 1
        assert query.subscriptions.live_count == 1

    def test_registry_publish_and_cursors_standalone(self):
        registry = SubscriptionRegistry(default_capacity=8)
        a = registry.subscribe("a")
        from repro.core.changelog import Change, ChangeKind

        changes = [Change(ChangeKind.INSERT, (i,), 1000 + i) for i in range(3)]
        registry.publish(changes)
        b = registry.subscribe("b")  # joins at the live edge
        assert b.cursor == 3
        assert [d.seq for d in a.take(2)] == [0, 1]
        assert a.cursor == 2
        assert [d.seq for d in a.take()] == [2]
        assert registry.delivered == 3


class TestDurability:
    def test_checkpoint_restore_resumes_byte_identical(
        self, bid_stream, tmp_path
    ):
        events = bid_stream.events()
        half = len(events) // 2
        svc = service_with_empty_source(schema=bid_stream.schema, name="Bid")
        query = svc.submit("alice", WINDOWED_MAX)
        before_crash = collector(svc, query)
        for event in events[:half]:
            svc.ingest(event, "Bid")
        svc.checkpoint(str(tmp_path))
        first_seq, first_half = drain(before_crash)

        resumed = StandingQueryService()
        assert resumed.resume(str(tmp_path)) == 1
        restored = resumed.session.get(query.query_id)
        assert restored.tenant == "alice"
        assert resumed.session.source_offsets == {"bid": half}
        sink = collector(resumed, restored)
        for event in events[half:]:
            resumed.ingest(event, "Bid")
        eng = StreamEngine()
        eng.register_stream("Bid", bid_stream)
        expected = eng.query(WINDOWED_MAX).run().changes
        # deltas before the crash plus deltas after the restore make up
        # the one-shot changelog, gap-free
        assert first_seq == 0
        assert first_half == expected[: len(first_half)]
        assert drain(sink) == (len(first_half), expected[len(first_half) :])
        assert restored.flow.output_size == len(expected)

    def test_restore_preserves_delta_sequence(self, bid_stream, tmp_path):
        events = bid_stream.events()
        half = len(events) // 2
        svc = service_with_empty_source(schema=bid_stream.schema, name="Bid")
        query = svc.submit("t", WINDOWED_MAX)
        for event in events[:half]:
            svc.ingest(event, "Bid")
        seq_before = query.subscriptions.next_seq
        svc.checkpoint(str(tmp_path))

        resumed = StandingQueryService()
        resumed.resume(str(tmp_path))
        restored = resumed.session.get(query.query_id)
        subscriber = resumed.subscribe(query.query_id, "s")
        assert subscriber.cursor == seq_before
        for event in events[half:]:
            resumed.ingest(event, "Bid")
        # post-restore deltas continue the pre-crash numbering, gap-free
        assert [d.seq for d in subscriber.take()] == list(
            range(seq_before, restored.subscriptions.next_seq)
        )

    def test_restore_reapplies_current_policies(self, bid_stream, tmp_path):
        from repro.service import AdmissionError, TenantPolicy

        svc = service_with_empty_source(schema=bid_stream.schema, name="Bid")
        svc.submit("alice", WINDOWED_MAX)
        svc.checkpoint(str(tmp_path))

        locked = StandingQueryService(
            policies={
                "alice": TenantPolicy(
                    name="alice", allowed_tables=frozenset()
                )
            }
        )
        with pytest.raises(AdmissionError) as exc_info:
            locked.resume(str(tmp_path))
        assert exc_info.value.code == "acl_denied"

    def test_auto_checkpoint_on_interval(self, bid_stream, tmp_path):
        from repro.runtime.supervisor import RetryPolicy

        config = ExecutionConfig(
            retry=RetryPolicy(checkpoint_interval=4),
            checkpoint_dir=str(tmp_path),
        )
        svc = service_with_empty_source(
            config=config, schema=bid_stream.schema, name="Bid"
        )
        svc.submit("t", WINDOWED_MAX)
        for event in bid_stream.events():
            svc.ingest(event, "Bid")
        assert svc.session.checkpoints_taken == len(bid_stream.events()) // 4
        assert os.path.exists(tmp_path / "manifest.json")

    def test_checkpoint_without_directory_is_an_error(self, bid_stream):
        from repro.core.errors import ExecutionError

        svc = service_with_empty_source(schema=bid_stream.schema, name="Bid")
        with pytest.raises(ExecutionError):
            svc.checkpoint()


class TestRegistry:
    def test_explicit_id_collision_is_an_error(self, bid_stream):
        from repro.core.errors import ExecutionError

        svc = service_with_empty_source(schema=bid_stream.schema, name="Bid")
        svc.submit("t", WINDOWED_MAX, query_id="mine")
        with pytest.raises(ExecutionError):
            svc.submit("t", WINDOWED_MAX, query_id="mine")

    def test_withdraw_frees_quota(self, bid_stream):
        from repro.service import TenantPolicy

        svc = service_with_empty_source(schema=bid_stream.schema, name="Bid")
        svc.gateway.set_policy(
            TenantPolicy(name="small", max_standing_queries=1)
        )
        query = svc.submit("small", WINDOWED_MAX)
        assert svc.withdraw(query.query_id)
        svc.submit("small", WINDOWED_MAX)  # admitted again

    def test_ingest_to_unknown_source_is_an_error(self, bid_stream):
        from repro.core.errors import ExecutionError

        svc = service_with_empty_source(schema=bid_stream.schema, name="Bid")
        with pytest.raises(ExecutionError):
            svc.ingest(ins(1, (1, 1, 1)), "Ghost")


def keyed_events(n, start=1_000_000):
    """Keyed rows with a watermark every fifth event."""
    events, ptime, wm_value = [], start, 0
    for i in range(n):
        ptime += 15_000
        if i % 5 == 4:
            wm_value += 2 * MINUTE
            events.append(wm(ptime, wm_value))
        else:
            events.append(ins(ptime, (i % 3, (i * 37_000) % (10 * MINUTE), i)))
    return events


def retained_output(query):
    """Changes the query's flow still holds for its output channel."""
    flow, output_id = query.flow, query.output_id
    if query.sharded:
        return len(flow._outputs[output_id].merged) + sum(
            len(shard._outputs[output_id].changes) for shard in flow.shards
        )
    return len(flow._outputs[output_id].changes)


class TestRetention:
    """Published history is released: the flow keeps none of it, and
    the broadcast log keeps only what the slowest live subscriber has
    not read."""

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_retention_bounded_by_largest_lag(self, parallelism):
        events = keyed_events(120)
        svc = service_with_empty_source(
            config=ExecutionConfig(parallelism=parallelism, backend="sync")
        )
        query = svc.submit("t", KEYED_WINDOW_SUM)
        assert query.sharded == (parallelism > 1)
        fast = svc.subscribe(query.query_id, "fast")
        slow = svc.subscribe(query.query_id, "slow")
        lags = []
        for index, event in enumerate(events):
            svc.ingest(event, "S")
            fast.take()
            if index % 7 == 6:
                slow.take(limit=5)
            lag = max(s.depth for s in query.subscriptions.subscribers())
            lags.append(lag)
            assert query.subscriptions.log_size <= lag
            assert retained_output(query) == 0  # published means released
        assert max(lags) > 0  # the slow subscriber really lagged
        assert not slow.evicted
        expected = oneshot_changes(events, KEYED_WINDOW_SUM, parallelism)
        assert query.flow.output_size_of(query.output_id) == len(expected)
        assert query.subscriptions.next_seq == len(expected)
        # the laggard still reads its backlog, in order, from the log
        backlog = slow.take()
        assert [d.change for d in backlog] == expected[len(expected) - len(backlog) :]
        assert query.subscriptions.log_size == 0

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_checkpoint_does_not_grow_with_published_history(
        self, parallelism, tmp_path
    ):
        """A stateless passthrough over rows only: nothing but the
        published changelog could make the blob grow."""
        svc = service_with_empty_source(
            config=ExecutionConfig(parallelism=parallelism, backend="sync")
        )
        query = svc.submit("t", "SELECT k, ts, v FROM S EMIT STREAM")
        assert query.sharded == (parallelism > 1)
        subscriber = svc.subscribe(query.query_id, "s")
        blob = tmp_path / f"{query.query_id}.ckpt"
        sizes = []
        for i in range(600):
            svc.ingest(ins(1_000 + 10 * i, (i % 3, 1_000 * i, i)), "S")
            subscriber.take()
            if i % 200 == 199:
                svc.checkpoint(str(tmp_path))
                sizes.append(blob.stat().st_size)
        assert query.subscriptions.next_seq == 600
        # 400 more published changes, not one of them in the blob
        assert sizes[-1] - sizes[0] < 64, sizes
