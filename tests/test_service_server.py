"""Live sources, the line-JSON server, the shell commands, the CLI.

The asyncio pieces run under ``asyncio.run`` inside ordinary pytest
functions, so no plugin is needed.
"""

import asyncio
import io
import json
import os

import pytest

from repro import ExecutionConfig, StreamEngine
from repro.core.tvr import TimeVaryingRelation, ins, wm
from repro.io import format_jsonl, format_script
from repro.service import (
    LiveSource,
    ServiceServer,
    StandingQueryService,
    TailReader,
    pump,
)
from repro.shell import Shell

WINDOWED_MAX = (
    "SELECT TB.wend, MAX(TB.price) maxPrice "
    "FROM Tumble(data => TABLE(Bid), timecol => DESCRIPTOR(bidtime), "
    "dur => INTERVAL '10' MINUTES) TB GROUP BY TB.wend EMIT STREAM"
)


def empty_service(bid_stream, config=None):
    svc = StandingQueryService(config=config)
    svc.register_stream("Bid", TimeVaryingRelation(bid_stream.schema))
    return svc


class TestTailReader:
    def test_reads_appended_chunks(self, bid_stream, tmp_path):
        path = tmp_path / "feed.jsonl"
        lines = format_jsonl(bid_stream).splitlines(keepends=True)
        reader = TailReader(str(path))
        assert reader.poll() == []  # file does not exist yet
        path.write_text("".join(lines[:3]))
        first = reader.poll()
        with open(path, "a") as handle:
            handle.write("".join(lines[3:]))
        rest = reader.poll() + reader.close()
        assert first + rest == bid_stream.events()

    def test_partial_final_line_buffers_until_complete(
        self, bid_stream, tmp_path
    ):
        path = tmp_path / "feed.script"
        lines = format_script(bid_stream).splitlines(keepends=True)
        reader = TailReader(str(path))
        path.write_text("".join(lines[:2]) + lines[2][:10])  # mid-write
        got = reader.poll()
        assert len(got) == 1  # the cut line stays buffered, no error
        with open(path, "a") as handle:
            handle.write(lines[2][10:] + "".join(lines[3:]))
        got += reader.poll() + reader.close()
        assert got == bid_stream.events()

    def test_skip_resumes_past_consumed_events(self, bid_stream, tmp_path):
        path = tmp_path / "feed.jsonl"
        path.write_text(format_jsonl(bid_stream))
        reader = TailReader(str(path), skip=4)
        assert reader.poll() + reader.close() == bid_stream.events()[4:]


class TestPump:
    def test_merges_sources_by_ptime(self):
        a_events = [ins(100, (1,)), ins(300, (3,))]
        b_events = [ins(200, (2,)), ins(400, (4,))]

        async def drive():
            a, b = LiveSource("a"), LiveSource("b")
            order = []
            for source, events in ((a, a_events), (b, b_events)):
                for event in events:
                    await source.put(event)
                await source.end()
            dropped = await pump(
                [a, b], lambda event, name: order.append((event.ptime, name))
            )
            return order, dropped

        order, dropped = asyncio.run(drive())
        assert order == [(100, "a"), (200, "b"), (300, "a"), (400, "b")]
        assert dropped == 0

    def test_regressing_events_are_dropped_not_ingested(self):
        async def drive():
            source = LiveSource("s")
            for event in [ins(500, (1,)), ins(100, (2,)), ins(600, (3,))]:
                await source.put(event)
            await source.end()
            seen = []
            dropped = await pump(
                [source], lambda event, name: seen.append(event.ptime)
            )
            return seen, dropped

        seen, dropped = asyncio.run(drive())
        assert seen == [500, 600]
        assert dropped == 1


class TestServerProtocol:
    def run_session(self, service, script):
        """Start a server, run ``script(rpc, reader)``, return its result."""

        async def drive():
            server = ServiceServer(service, "127.0.0.1", 0)
            await server.start()
            host, port = server.address
            reader, writer = await asyncio.open_connection(host, port)

            async def rpc(payload):
                writer.write((json.dumps(payload) + "\n").encode())
                await writer.drain()
                return json.loads(await reader.readline())

            try:
                return await script(rpc, reader, server)
            finally:
                writer.close()
                await server.stop()

        return asyncio.run(drive())

    def test_submit_subscribe_ingest_stream(self, bid_stream):
        service = empty_service(bid_stream)
        feed_lines = [
            line
            for line in format_jsonl(bid_stream).splitlines()
            if "schema" not in line
        ]

        async def script(rpc, reader, server):
            admitted = await rpc(
                {"op": "submit", "tenant": "alice", "sql": WINDOWED_MAX}
            )
            assert admitted["ok"] and admitted["schema"] == ["wend", "maxPrice"]
            sub = await rpc(
                {"op": "subscribe", "query": admitted["query"],
                 "subscriber": "a1"}
            )
            assert sub["ok"] and sub["cursor"] == 0
            rejected = await rpc(
                {"op": "submit", "tenant": "bob", "sql": "SELECT * FROM Nope"}
            )
            assert not rejected["ok"]
            assert rejected["error"]["code"] == "unknown_table"

            deltas = []
            for line in feed_lines:
                await rpc({"op": "ingest", "source": "Bid", "event": line})
                while True:
                    try:
                        raw = await asyncio.wait_for(
                            reader.readline(), timeout=0.05
                        )
                    except asyncio.TimeoutError:
                        break
                    message = json.loads(raw)
                    if "delta" in message:
                        deltas.append(message["delta"])
            listing = await rpc({"op": "queries"})
            scrape = await rpc({"op": "metrics"})
            return deltas, listing, scrape

        deltas, listing, scrape = self.run_session(service, script)

        eng = StreamEngine()
        eng.register_stream("Bid", bid_stream)
        expected = eng.query(WINDOWED_MAX).run().changes
        assert [
            (d["ptime"], d["kind"], tuple(d["values"])) for d in deltas
        ] == [
            (
                c.ptime,
                "insert" if c.is_insert else "retract",
                tuple(c.values),
            )
            for c in expected
        ]
        assert [d["seq"] for d in deltas] == list(range(len(deltas)))

        assert listing["ok"] and len(listing["queries"]) == 1
        assert listing["queries"][0]["tenant"] == "alice"

        from repro.obs.export import parse_exposition

        families = parse_exposition(scrape["exposition"])
        text = scrape["exposition"]
        assert "repro_service_active_queries 1" in text
        assert 'repro_service_admission_rejects_total{code="unknown_table"} 1' in text
        assert f"repro_service_delivered_deltas_total" in text
        assert "repro_service_events_ingested_total" in text

    def test_unknown_op_and_bad_json(self, bid_stream):
        service = empty_service(bid_stream)

        async def script(rpc, reader, server):
            bad_op = await rpc({"op": "frobnicate"})
            ping = await rpc({"op": "ping"})
            return bad_op, ping

        bad_op, ping = self.run_session(service, script)
        assert not bad_op["ok"] and "unknown op" in bad_op["error"]["detail"]
        assert ping == {"ok": True}

    def test_live_tail_through_server(self, bid_stream, tmp_path):
        service = empty_service(bid_stream)
        path = tmp_path / "bids.jsonl"
        lines = format_jsonl(bid_stream).splitlines(keepends=True)
        path.write_text("".join(lines[: len(lines) // 2]))

        async def drive():
            server = ServiceServer(service, "127.0.0.1", 0)
            await server.start()
            query = service.submit("alice", WINDOWED_MAX)
            subscriber = service.subscribe(query.query_id, "local")
            server.add_tail("Bid", str(path), poll_interval=0.01)
            server.start_pump()
            await asyncio.sleep(0.05)
            with open(path, "a") as handle:
                handle.write("".join(lines[len(lines) // 2 :]))
            await asyncio.sleep(0.1)
            server._follow = False
            await server.drain()
            await server.stop()
            return query, subscriber

        query, subscriber = asyncio.run(drive())
        eng = StreamEngine()
        eng.register_stream("Bid", bid_stream)
        expected = eng.query(WINDOWED_MAX).run().changes
        # the flow keeps no published history, only absolute positions
        assert query.flow.output_size == len(expected)
        assert [d.change for d in subscriber.take()] == expected


class TestShellCommands:
    @pytest.fixture
    def loaded_shell(self, bid_stream, tmp_path):
        shell = Shell()
        schema_only = tmp_path / "schema.script"
        schema_only.write_text(
            format_script(bid_stream).splitlines(keepends=True)[0]
        )
        feed = tmp_path / "feed.jsonl"
        feed.write_text(format_jsonl(bid_stream))
        shell.feed(f"\\load Bid {schema_only}")
        return shell, str(feed)

    def test_subscribe_queries_pump_roundtrip(self, loaded_shell, bid_stream):
        shell, feed = loaded_shell
        out = shell.feed(f"\\subscribe alice {WINDOWED_MAX};")
        assert "admitted q1 for tenant alice" in out
        assert "(no standing queries)" not in shell.feed("\\queries")
        out = shell.feed(f"\\pump Bid {feed}")
        assert f"pumped {len(bid_stream.events())} events" in out
        eng = StreamEngine()
        eng.register_stream("Bid", bid_stream)
        expected = eng.query(WINDOWED_MAX).run().changes
        # one printed line per delta, after the header
        assert len(out.splitlines()) == 1 + len(expected)

    def test_subscribe_rejection_is_reported(self, loaded_shell):
        shell, _ = loaded_shell
        out = shell.feed("\\subscribe bob SELECT * FROM Secrets;")
        assert out.startswith("rejected [unknown_table]")

    def test_queries_empty(self):
        assert Shell().feed("\\queries") == "(no standing queries)"

    def test_usage_lines(self):
        shell = Shell()
        assert "usage" in shell.feed("\\subscribe onlytenant")
        assert "usage" in shell.feed("\\pump onlyname")


class TestWatchInterrupt:
    def test_ctrl_c_restores_cursor_and_prints_final_frame(self, engine):
        shell = Shell(engine)
        sink = io.StringIO()
        shell.watch_sink = sink
        original = engine.query("SELECT * FROM Bid").dataflow().process

        calls = {"n": 0}

        from repro.exec.executor import Dataflow

        real_process = Dataflow.process

        def interrupting(self, event, source):
            calls["n"] += 1
            if calls["n"] == 4:
                raise KeyboardInterrupt
            return real_process(self, event, source)

        import repro.exec.executor as executor_module

        Dataflow.process = interrupting
        try:
            out = shell._command("\\watch SELECT * FROM Bid;")
        finally:
            Dataflow.process = real_process

        assert "(interrupted after" in out
        written = sink.getvalue()
        assert written.startswith("\x1b[?25l")  # cursor hidden for the run
        assert written.endswith("\x1b[?25h\x1b[0m")  # ...and restored

    def test_uninterrupted_watch_still_returns_final_frame(self, engine):
        shell = Shell(engine)
        sink = io.StringIO()
        shell.watch_sink = sink
        out = shell._command("\\watch SELECT * FROM Bid;")
        assert "(interrupted" not in out
        written = sink.getvalue()
        assert written.startswith("\x1b[?25l")
        assert written.endswith("\x1b[?25h\x1b[0m")


class TestServeCli:
    def test_build_serve_config_carries_service_fields(self):
        from repro.__main__ import build_config, build_serve_parser

        args = build_serve_parser().parse_args(
            [
                "--queue-capacity", "16",
                "--subscriber-capacity", "4",
                "--checkpoint-dir", "/tmp/ckpt",
                "--parallelism", "2",
            ]
        )
        config = build_config(args)
        assert config.queue_capacity == 16
        assert config.subscriber_capacity == 4
        assert config.checkpoint_dir == "/tmp/ckpt"
        assert config.parallelism == 2

    def test_register_recorded_bounded_vs_stream(self, bid_stream, tmp_path):
        from repro.__main__ import _register_recorded

        service = StandingQueryService()
        stream_path = tmp_path / "s.jsonl"
        stream_path.write_text(format_jsonl(bid_stream))
        count = _register_recorded(service, "Bid", str(stream_path))
        assert count == len(bid_stream.events())
        assert not service.engine.source("Bid").is_bounded

    def test_register_tail_schema_requires_schema_line(
        self, bid_stream, tmp_path
    ):
        from repro.__main__ import _register_tail_schema

        service = StandingQueryService()
        good = tmp_path / "good.jsonl"
        good.write_text(format_jsonl(bid_stream))
        _register_tail_schema(service, "Bid", str(good))
        assert service.engine.source("Bid").schema == bid_stream.schema

        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"ptime": 1, "insert": [1, 2, 3]}\n')
        with pytest.raises(SystemExit):
            _register_tail_schema(service, "Nope", str(bad))

    def test_load_policies_list_and_object_forms(self, tmp_path):
        from repro.__main__ import _load_policies

        as_list = tmp_path / "list.json"
        as_list.write_text(json.dumps([{"name": "alice"}]))
        policies, default = _load_policies(str(as_list))
        assert "alice" in policies and default is not None

        as_object = tmp_path / "object.json"
        as_object.write_text(
            json.dumps({"tenants": [{"name": "bob"}], "default": None})
        )
        policies, default = _load_policies(str(as_object))
        assert "bob" in policies and default is None


class TestTenantAuth:
    """Token mode closes the tenant-spoofing hole: with any token
    configured, the request's ``tenant`` field is only believed when it
    matches the connection's authenticated identity."""

    def auth_service(self, bid_stream):
        from repro.service.admission import TenantPolicy

        svc = StandingQueryService(
            policies={"alice": TenantPolicy(name="alice", token="s3cret")}
        )
        svc.register_stream("Bid", TimeVaryingRelation(bid_stream.schema))
        return svc

    def run_session(self, service, script):
        return TestServerProtocol().run_session(service, script)

    def test_unauthenticated_submit_is_rejected(self, bid_stream):
        service = self.auth_service(bid_stream)

        async def script(rpc, reader, server):
            return await rpc(
                {"op": "submit", "tenant": "alice", "sql": WINDOWED_MAX}
            )

        response = self.run_session(service, script)
        assert not response["ok"]
        assert response["error"]["code"] == "auth_denied"
        assert service.metrics.rejects["auth_denied"] == 1

    def test_wrong_token_is_rejected(self, bid_stream):
        service = self.auth_service(bid_stream)

        async def script(rpc, reader, server):
            return await rpc(
                {"op": "auth", "tenant": "alice", "token": "wrong"}
            )

        response = self.run_session(service, script)
        assert not response["ok"]
        assert response["error"]["code"] == "auth_denied"

    def test_tokenless_tenant_cannot_authenticate(self, bid_stream):
        service = self.auth_service(bid_stream)

        async def script(rpc, reader, server):
            return await rpc({"op": "auth", "tenant": "mallory", "token": ""})

        response = self.run_session(service, script)
        assert not response["ok"]
        assert response["error"]["code"] == "auth_denied"
        assert "no token configured" in response["error"]["detail"]

    def test_authenticated_submit_and_spoof_rejection(self, bid_stream):
        service = self.auth_service(bid_stream)

        async def script(rpc, reader, server):
            login = await rpc(
                {"op": "auth", "tenant": "alice", "token": "s3cret"}
            )
            own = await rpc(
                {"op": "submit", "tenant": "alice", "sql": WINDOWED_MAX}
            )
            spoofed = await rpc(
                {"op": "submit", "tenant": "bob", "sql": WINDOWED_MAX}
            )
            implicit = await rpc({"op": "submit", "sql": WINDOWED_MAX})
            return login, own, spoofed, implicit

        login, own, spoofed, implicit = self.run_session(service, script)
        assert login == {"ok": True, "tenant": "alice"}
        assert own["ok"]
        assert not spoofed["ok"]
        assert spoofed["error"]["code"] == "auth_denied"
        assert "does not match" in spoofed["error"]["detail"]
        assert implicit["ok"]  # no tenant claim: the session's identity
        queries = service.list_queries()
        assert {q["tenant"] for q in queries} == {"alice"}

    def test_auth_state_is_per_connection(self, bid_stream):
        service = self.auth_service(bid_stream)

        async def drive():
            server = ServiceServer(service, "127.0.0.1", 0)
            await server.start()
            host, port = server.address

            async def rpc(reader, writer, payload):
                writer.write((json.dumps(payload) + "\n").encode())
                await writer.drain()
                return json.loads(await reader.readline())

            r1, w1 = await asyncio.open_connection(host, port)
            r2, w2 = await asyncio.open_connection(host, port)
            try:
                await rpc(r1, w1, {"op": "auth", "tenant": "alice",
                                   "token": "s3cret"})
                other = await rpc(
                    r2, w2,
                    {"op": "submit", "tenant": "alice", "sql": WINDOWED_MAX},
                )
                return other
            finally:
                w1.close()
                w2.close()
                await server.stop()

        other = asyncio.run(drive())
        assert not other["ok"]
        assert other["error"]["code"] == "auth_denied"

    def test_policy_json_carries_tokens(self, tmp_path):
        from repro.__main__ import _load_policies

        path = tmp_path / "policies.json"
        path.write_text(json.dumps([{"name": "alice", "token": "s3cret"}]))
        policies, _ = _load_policies(str(path))
        assert policies["alice"].token == "s3cret"


class TestListenSource:
    def test_socket_feed_end_to_end(self, bid_stream):
        service = empty_service(bid_stream)
        feed_lines = [
            line
            for line in format_jsonl(bid_stream).splitlines()
            if "schema" not in line
        ]

        async def drive():
            server = ServiceServer(service, "127.0.0.1", 0)
            await server.start()
            query = service.submit("alice", WINDOWED_MAX)
            subscriber = service.subscribe(query.query_id, "local")
            await server.listen_source("Bid", "127.0.0.1", 0)
            _, sock_server = server._socket_servers[-1]
            host, port = sock_server.sockets[0].getsockname()[:2]
            server.start_pump()
            reader, writer = await asyncio.open_connection(host, port)
            for line in feed_lines:
                writer.write((line + "\n").encode())
            await writer.drain()
            writer.close()
            await asyncio.sleep(0.1)
            server._follow = False
            await server.drain()
            await server.stop()
            return query, subscriber

        query, subscriber = asyncio.run(drive())
        eng = StreamEngine()
        eng.register_stream("Bid", bid_stream)
        expected = eng.query(WINDOWED_MAX).run().changes
        # the flow keeps no published history, only absolute positions
        assert query.flow.output_size == len(expected)
        assert [d.change for d in subscriber.take()] == expected

    def test_socket_and_tail_share_one_source(self, bid_stream, tmp_path):
        """A tail and a socket listener on the same source must feed
        one shared queue — the pump merges by name, so a duplicate
        LiveSource would be silently shadowed and its events lost."""
        service = empty_service(bid_stream)
        lines = format_jsonl(bid_stream).splitlines()
        schema_line, events = lines[0], lines[1:]
        half = len(events) // 2
        feed = tmp_path / "bids.jsonl"
        feed.write_text("\n".join([schema_line] + events[:half]) + "\n")

        async def drive():
            server = ServiceServer(service, "127.0.0.1", 0)
            await server.start()
            query = service.submit("alice", WINDOWED_MAX)
            sink = service.subscribe(query.query_id, "sink", capacity=1 << 30)
            server.add_tail("Bid", str(feed))
            await server.listen_source("Bid", "127.0.0.1", 0)
            assert len(server.sources) == 1  # one queue, two producers
            _, sock_server = server._socket_servers[-1]
            host, port = sock_server.sockets[0].getsockname()[:2]
            server.start_pump()
            await asyncio.sleep(0.2)  # the tailed half ingests first
            reader, writer = await asyncio.open_connection(host, port)
            for line in events[half:]:
                writer.write((line + "\n").encode())
            await writer.drain()
            writer.close()
            await asyncio.sleep(0.1)
            server._follow = False
            await server.drain()
            await server.stop()
            return sink

        sink = asyncio.run(drive())
        eng = StreamEngine()
        eng.register_stream("Bid", bid_stream)
        expected = eng.query(WINDOWED_MAX).run().changes
        assert [d.change for d in sink.take()] == expected

    def test_listen_source_requires_registered_source(self, bid_stream):
        service = empty_service(bid_stream)

        async def drive():
            server = ServiceServer(service, "127.0.0.1", 0)
            await server.start()
            try:
                await server.listen_source("Nope", "127.0.0.1", 0)
            finally:
                await server.stop()

        with pytest.raises(Exception):
            asyncio.run(drive())

    def test_split_listen_source_spec(self):
        from repro.__main__ import _split_listen_source

        assert _split_listen_source("Bid=0.0.0.0:9000") == (
            "Bid", "0.0.0.0", 9000
        )
        assert _split_listen_source("Bid=:9000") == ("Bid", "127.0.0.1", 9000)
        for bad in ("Bid", "Bid=localhost", "Bid=localhost:nope"):
            with pytest.raises(SystemExit) as excinfo:
                _split_listen_source(bad)
            assert "--listen-source expects NAME=HOST:PORT" in str(
                excinfo.value
            )

    def test_serve_parser_accepts_share_plans_flags(self):
        from repro.__main__ import build_config, build_serve_parser

        parser = build_serve_parser()
        on = build_config(parser.parse_args(["--share-plans"]))
        off = build_config(parser.parse_args(["--no-share-plans"]))
        unset = build_config(parser.parse_args([]))
        assert on.share_plans is True
        assert off.share_plans is False
        assert unset.share_plans is None
        assert unset.resolved().share_plans is True


PASSTHROUGH = "SELECT * FROM Bid EMIT STREAM"


class RecordingWriter:
    """The slice of ``asyncio.StreamWriter`` a flush uses, recorded.

    ``drain`` blocks while ``paused`` is set — a transport above its
    high-water mark — so a test can hold one flush mid-drain and run a
    second one concurrently.
    """

    def __init__(self):
        self.writes: list[bytes] = []
        self.resumed = asyncio.Event()
        self.resumed.set()

    def write(self, data: bytes) -> None:
        self.writes.append(data)

    async def drain(self) -> None:
        await self.resumed.wait()

    @property
    def data(self) -> bytes:
        return b"".join(self.writes)


def reference_line(payload: dict) -> bytes:
    """One wire line as the per-line sender rendered it."""
    return (json.dumps(payload) + "\n").encode("utf-8")


def reference_delta(query_id: str, delta) -> bytes:
    change = delta.change
    return reference_line({"query": query_id, "delta": {
        "seq": delta.seq,
        "ptime": change.ptime,
        "kind": "insert" if change.is_insert else "retract",
        "values": list(change.values),
    }})


class TestFanOutWire:
    """The encode-once flush is byte-identical to rendering and sending
    every line of every subscriber separately, in ``_streams`` order."""

    def fanout(self, bid_stream, capacity=None):
        config = (
            ExecutionConfig(subscriber_capacity=capacity)
            if capacity is not None
            else None
        )
        service = empty_service(bid_stream, config=config)
        server = ServiceServer(service, "127.0.0.1", 0)
        queries = [
            service.submit("t", PASSTHROUGH),
            service.submit("t", WINDOWED_MAX),
        ]
        return service, server, queries

    @staticmethod
    async def subscribe(server, query, writer, subscriber_id=None):
        request = {"op": "subscribe", "query": query.query_id}
        if subscriber_id is not None:
            request["subscriber"] = subscriber_id
        response = await server._dispatch(request, writer)
        assert response["ok"], response
        return response["subscriber"]

    def test_bytes_match_per_line_rendering_with_evictions(self, bid_stream):
        service, server, (q_all, q_max) = self.fanout(bid_stream)
        events = bid_stream.events()

        async def drive():
            one, two = RecordingWriter(), RecordingWriter()
            # interleave queries and connections
            layout = [
                (q_all, one, "a"), (q_max, two, "b"), (q_all, two, "c"),
                (q_max, one, "slow"), (q_max, one, "d"),
            ]
            for query, writer, name in layout:
                await self.subscribe(server, query, writer, name)
            # "slow" overflows on the first event that updates a window
            # (a retraction plus an insertion) before any flush drains it
            q_max.subscriptions.get("slow").capacity = 1
            published = {q_all.query_id: [], q_max.query_id: []}
            expected = {one: [], two: []}
            flushes = []
            slow_noticed = False
            for index, event in enumerate(events):
                for query_id, deltas in service.ingest(event, "Bid").items():
                    published[query_id].extend(deltas)
                if index % 3 == 1:
                    continue  # let some flushes carry several events
                # the reference: each stream in order, one line per delta
                for query, writer, name in layout:
                    subscriber = query.subscriptions.get(name)
                    if subscriber.evicted:
                        if not slow_noticed:
                            expected[writer].append(reference_line(
                                {"evicted": name, "query": query.query_id}
                            ))
                            slow_noticed = True
                        continue
                    expected[writer].extend(
                        reference_delta(query.query_id, d)
                        for d in published[query.query_id]
                        if d.seq >= subscriber.cursor
                    )
                before = {one: len(one.writes), two: len(two.writes)}
                await server._flush_subscribers()
                flushes.append(
                    {w: len(w.writes) - before[w] for w in (one, two)}
                )
            return one, two, expected, flushes

        one, two, expected, flushes = asyncio.run(drive())
        assert q_max.subscriptions.get("slow").evicted
        assert b'{"evicted": "slow"' in one.data
        assert one.data == b"".join(expected[one])
        assert two.data == b"".join(expected[two])
        # one write per connection per flush that has anything to send
        assert all(count <= 1 for flush in flushes for count in flush.values())
        assert any(flush[one] == 1 and flush[two] == 1 for flush in flushes)

    def test_one_write_per_connection_per_flush(self, bid_stream):
        service, server, queries = self.fanout(bid_stream)

        async def drive():
            writers = [RecordingWriter() for _ in range(3)]
            for i in range(12):
                await self.subscribe(
                    server, queries[i % 2], writers[i % 3], f"s{i}"
                )
            for event in bid_stream.events():
                service.ingest(event, "Bid")
            await server._flush_subscribers()
            return writers

        writers = asyncio.run(drive())
        assert [len(w.writes) for w in writers] == [1, 1, 1]
        for writer in writers:
            assert writer.data.count(b"\n") > 4

    @pytest.mark.parametrize("subscribers", [1, 16])
    def test_json_encodes_each_delta_once(
        self, bid_stream, monkeypatch, subscribers
    ):
        import types

        import repro.service.server as server_module

        service, server, queries = self.fanout(bid_stream)
        calls = []

        def counting_dumps(payload, **kwargs):
            calls.append(payload)
            return json.dumps(payload, **kwargs)

        monkeypatch.setattr(
            server_module,
            "json",
            types.SimpleNamespace(dumps=counting_dumps, loads=json.loads),
        )

        async def drive():
            writer = RecordingWriter()
            for i in range(subscribers):
                for query in queries:
                    await self.subscribe(server, query, writer, f"s{i}")
            published = 0
            for event in bid_stream.events():
                published += sum(
                    len(d) for d in service.ingest(event, "Bid").values()
                )
                await server._flush_subscribers()
            return writer, published

        writer, published = asyncio.run(drive())
        assert published > 0
        assert len(calls) == published
        assert writer.data.count(b"\n") == published * subscribers

    def test_concurrent_flushes_never_reorder_lines(self, bid_stream):
        """A flush blocked in ``drain`` on a paused transport must not
        let a second flush's lines overtake its own."""
        service, server, (q_all, q_max) = self.fanout(bid_stream)
        events = bid_stream.events()
        half = len(events) // 2

        async def drive():
            writer = RecordingWriter()
            for query in (q_all, q_max):
                await self.subscribe(server, query, writer, "s")
            writer.resumed.clear()  # the transport stops draining
            for event in events[:half]:
                service.ingest(event, "Bid")
            first = asyncio.ensure_future(server._flush_subscribers())
            await asyncio.sleep(0)
            for event in events[half:]:
                service.ingest(event, "Bid")
            second = asyncio.ensure_future(server._flush_subscribers())
            await asyncio.sleep(0)
            writer.resumed.set()
            await asyncio.gather(first, second)
            return writer

        writer = asyncio.run(drive())
        seqs = {q_all.query_id: [], q_max.query_id: []}
        for line in writer.data.splitlines():
            message = json.loads(line)
            seqs[message["query"]].append(message["delta"]["seq"])
        for query in (q_all, q_max):
            assert seqs[query.query_id] == list(
                range(query.subscriptions.next_seq)
            )


class TestSubscriberLifecycle:
    """Default ids never repeat, and a closed connection's subscribers
    leave the registry."""

    @staticmethod
    async def connect(server):
        """A client connection: ``rpc`` returns the response and keeps
        the delta lines that arrive before it in ``deltas``."""
        host, port = server.address
        reader, writer = await asyncio.open_connection(host, port)
        deltas = []

        async def read_pending():
            while True:
                try:
                    raw = await asyncio.wait_for(reader.readline(), 0.1)
                except asyncio.TimeoutError:
                    return deltas
                if not raw:
                    return deltas
                deltas.append(json.loads(raw)["delta"])

        async def rpc(payload):
            writer.write((json.dumps(payload) + "\n").encode())
            await writer.drain()
            while True:
                message = json.loads(await reader.readline())
                if "delta" not in message:
                    return message
                deltas.append(message["delta"])

        return writer, rpc, read_pending

    def test_default_ids_are_not_reused_after_disconnect(self, bid_stream):
        service = empty_service(bid_stream)
        feed = [
            line
            for line in format_jsonl(bid_stream).splitlines()
            if "schema" not in line
        ]

        async def drive():
            server = ServiceServer(service, "127.0.0.1", 0)
            await server.start()
            try:
                wa, rpc_a, _ = await self.connect(server)
                wb, rpc_b, pending_b = await self.connect(server)
                admitted = await rpc_a(
                    {"op": "submit", "tenant": "t", "sql": PASSTHROUGH}
                )
                query_id = admitted["query"]
                a = await rpc_a({"op": "subscribe", "query": query_id})
                b = await rpc_b({"op": "subscribe", "query": query_id})
                wa.close()
                query = service.session.get(query_id)
                for _ in range(100):
                    if query.subscriptions.get(a["subscriber"]) is None:
                        break
                    await asyncio.sleep(0.01)
                wc, rpc_c, pending_c = await self.connect(server)
                c = await rpc_c({"op": "subscribe", "query": query_id})
                for line in feed:
                    await rpc_b(
                        {"op": "ingest", "source": "Bid", "event": line}
                    )
                c_deltas = await pending_c()
                b_deltas = await pending_b()
                wb.close()
                wc.close()
                return a, b, c, b_deltas, c_deltas, query
            finally:
                await server.stop()

        a, b, c, b_deltas, c_deltas, query = asyncio.run(drive())
        assert (a["subscriber"], b["subscriber"]) == ("sub-1", "sub-2")
        assert c["subscriber"] == "sub-3"
        assert query.subscriptions.next_seq > 0
        # B's own stream survived C's arrival, and C got every delta
        assert len(c_deltas) == query.subscriptions.next_seq
        assert [d["seq"] for d in b_deltas] == [d["seq"] for d in c_deltas]

    def test_closed_connection_unsubscribes(self, bid_stream):
        service = empty_service(
            bid_stream, config=ExecutionConfig(subscriber_capacity=2)
        )

        async def drive():
            server = ServiceServer(service, "127.0.0.1", 0)
            await server.start()
            try:
                writer, rpc, _ = await self.connect(server)
                admitted = await rpc(
                    {"op": "submit", "tenant": "t", "sql": PASSTHROUGH}
                )
                query = service.session.get(admitted["query"])
                await rpc({"op": "subscribe", "query": query.query_id,
                           "subscriber": "gone"})
                assert query.subscriptions.live_count == 1
                writer.close()
                for _ in range(100):
                    if not server._streams:
                        break
                    await asyncio.sleep(0.01)
                return server, query
            finally:
                await server.stop()

        server, query = asyncio.run(drive())
        assert server._streams == []
        assert query.subscriptions.get("gone") is None
        for event in bid_stream.events():
            service.ingest(event, "Bid")
        # nothing left to fill up, be evicted, or pin the log
        assert query.subscriptions.evictions == 0
        assert query.subscriptions.log_size == 0
        assert query.subscriptions.next_seq > 2

    def test_closing_a_replaced_subscription_keeps_the_new_owner(
        self, bid_stream
    ):
        """Re-subscribing an id from a second connection replaces the
        first subscriber; the first connection closing later must not
        detach the second's."""
        service = empty_service(bid_stream)

        async def drive():
            server = ServiceServer(service, "127.0.0.1", 0)
            await server.start()
            try:
                first, rpc_first, _ = await self.connect(server)
                second, rpc_second, pending = await self.connect(server)
                admitted = await rpc_first(
                    {"op": "submit", "tenant": "t", "sql": PASSTHROUGH}
                )
                query = service.session.get(admitted["query"])
                for rpc in (rpc_first, rpc_second):
                    await rpc({"op": "subscribe", "query": query.query_id,
                               "subscriber": "x"})
                owner = query.subscriptions.get("x")
                first.close()
                for _ in range(100):
                    if len(server._streams) == 1:
                        break
                    await asyncio.sleep(0.01)
                for event in bid_stream.events():
                    service.ingest(event, "Bid")
                await server._flush_subscribers()
                deltas = await pending()
                kept = query.subscriptions.get("x") is owner
                second.close()
                return query, kept, deltas
            finally:
                await server.stop()

        query, kept, deltas = asyncio.run(drive())
        assert kept
        assert len(deltas) == query.subscriptions.next_seq > 0
