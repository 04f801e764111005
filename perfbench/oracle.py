"""Correctness oracles.

* Serve: every subscriber's deltas must be gap-free, in order, and
  byte-identical to the one-shot ``query.run().changes`` over the feed
  lines that were sent, rendered exactly as the server renders a delta
  line.  All subscribers join before the first event, so each one's
  cursor is 0.
* Replay: a changelog digest compared against a reference run (the
  ``batch_size=1`` per-change run, or another workload's output).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from common import digest


def expected_deltas(schema_line: str, lines: list[bytes],
                    queries: list[tuple[str, str]]) -> dict[bytes, list[tuple[bytes, int]]]:
    """Per query id: the delta lines (and their ptimes) a subscriber that
    joined before the first event must receive."""
    from repro import StreamEngine
    from repro.core.tvr import TimeVaryingRelation
    from repro.io import TailParser

    parser = TailParser()
    events = parser.feed(schema_line + "\n" + b"".join(lines).decode())
    events += parser.close()
    tvr = TimeVaryingRelation(parser.schema)
    for event in events:
        tvr.apply(event)
    engine = StreamEngine()
    engine.register_stream("Bid", tvr)
    out = {}
    for query_id, sql in queries:
        changes = engine.query(sql).run().changes
        out[query_id.encode()] = [
            (
                json.dumps({"query": query_id, "delta": {
                    "seq": seq,
                    "ptime": change.ptime,
                    "kind": "insert" if change.is_insert else "retract",
                    "values": list(change.values),
                }}).encode(),
                change.ptime,
            )
            for seq, change in enumerate(changes)
        ]
    return out


@dataclass
class ServeCheck:
    #: deltas owed: expected deltas times subscribers, summed over queries.
    expected: int = 0
    missing: int = 0
    extra: int = 0
    mismatched: int = 0
    #: delta lines received, correct or not.
    lines: int = 0
    #: (receive time, delta ptime) of every correct delta line.
    arrivals: list[tuple[float, int]] = field(default_factory=list)

    @property
    def failures(self) -> int:
        return self.missing + self.extra + self.mismatched


def check_serve(schema_line: str, lines: list[bytes], queries: list[tuple[str, str]],
                subscribers: int, chunks: list[tuple[float, list[bytes]]]) -> ServeCheck:
    """Check received delta lines against the one-shot oracle.

    Subscribers of one query share the control connection and receive
    identical lines, so a line cannot name its subscriber.  The lines
    are correct when they split into ``subscribers`` gap-free, in-order
    sequences: a line with sequence number ``s`` is accepted only while
    fewer subscribers have received ``s`` than have received ``s - 1``.
    """
    expected = expected_deltas(schema_line, lines, queries)
    check = ServeCheck()
    received = {qid: [0] * len(deltas) for qid, deltas in expected.items()}
    arrivals = check.arrivals
    for arrived, batch in chunks:
        check.lines += len(batch)
        for line in batch:
            end = line.find(b'"', 11)
            qid = line[11:end]
            deltas = expected.get(qid)
            start = line.find(b'"seq": ', end) + 7
            try:
                seq = int(line[start:line.index(b",", start)])
            except ValueError:
                check.extra += 1
                continue
            if deltas is None or not 0 <= seq < len(deltas):
                check.extra += 1
                continue
            counts = received[qid]
            allowed = subscribers if seq == 0 else counts[seq - 1]
            if counts[seq] >= allowed:
                check.extra += 1
                continue
            counts[seq] += 1
            want, ptime = deltas[seq]
            if line != want:
                check.mismatched += 1
                continue
            arrivals.append((arrived, ptime))
    for qid, deltas in expected.items():
        check.expected += len(deltas) * subscribers
        check.missing += sum(subscribers - count for count in received[qid])
    return check


def replay_digests(streams, queries: list[str], config: dict) -> list[str]:
    """Changelog digest of each query replayed once under ``config``."""
    from repro import ExecutionConfig, StreamEngine

    out = []
    for sql in queries:
        engine = StreamEngine(config=ExecutionConfig(**config))
        streams.register_on(engine)
        out.append(digest(engine.query(sql).run().changes))
    return out
