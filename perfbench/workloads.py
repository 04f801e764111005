"""The benchmark's workloads and the reason each one exists.

Workloads set only ``batch_size``, ``parallelism`` and ``backend``; every
other execution knob stays at its default, so removing a knob from the
program needs no benchmark edit.  Inputs are NEXMark streams generated
from the ``--seed`` argument; the program only ever sees those inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

TUMBLE = (
    "Tumble(data => TABLE(Bid), timecol => DESCRIPTOR(bidtime), "
    "dur => INTERVAL '10' SECONDS) TB"
)
TUMBLE_MAX = f"SELECT TB.wend, MAX(TB.price) AS high FROM {TUMBLE} GROUP BY TB.wend"
TUMBLE_COUNT = f"SELECT TB.wend, COUNT(*) AS bids FROM {TUMBLE} GROUP BY TB.wend"
TUMBLE_AUCTION = (
    f"SELECT TB.auction, TB.wend, COUNT(*) AS bids, MAX(TB.price) AS high "
    f"FROM {TUMBLE} GROUP BY TB.auction, TB.wend"
)


def _nexmark_sql():
    from repro.nexmark.queries import (
        Q0_PASSTHROUGH,
        Q3_LOCAL_ITEM_SUGGESTION,
        q2_selection,
    )

    return {
        "q0": Q0_PASSTHROUGH,
        "q2": q2_selection(),
        "q3": Q3_LOCAL_ITEM_SUGGESTION,
    }


@dataclass(frozen=True)
class ServeWorkload:
    """``python -m repro serve`` fed a Bid stream over ``--listen-source``."""

    name: str
    why: str
    #: (query id, query key); the key names SQL in :func:`sql_of`.
    queries: tuple[tuple[str, str], ...]
    subscribers: int
    #: open-loop offered rate in events/s, well below the seed commit's
    #: saturation throughput on a 2-vCPU VM in its slow phases.
    offered_rate: float
    #: NEXMark events generated; only the Bid stream is fed.
    num_events: int
    config: dict = field(default_factory=dict)
    kind: str = "serve"


@dataclass(frozen=True)
class ReplayWorkload:
    """Library replay: ``StreamEngine(config).query(sql).run()`` per query."""

    name: str
    why: str
    queries: tuple[str, ...]
    num_events: int
    config: dict
    #: the changelog this workload must reproduce: ``"per-change"`` for
    #: the ``batch_size=1`` serial run, or another workload's name.
    reference: str
    events_per_instant: int = 64
    watermark_interval: int = 192
    kind: str = "replay"


def sql_of(key: str) -> str:
    fixed = {
        "tumble_max": TUMBLE_MAX,
        "tumble_count": TUMBLE_COUNT,
        "tumble_auction": TUMBLE_AUCTION,
        "tumble_max_stream": TUMBLE_MAX + " EMIT STREAM",
        "tumble_count_stream": TUMBLE_COUNT + " EMIT STREAM",
    }
    if key in fixed:
        return fixed[key]
    return _nexmark_sql()[key]


REPLAY_QUERIES = ("tumble_max", "tumble_auction", "q3")

WORKLOADS = {
    w.name: w
    for w in (
        ServeWorkload(
            name="serve_fanout",
            why=(
                "4 overlapping standing queries sharing one flow, 16 "
                "subscribers each: publish, JSON encode, socket writes and "
                "decode dominate, operators do little"
            ),
            queries=(
                ("q0", "q0"),
                ("q2", "q2"),
                ("tmax", "tumble_max_stream"),
                ("tcount", "tumble_count_stream"),
            ),
            subscribers=16,
            offered_rate=300.0,
            num_events=40_000,
        ),
        ReplayWorkload(
            name="replay_serial",
            why=(
                "bursty recording replayed at batch_size=64: scheduler, "
                "columnar batches, fused pipelines, aggregate and join batch paths"
            ),
            queries=REPLAY_QUERIES,
            num_events=8_000,
            config={"batch_size": 64},
            reference="per-change",
        ),
        ReplayWorkload(
            name="replay_sharded",
            why=(
                "the same replay at parallelism=2 on forked processes: routing, "
                "fork, state transfer, dedup, merge and two-phase combine"
            ),
            queries=REPLAY_QUERIES,
            num_events=8_000,
            config={"batch_size": 64, "parallelism": 2, "backend": "processes"},
            reference="replay_serial",
        ),
    )
}
