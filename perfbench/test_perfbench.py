"""The benchmark's own tests.

    python -m pytest perfbench -q

The smoke tests run every workload for one second, untraced and traced,
through the same command line the benchmark is run with.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import common  # noqa: E402

common.check_checkout()

import oracle  # noqa: E402
import serve_bench  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _run(workload: str, trace: int) -> tuple[dict, dict]:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=common.ROOT, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    meta = json.loads(next(line for line in lines if line.startswith("meta "))[5:])
    return json.loads(lines[-1]), meta


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_every_metric_is_printed_with_its_unit(workload, trace):
    result, meta = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    names = common.PER_LAYER if trace else common.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == names
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        assert meta["coverage_ok"], result["metrics"]["trace.coverage"]
    for key in ("seed", "git_sha", "nproc", "python", "latency_samples",
                "driver.send_lag_ms", "driver.busy_frac"):
        assert key in meta


def test_benchmark_json_matches_the_code():
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == common.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == common.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


# -- the serve oracle can fail ---------------------------------------------------

QUERIES = [("q0", workloads.sql_of("q0")), ("tcount", workloads.sql_of("tumble_count_stream"))]
SUBSCRIBERS = 3


def _feed():
    schema, lines, _ = serve_bench.bid_feed(seed=5, num_events=400)
    return schema, lines


def _received(schema, lines):
    """What a correct server sends: each subscriber's copy of each delta."""
    expected = oracle.expected_deltas(schema, lines, QUERIES)
    batch = []
    for deltas in expected.values():
        for line, _ in deltas:
            batch.extend([line] * SUBSCRIBERS)
    return [(0.0, batch)]


def _failed_frac(check: oracle.ServeCheck, sent: int) -> float:
    return check.failures / (check.expected + sent)


def test_serve_oracle_accepts_correct_deltas():
    schema, lines = _feed()
    check = oracle.check_serve(schema, lines, QUERIES, SUBSCRIBERS, _received(schema, lines))
    assert check.failures == 0
    assert check.expected > 0 and len(check.arrivals) == check.expected


def test_serve_oracle_fails_on_a_tampered_delta():
    schema, lines = _feed()
    received = _received(schema, lines)
    batch = received[0][1]
    batch[5] = batch[5].replace(b'"kind": "insert"', b'"kind": "retract"')
    check = oracle.check_serve(schema, lines, QUERIES, SUBSCRIBERS, received)
    assert check.mismatched == 1
    assert _failed_frac(check, len(lines)) > 0


def test_serve_oracle_fails_on_a_dropped_feed_line():
    schema, lines = _feed()
    # The server never saw line 7, so its deltas are those of a shorter feed.
    received = _received(schema, lines[:7] + lines[8:])
    check = oracle.check_serve(schema, lines, QUERIES, SUBSCRIBERS, received)
    assert check.failures > 0
    assert _failed_frac(check, len(lines)) > 0


def test_serve_oracle_fails_on_a_gap():
    schema, lines = _feed()
    received = _received(schema, lines)
    del received[0][1][SUBSCRIBERS * 4]
    check = oracle.check_serve(schema, lines, QUERIES, SUBSCRIBERS, received)
    # The subscriber that lost a delta never catches up again: every later
    # line it gets is out of sequence.
    assert check.missing >= 1 and check.extra >= 1
    assert _failed_frac(check, len(lines)) > 0


# -- statistics and the self-time rollup ---------------------------------------


def test_tail_percentile():
    assert common.tail_percentile(list(range(2000))) == (99.0, 1979)
    assert common.tail_percentile(list(range(100))) == (90.0, 89)
    assert common.tail_percentile([3.0, 1.0, 2.0]) == (100.0, 3.0)
    assert common.tail_percentile(list(range(200)), 95) == (95.0, 189)
    assert common.tail_percentile(list(range(100)), 95) == (90.0, 89)


def test_self_time_subtracts_the_union_of_children():
    names = ["root", "child"]
    spans = [
        [0, 0.0, 10.0, -1, 0, 0],
        [1, 1.0, 4.0, 0, 0, 1],   # two children in parallel lanes
        [1, 2.0, 6.0, 0, 0, 2],
        [1, 8.0, 9.0, 0, 0, 0],
    ]
    trace = {"names": names, "spans": spans, "counts": {}, "peak_state_rows": 0}
    times = tracing.self_times(trace)
    assert times["root"]["self_s"] == pytest.approx(10.0 - 5.0 - 1.0)
    assert times["child"]["self_s"] == pytest.approx(3.0 + 4.0 + 1.0)
    assert tracing.root_time(trace) == pytest.approx(10.0)
    assert tracing.lane_busy(trace, "child") == [1.0, 3.0, 4.0]


def test_tracer_records_nested_spans_and_adopts_worker_traces():
    tracer = tracing.Tracer()
    outer, inner = tracer.name_id("outer"), tracer.name_id("inner")
    tracer.push(outer)
    tracer.push(inner)
    tracer.pop()
    tracer.pop()
    worker = tracing.Tracer()
    worker.push(worker.name_id("inner"))
    worker.pop()
    tracer.adopt(worker.export(), parent=0, lane=1)
    spans = tracer.spans
    assert [s[tracing.PARENT] for s in spans] == [-1, 0, 0]
    assert [s[tracing.LANE] for s in spans] == [0, 0, 1]
    assert all(s[tracing.END] >= s[tracing.START] > 0 for s in spans)
