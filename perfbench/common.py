"""Shared pieces: checkout layout, metric names and units, statistics."""

from __future__ import annotations

import hashlib
import math
import os
import platform
import statistics
import sys
import time
from pathlib import Path

#: the checkout root: the directory that holds ``perfbench/``.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: scratch space for span dumps, feed schema files and server logs.
OUT = ROOT / ".perfbench"

END_TO_END = {
    "events_per_s": "events/s",
    "delta_p50_ms": "ms",
    "delta_p95_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "cpu_ms_per_kevent": "ms",
}

#: operator classes the workloads' plans contain (short class names).
OPERATOR_CLASSES = (
    "Scan", "Filter", "Project", "Pipeline", "Tumble", "Hop",
    "Aggregate", "PartialAggregate", "CombineAggregate", "Join",
)

PER_LAYER = {
    "obs.metrics.observe_state_ms": "ms/kevent",
    "obs.metrics.observe_state_calls": "count/kevent",
    **{
        f"exec.operators.{cls}.{field}": unit
        for cls in OPERATOR_CLASSES
        for field, unit in (
            ("self_ms", "ms/kevent"),
            ("calls", "count/kevent"),
            ("rows_in", "count/kevent"),
            ("rows_out", "count/kevent"),
        )
    },
    "exec.operators.columnar_share": "ratio",
    "exec.executor.self_ms": "ms/kevent",
    "exec.executor.batches": "count/kevent",
    "exec.executor.rows_per_batch": "count",
    "exec.state.peak_rows": "count",
    "engine.self_ms": "ms/kevent",
    "service.subscriptions.publish_us": "us/delta",
    "service.server.flush_us": "us/event",
    "service.server.sends_per_event": "count/event",
    "service.server.bytes_per_event": "bytes/event",
    "service.server.control_us": "us/event",
    "service.sources.decode_us": "us/event",
    "service.sources.read_us": "us/event",
    "service.sources.pump_us": "us/event",
    "service.sources.queue_depth_max": "count",
    "service.session.ingest_us": "us/event",
    "service.session.flow_us": "us/event",
    "service.loop.callbacks_us": "us/event",
    "service.loop.idle_frac": "ratio",
    "sql.parse_ms": "ms/setup",
    "plan.plan_ms": "ms/setup",
    "plan.physical_ms": "ms/setup",
    "exec.compile.build_ms": "ms/setup",
    "service.admission.admit_ms": "ms/setup",
    "service.session.register_ms": "ms/setup",
    "service.admission.plans_built": "count/setup",
    "service.subscriptions.evictions": "count",
    "runtime.routing.partition_ms": "ms/kevent",
    "runtime.backends.run_shards_ms": "ms/kevent",
    "runtime.supervisor.shard_busy_ms": "ms/kevent",
    "runtime.checkpoint_ms": "ms/kevent",
    "runtime.restore_ms": "ms/kevent",
    "runtime.merge.merge_ms": "ms/kevent",
    "runtime.sharded.self_ms": "ms/kevent",
    "runtime.state_transfer_bytes": "bytes/kevent",
    "runtime.merge.rows": "count/kevent",
    "runtime.shard_skew": "ratio",
    "runtime.cpu_util": "cpu_s/s",
    "driver.send_lag_ms": "ms",
    "driver.busy_frac": "ratio",
    "trace.coverage": "ratio",
    "trace.events_per_s": "events/s",
}

#: Iterations of the calibration loop.
CALIBRATION_LOOPS = 10_000
#: The loop's time on the CPU the benchmark was tuned on (a 2-vCPU VM)
#: in its fast phase.  Time-based figures are reported at this speed.
CALIBRATION_REFERENCE_S = 0.0014
#: Latency figures are taken over the calmest of the open-loop segments
#: (lowest tail), this share of them, widened until they hold enough
#: samples for the tail percentile.
CALM_SHARE = 0.15
CALM_MIN_SAMPLES = 1000
#: the percentile ``delta_p95_ms`` reports.  A p99 over the calm
#: segments is set by a handful of events' fan-outs and spread 0.3 or
#: more across seeds on a shared 2-vCPU host; a p95 is set by a few dozen.
LATENCY_TAIL = 95

#: a run is flagged invalid when the driver ran this late or this busy.
MAX_SEND_LAG_MS = 5.0
MAX_BUSY_FRAC = 0.9


def check_checkout() -> None:
    """Exit non-zero unless the program's sources are in this checkout."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict:
    """Environment for processes that import ``repro`` from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def tail_percentile(values: list[float], pct: int = 99) -> tuple[float, float]:
    """(percentile, value): the ``pct``-th percentile when at least 10
    samples lie beyond it, else the highest percentile with 10 samples
    beyond it.  With 20 samples or fewer that percentile would not lie
    above the median, so the maximum is reported instead."""
    ordered = sorted(values)
    n = len(ordered)
    if (100 - pct) * n >= 1000:
        rank = math.ceil(pct * n / 100) - 1
    elif n > 20:
        rank = n - 11
    else:
        rank = n - 1
    return 100.0 * (rank + 1) / n, ordered[rank]


def calibrate() -> float:
    """Seconds a fixed pure-Python loop takes on this thread's CPU, best of 3.

    The VMs this benchmark is tuned on slow each vCPU down by up to 1.8x
    for seconds at a time, independently of the other vCPU.  Time-based
    figures are therefore scaled by ``calibration next to the measurement
    / CALIBRATION_REFERENCE_S``: what the measurement would have read on
    a CPU running the loop at the reference speed.
    """
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        table: dict[int, int] = {}
        for i in range(CALIBRATION_LOOPS):
            table[i & 1023] = table.get(i & 1023, 0) + i
        best = min(best, time.perf_counter() - started)
    return best


def median(values: list[float]) -> float:
    return statistics.median(values)


def digest(changes) -> str:
    """A stable digest of a changelog (kind, values, ptime per change)."""
    h = hashlib.sha256()
    for change in changes:
        h.update(repr((change.kind.value, change.values, change.ptime)).encode())
    return h.hexdigest()


def steal_s() -> float:
    """CPU seconds the hypervisor has taken from this machine's CPUs
    since boot (``steal`` in ``/proc/stat``); 0 where it is not reported."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def run_metadata(seed: int) -> dict:
    return {
        "seed": seed,
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
    }


def git_sha() -> str:
    """The checkout's commit, read from ``.git`` when there is one."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            target = ROOT / ".git" / ref[5:]
            if target.is_file():
                return target.read_text().strip()
            packed = ROOT / ".git" / "packed-refs"
            for line in packed.read_text().splitlines():
                if line.endswith(ref[5:]):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown"
