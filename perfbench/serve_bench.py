"""The serve workloads: ``python -m repro serve`` driven over loopback.

One driver process holds two connections to the server: a feed
connection into ``--listen-source Bid=...`` and a control connection
that carries every submit, subscribe and ``metrics`` request and on
which all subscribers' deltas arrive, multiplexed.

A run has two parts:

1. **Set-up**, repeated :data:`SETUPS` times, each on a freshly spawned
   server pinned to one CPU: spawn, submit every query, subscribe every
   subscriber.  The last server is kept; the others are stopped.
   ``setup_s`` is the median, each scaled to the reference CPU speed.
2. :data:`BLOCKS` pairs of phases, half of ``--seconds`` each in total:

   * **open loop**: feed lines are sent on a fixed schedule at the
     workload's offered rate, whether or not the server keeps up.  A
     delta's latency is its receive time minus the *due* time of the
     last feed line carrying the delta's ``ptime``;
   * **saturation**: feed lines are written as fast as the server
     ingests them, with a bounded number in flight (progress is polled
     with ``metrics`` requests); throughput is events ingested per
     second.

   Both are cut into :data:`SEGMENT`-long segments.  Throughput comes
   from the calmest segment of each saturation phase, latency from the
   calmest open-loop segments (lowest p95), all scaled
   to a reference CPU speed (``common.calibrate``, timed on the server's
   CPU around each phase): the 2-vCPU VMs this benchmark is tuned on slow
   each vCPU down for seconds at a time.

Afterwards every subscriber's deltas are checked against the one-shot
``query.run().changes`` over the same feed lines (see :mod:`oracle`).
"""

from __future__ import annotations

import gc
import json
import math
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Optional

from common import (
    CALIBRATION_REFERENCE_S,
    CALM_MIN_SAMPLES,
    CALM_SHARE,
    LATENCY_TAIL,
    MAX_BUSY_FRAC,
    MAX_SEND_LAG_MS,
    OUT,
    calibrate,
    child_env,
    median,
    tail_percentile,
)
import oracle
from workloads import ServeWorkload, sql_of

#: servers spawned per run to measure set-up; the last one is measured.
SETUPS = 7
#: lines per write in the saturation phase.
SATURATION_CHUNK = 64
#: events a saturation block keeps in flight: enough that the pump never
#: waits for input between polls, few enough that the backlog left when
#: the block ends drains quickly.
SATURATION_WINDOW = 256
#: open-loop and saturation phases alternate this many times per run, so
#: each kind of sample is spread over the whole run.
BLOCKS = 5
#: seconds between ingest-progress polls (``metrics`` requests).
POLL_INTERVAL = 0.02
#: send buffer of the feed socket, so backpressure reaches the driver
#: instead of queueing seconds of feed in the kernel.
FEED_SNDBUF = 32 * 1024
#: an open-loop segment whose lines all went out this close to their due
#: time counts as on time: its latency is the server's, not the driver's.
ON_TIME_S = 0.001
#: seconds per measurement segment.
SEGMENT = 0.5
#: seconds between ``metrics`` scrapes in traced runs.
SCRAPE_INTERVAL = 0.1
TIMEOUT = 60.0
DRIVER_SWITCH_INTERVAL = 0.0005


def bid_feed(seed: int, num_events: int) -> tuple[str, list[bytes], list[int]]:
    """(schema line, one JSONL feed line per Bid event, their ptimes)."""
    from repro.io import format_jsonl
    from repro.nexmark import NexmarkConfig, generate

    bids = generate(NexmarkConfig(num_events=num_events, seed=seed)).bids
    text = format_jsonl(bids).splitlines()
    lines = [(line + "\n").encode() for line in text[1:]]
    return text[0], lines, [event.ptime for event in bids.events()]


def _free_ports(count: int) -> list[int]:
    """Distinct loopback ports that are free now (all bound at once, so
    the kernel cannot hand the same one out twice)."""
    socks = [socket.socket() for _ in range(count)]
    try:
        for sock in socks:
            sock.bind(("127.0.0.1", 0))
        return [sock.getsockname()[1] for sock in socks]
    finally:
        for sock in socks:
            sock.close()


class ServerExited(RuntimeError):
    """The server process ended before it accepted a connection."""


class Server:
    """One spawned server process and its two ports."""

    def __init__(self, workload: ServeWorkload, workdir: Path, schema_path: Path,
                 dump: Optional[Path], cpu: Optional[int]):
        self.control_port, self.feed_port = _free_ports(2)
        args = [
            "serve",
            "--listen", f"127.0.0.1:{self.control_port}",
            "--tail", f"Bid={schema_path}",
            "--listen-source", f"Bid=127.0.0.1:{self.feed_port}",
        ]
        for key, value in workload.config.items():
            args += [f"--{key.replace('_', '-')}", str(value)]
        if dump is None:
            cmd = [sys.executable, "-m", "repro"] + args
        else:
            launcher = Path(__file__).resolve().parent / "traced_serve.py"
            cmd = [sys.executable, str(launcher), str(dump)] + args
        self.log = open(workdir / f"server-{self.control_port}.log", "wb")
        self.proc = subprocess.Popen(
            cmd, stdout=self.log, stderr=subprocess.STDOUT, env=child_env(), cwd=workdir
        )
        if cpu is not None:
            os.sched_setaffinity(self.proc.pid, {cpu})

    def connect(self, port: int, sndbuf: Optional[int] = None) -> socket.socket:
        deadline = time.monotonic() + TIMEOUT
        while True:
            if self.proc.poll() is not None:
                raise ServerExited(f"server exited with code {self.proc.returncode}")
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            if sndbuf is not None:
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, sndbuf)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            try:
                sock.connect(("127.0.0.1", port))
                return sock
            except ConnectionRefusedError:
                sock.close()
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.01)

    def cpu_s(self) -> float:
        fields = Path(f"/proc/{self.proc.pid}/stat").read_text().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self) -> None:
        """Stop the server (a traced one writes its span dump first)."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=TIMEOUT)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()


class Control:
    """The control connection: requests, responses and delta lines.

    A reader thread splits incoming bytes into lines.  Delta lines are
    kept with the time their chunk arrived; responses (``{"ok": ...}``)
    are matched to requests by order, since the server answers one
    connection's requests in sequence.
    """

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.chunks: list[tuple[float, bytes]] = []
        self.evictions: list[bytes] = []
        self.bytes = 0
        self._responses: list[tuple[float, bytes]] = []
        self._requests = 0
        self._cond = threading.Condition()
        self._send_lock = threading.Lock()
        self._thread = threading.Thread(target=self._read, daemon=True)
        self._thread.start()

    def _read(self) -> None:
        # Keep this loop in C as far as possible: the GIL it holds delays
        # the open-loop sender.  Delta lines are split after the run.
        pending = b""
        sock = self.sock
        chunks = self.chunks
        while True:
            try:
                data = sock.recv(1 << 18)
            except OSError:
                break
            if not data:
                break
            now = time.perf_counter()
            self.bytes += len(data)
            data = pending + data
            cut = data.rfind(b"\n") + 1
            pending = data[cut:]
            block = data[:cut]
            if b'{"ok"' in block or b'{"evicted"' in block:
                kept = []
                for line in block.split(b"\n"):
                    if line.startswith(b'{"ok"'):
                        with self._cond:
                            self._responses.append((now, line))
                            self._cond.notify_all()
                    elif line.startswith(b'{"evicted"'):
                        self.evictions.append(line)
                    elif line:
                        kept.append(line + b"\n")
                block = b"".join(kept)
            if block:
                chunks.append((now, block))
        with self._cond:
            self._cond.notify_all()

    def delta_lines(self) -> list[tuple[float, list[bytes]]]:
        """(receive time, delta lines) per received chunk."""
        return [(t, block.split(b"\n")[:-1]) for t, block in self.chunks]

    def send(self, request: dict) -> int:
        """Send one request; returns its index for :meth:`wait`."""
        with self._send_lock:
            index = self._requests
            self._requests += 1
            self.sock.sendall((json.dumps(request) + "\n").encode())
        return index

    def wait(self, index: int) -> dict:
        deadline = time.monotonic() + TIMEOUT
        with self._cond:
            while len(self._responses) <= index:
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not self._thread.is_alive():
                    raise RuntimeError("no response from the server")
                self._cond.wait(remaining)
            return json.loads(self._responses[index][1])

    def request(self, request: dict) -> dict:
        return self.wait(self.send(request))

    def close(self) -> None:
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._thread.join(timeout=TIMEOUT)
        self.sock.close()


def _scrape(exposition: str, family: str) -> int:
    for line in exposition.splitlines():
        if line.startswith(family) and not line.startswith("#"):
            return int(float(line.rsplit(" ", 1)[1]))
    return 0


def _setup(workload: ServeWorkload, workdir: Path, schema_path: Path,
           dump: Optional[Path], cpu: Optional[int]) -> tuple[Server, Control, float, dict]:
    """Spawn a server pinned to ``cpu``, submit and subscribe; returns the
    set-up time.

    A server that exits before accepting connections (a port taken
    between choosing it and binding it) is spawned again, twice at most.
    """
    for attempt in range(3):
        counts = {"submits": 0, "subscribes": 0, "rejected": 0}
        started = time.perf_counter()
        server = Server(workload, workdir, schema_path, dump, cpu)
        control = None
        try:
            control = Control(server.connect(server.control_port))
            _submit_and_subscribe(workload, control, counts)
        except ServerExited:
            server.stop()
            if attempt == 2:
                raise
            continue
        except BaseException:
            if control is not None:
                control.close()
            server.stop()
            raise
        return server, control, time.perf_counter() - started, counts


def _submit_and_subscribe(workload: ServeWorkload, control: Control, counts: dict) -> None:
    for query_id, key in workload.queries:
        counts["submits"] += 1
        reply = control.request(
            {"op": "submit", "tenant": "bench", "sql": sql_of(key), "query": query_id}
        )
        if not reply.get("ok"):
            counts["rejected"] += 1
            continue
        for index in range(workload.subscribers):
            counts["subscribes"] += 1
            reply = control.request(
                {"op": "subscribe", "query": query_id, "subscriber": f"{query_id}-{index}"}
            )
            if not reply.get("ok") or reply.get("cursor") != 0:
                counts["rejected"] += 1


def _open_loop(feed: socket.socket, lines: list[bytes], count: int, rate: float
               ) -> tuple[list[float], list[float]]:
    """Send ``lines[:count]`` on schedule; returns (due times, send lags)."""
    start = time.perf_counter() + 0.05
    due = [start + i / rate for i in range(count)]
    lags = []
    i = 0
    while i < count:
        now = time.perf_counter()
        if due[i] > now:
            time.sleep(due[i] - now)
            now = time.perf_counter()
        j = i + 1
        while j < count and due[j] <= now:
            j += 1
        feed.sendall(b"".join(lines[i:j]))
        lag = time.perf_counter() - due[i]
        lags.extend([lag] * (j - i))
        i = j
    return due, lags


def _saturate(feed: socket.socket, control: "Control", server: Server,
              lines: list[bytes], first: int, seconds: float
              ) -> tuple[int, list[tuple[float, int, float]]]:
    """Write from ``lines[first:]`` as fast as the server ingests them for
    ``seconds``, keeping at most :data:`SATURATION_WINDOW` events in
    flight.  Returns (lines sent, progress samples ``(time, events
    ingested, server CPU seconds)``)."""
    started = time.perf_counter()
    samples = [(started, first, server.cpu_s())]
    i = first
    n = len(lines)
    ingested = first
    while i < n and time.perf_counter() - started < seconds:
        if i - ingested + SATURATION_CHUNK <= SATURATION_WINDOW:
            j = min(n, i + SATURATION_CHUNK)
            feed.sendall(b"".join(lines[i:j]))
            i = j
        else:
            time.sleep(POLL_INTERVAL)
            ingested = _ingested(control)
            samples.append((time.perf_counter(), ingested, server.cpu_s()))
    return i - first, samples


def _segments(samples: list[tuple[float, int, float]]) -> list[tuple[float, int, float]]:
    """Progress samples cut into :data:`SEGMENT`-long pieces:
    ``(seconds, events ingested, server CPU seconds)`` per piece.  A phase
    shorter than one segment is one piece."""
    out = []
    t0, n0, c0 = samples[0]
    for t, n, c in samples[1:]:
        if t - t0 >= SEGMENT and n > n0:
            out.append((t - t0, n - n0, c - c0))
            t0, n0, c0 = t, n, c
    if not out and samples[-1][1] > n0:
        t, n, c = samples[-1]
        out.append((t - t0, n - n0, c - c0))
    return out


def _ingested(control: "Control") -> int:
    reply = control.request({"op": "metrics"})
    return _scrape(reply["exposition"], "repro_service_events_ingested_total")


def _sync(control: Control, expected: int) -> int:
    """Wait until the server has ingested ``expected`` events; returns the
    count it reports (events the pump dropped never arrive)."""
    deadline = time.monotonic() + TIMEOUT
    last, stalled_since = -1, time.monotonic()
    while True:
        ingested = _ingested(control)
        if ingested >= expected:
            return ingested
        now = time.monotonic()
        if ingested != last:
            last, stalled_since = ingested, now
        elif now - stalled_since > 5.0 or now > deadline:
            return ingested
        time.sleep(POLL_INTERVAL)


class _Scraper(threading.Thread):
    """Traced runs: scrape ``metrics`` periodically for the queue depth."""

    def __init__(self, control: Control):
        super().__init__(daemon=True)
        self.control = control
        self.indices: list[int] = []
        self._done = threading.Event()

    def run(self) -> None:
        while not self._done.wait(SCRAPE_INTERVAL):
            self.indices.append(self.control.send({"op": "metrics"}))

    def finish(self) -> int:
        self._done.set()
        self.join()
        depth = 0
        for index in self.indices:
            exposition = self.control.wait(index)["exposition"]
            depth = max(depth, _scrape(exposition, "repro_service_source_queue_depth"))
        return depth


def _realtime() -> bool:
    """Run the calling thread at real-time priority, if allowed.

    The open-loop sender must wake on schedule even when the server keeps
    a CPU busy.  Threads and processes it starts (the reader, the
    server) keep the normal policy: a real-time reader would preempt the
    server.
    """
    try:
        os.sched_setscheduler(
            0, os.SCHED_FIFO | os.SCHED_RESET_ON_FORK, os.sched_param(1)
        )
        return True
    except (AttributeError, OSError):
        return False


def _server_cpu() -> Optional[int]:
    """The CPU the server is pinned to, so that the calibration loop can
    be timed on it: the last one this process may use, when there are
    two or more."""
    if not hasattr(os, "sched_getaffinity"):
        return None
    cpus = sorted(os.sched_getaffinity(0))
    return cpus[-1] if len(cpus) > 1 else None


def _calibrate_on(cpu: Optional[int]) -> float:
    """:func:`common.calibrate` on ``cpu`` (this thread's CPUs if None)."""
    if cpu is None:
        return calibrate()
    mask = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        return calibrate()
    finally:
        os.sched_setaffinity(0, mask)


def _boundary(ptimes: list[int], index: int) -> int:
    """The first index at or after ``index`` that starts a new ptime."""
    while 0 < index < len(ptimes) and ptimes[index] == ptimes[index - 1]:
        index += 1
    return index


def _calm_latencies(by_segment: dict[tuple[int, int], list[float]],
                    on_time: list[tuple[int, int]], slowdown: list[float]) -> list[float]:
    """Latency samples of the calmest open-loop segments (lowest tail),
    scaled by their phase's slowdown: :data:`CALM_SHARE` of the segments,
    widened until they hold enough samples for the tail percentile,
    leaving out segments in which the driver itself sent late while
    enough others remain."""
    keep = max(1, math.ceil(len(by_segment) * CALM_SHARE))
    chosen = on_time if len(on_time) >= keep else list(by_segment)
    scaled = [[x / slowdown[2 * seg[0]] for x in by_segment[seg]] for seg in chosen]
    scaled.sort(key=lambda samples: tail_percentile(samples, LATENCY_TAIL)[1])
    out: list[float] = []
    for index, samples in enumerate(scaled):
        if index >= keep and len(out) >= CALM_MIN_SAMPLES:
            break
        out += samples
    return out


def _calm_throughput(segments: list[list[tuple[float, int, float]]],
                     slowdown: list[float]) -> tuple[float, int, float]:
    """(seconds, events, server CPU seconds) summed over the calmest
    segment (least time per event) of each saturation phase, scaled by
    the phase's slowdown.  One segment per phase keeps them at the same
    points of a run whose state grows."""
    calm = [
        min(
            ((t / slowdown[2 * b + 1], n, c / slowdown[2 * b + 1]) for t, n, c in block),
            key=lambda seg: seg[0] / seg[1],
        )
        for b, block in enumerate(segments)
        if block
    ]
    return (
        sum(seg[0] for seg in calm), sum(seg[1] for seg in calm), sum(seg[2] for seg in calm)
    )


def run(workload: ServeWorkload, seed: int, seconds: float, trace: bool) -> dict:
    workdir = OUT / f"{workload.name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    schema_line, lines, ptimes = bid_feed(seed, workload.num_events)
    schema_path = workdir / "bid-schema.jsonl"
    schema_path.write_text(schema_line + "\n")
    dump = workdir / "spans.json" if trace else None

    setup_times = []
    #: the same, scaled by a calibration on the server's CPU just before.
    setup_scaled = []
    setup_counts = {"submits": 0, "subscribes": 0, "rejected": 0}
    server = control = None
    phase = seconds / (2 * BLOCKS)
    per_phase = max(1, round(phase / SEGMENT))
    #: line index -> (due time, open-loop segment id) for open-loop lines.
    due: dict[int, tuple[float, tuple[int, int]]] = {}
    lags: list[float] = []
    #: open-loop segment -> the latest any of its lines was sent.
    late: dict[tuple[int, int], float] = {}
    #: saturation segments, one list per block.
    segments: list[list[tuple[float, int, float]]] = []
    sent = 0
    queue_depth_max = 0
    feed = None
    #: calibration times on the server's CPU: before each phase, and last
    #: after the final saturation phase.
    calibration: list[float] = []
    server_cpu = _server_cpu()
    realtime = False
    # The sender and the reader thread share the GIL; a short switch
    # interval keeps the sender's wake-ups on schedule.
    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(DRIVER_SWITCH_INTERVAL)
    # A collection pause in the driver would read as server latency.
    gc.disable()
    try:
        realtime = _realtime()
        for attempt in range(SETUPS):
            speed = _calibrate_on(server_cpu)
            server, control, elapsed, counts = _setup(
                workload, workdir, schema_path, dump, server_cpu
            )
            setup_times.append(elapsed)
            setup_scaled.append(elapsed * CALIBRATION_REFERENCE_S / speed)
            for key in setup_counts:
                setup_counts[key] += counts[key]
            if attempt < SETUPS - 1:
                control.close()
                server.stop()
        feed = server.connect(server.feed_port, sndbuf=FEED_SNDBUF)
        scraper = _Scraper(control) if trace else None
        if scraper is not None:
            scraper.start()
        cpu0, wall0, driver0 = server.cpu_s(), time.perf_counter(), time.process_time()
        for block in range(BLOCKS):
            calibration.append(_calibrate_on(server_cpu))
            count = _boundary(ptimes, sent + int(workload.offered_rate * phase)) - sent
            times, block_lags = _open_loop(feed, lines[sent:sent + count], count,
                                           workload.offered_rate)
            for k, at in enumerate(times):
                segment = min(int((at - times[0]) / SEGMENT), per_phase - 1)
                due[sent + k] = (at, (block, segment))
                late[(block, segment)] = max(late.get((block, segment), 0.0), block_lags[k])
            lags += block_lags
            sent += count
            _sync(control, sent)
            calibration.append(_calibrate_on(server_cpu))
            n_sat, progress = _saturate(feed, control, server, lines, sent, phase)
            segments.append(_segments(progress))
            # Finish the ptime the saturation block ended inside, and let
            # the backlog drain before the next open-loop block.
            end = _boundary(ptimes, sent + n_sat)
            feed.sendall(b"".join(lines[sent + n_sat:end]))
            sent = end
            _sync(control, sent)
            if len(lines) - sent < 2 * workload.offered_rate * phase:
                break
        calibration.append(_calibrate_on(server_cpu))
        ingested = _sync(control, sent)
        wall1 = time.perf_counter()
        if scraper is not None:
            queue_depth_max = scraper.finish()
        busy = (time.process_time() - driver0) / (wall1 - wall0)
        cpu_s = server.cpu_s() - cpu0
        peak_rss = server.peak_rss_mb()
        final = control.request({"op": "metrics"})["exposition"]
        evictions = _scrape(final, "repro_service_slow_evictions_total")
    finally:
        if realtime:
            os.sched_setscheduler(0, os.SCHED_OTHER, os.sched_param(0))
        if feed is not None:
            feed.close()
        gc.enable()
        sys.setswitchinterval(switch_interval)
        if control is not None:
            control.close()
        if server is not None:
            server.stop()

    check = oracle.check_serve(
        schema_line,
        lines[:sent],
        [(query_id, sql_of(key)) for query_id, key in workload.queries],
        workload.subscribers,
        control.delta_lines(),
    )
    # Open-loop latency: receive time minus the due time of the last feed
    # line carrying the delta's processing time, grouped into segments by
    # that due time.  A ptime also sent in a saturation block has no due
    # time.
    last_due: dict[int, tuple[float, tuple[int, int]]] = {}
    saturated = set()
    for index in range(sent):
        if index in due:
            last_due[ptimes[index]] = due[index]
        else:
            saturated.add(ptimes[index])
    # Each phase's figures are scaled to the reference CPU speed by the
    # mean of the two calibrations taken around it (common.calibrate).
    slowdown = [
        (calibration[i] + calibration[i + 1]) / 2 / CALIBRATION_REFERENCE_S
        for i in range(len(calibration) - 1)
    ]
    by_segment: dict[tuple[int, int], list[float]] = {}
    for arrived, ptime in check.arrivals:
        entry = last_due.get(ptime)
        if entry is not None and ptime not in saturated:
            by_segment.setdefault(entry[1], []).append((arrived - entry[0]) * 1000.0)
    latencies = [x for samples in by_segment.values() for x in samples]
    on_time = [seg for seg in by_segment if late[seg] <= ON_TIME_S]
    calm_latencies = _calm_latencies(by_segment, on_time, slowdown)
    tail_pct, p_tail = (
        tail_percentile(calm_latencies, LATENCY_TAIL) if calm_latencies else (0.0, 0.0)
    )
    calm_s, calm_events, calm_cpu = _calm_throughput(segments, slowdown)
    segments = [seg for block in segments for seg in block]
    lag_pct, lag_tail = tail_percentile(lags)
    send_lag_ms = lag_tail * 1000.0

    attempted = sent + check.expected + setup_counts["submits"] + setup_counts["subscribes"]
    dropped = sent - ingested
    failed = (
        dropped + check.failures + evictions
        + len(control.evictions) + setup_counts["rejected"]
    )
    events_per_s = calm_events / calm_s if calm_s else 0.0
    result = {
        "correct": failed == 0 and bool(calm_latencies) and events_per_s > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "events_per_s": events_per_s,
            "delta_p50_ms": median(calm_latencies) if calm_latencies else 0.0,
            "delta_p95_ms": p_tail,
            "setup_s": median(setup_scaled),
            "peak_rss_mb": peak_rss,
            "cpu_ms_per_kevent": calm_cpu * 1e6 / calm_events if calm_events else 0.0,
        },
        "meta": {
            "events_sent": sent,
            "events_open_loop": len(due),
            "offered_rate": workload.offered_rate,
            "segments": {
                "saturation": len(segments), "open_loop": len(by_segment),
                "open_loop_on_time": len(on_time),
            },
            "segment_events_per_s": [round(seg[1] / seg[0], 1) for seg in segments],
            "calibration_ms": [round(c * 1000.0, 4) for c in calibration],
            "unscaled_whole_run": {
                "events_per_s": sum(seg[1] for seg in segments) / sum(seg[0] for seg in segments),
                "delta_p50_ms": median(latencies) if latencies else 0.0,
                "delta_p95_ms": (
                    tail_percentile(latencies, LATENCY_TAIL)[1] if latencies else 0.0
                ),
                "cpu_ms_per_kevent": cpu_s * 1e6 / sent,
            },
            "latency_samples": len(calm_latencies),
            "latency_tail_percentile": tail_pct,
            "setup_samples": setup_times,
            "deltas_expected": check.expected,
            "driver.send_lag_ms": send_lag_ms,
            "driver.send_lag_percentile": lag_pct,
            "driver.busy_frac": busy,
            "flagged": send_lag_ms > MAX_SEND_LAG_MS or busy > MAX_BUSY_FRAC,
            "failures": {
                "dropped": dropped, "missing": check.missing, "extra": check.extra,
                "mismatched": check.mismatched, "evictions": evictions,
                "rejected": setup_counts["rejected"],
            },
        },
    }
    if trace:
        import layers

        with open(dump) as handle:
            spans = json.load(handle)
        result["per_layer"] = layers.serve_layers(
            spans,
            window=(wall0, wall1),
            events=ingested,
            queue_depth_max=queue_depth_max,
            evictions=evictions,
            sends=check.lines,
            received_bytes=control.bytes,
            meta=result["meta"],
            events_per_s=events_per_s,
        )
    return result
