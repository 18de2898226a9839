"""The serve-mixed workload: ``python -m repro serve`` under open-loop load.

The server runs as its own process with stock flags (sequential
backend).  This process is the load generator and never shares an event
loop with it.  It drives the server over two connections:

* ingest: 1000-event ``ingest`` frames at a fixed 100k events/s, about
  a quarter of the stock server's closed-loop saturation, so backpressure
  refusals stay at zero even while the host runs slow, and any refusal
  is a real failure;
* queries: a fixed 200/s mix of point queries on hot and cold keys,
  ``topk`` and phi-``set`` queries.

Both streams are open loop and pipelined with request ``id``s: a frame
goes out when it is due, whatever the server is doing, and every
latency is timed from the due time, so a server stall also charges the
requests queued behind it.  Every request of the run is scored; a run
whose generator kept its schedule badly is flagged invalid instead.  The
run ends with ``flush`` and an audit of the final answers against exact
counts.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import re
import select
import signal
import socket
import subprocess
import sys
from typing import Any, Dict, List, Tuple

import numpy as np

from repro.obs.tracing import NULL_TRACER, Tracer
from repro.serve.protocol import decode_request, encode_frame
from repro.workloads import ZipfStreamSpec

from common import (
    CAPACITY,
    OUT_DIR,
    ROOT,
    SRC,
    ZIPF_ALPHA,
    ZIPF_ALPHABET,
    ack_to_visible,
    audit_point,
    median,
    now,
    percentile,
    proc_cpu_seconds,
    proc_memory_mb,
    regressions,
)

HOST = "127.0.0.1"
INGEST_RATE = 100_000           #: events/s offered
FRAME_EVENTS = 1_000
#: queries/s, cycling hot point, cold point, topk and set.  Rate and mix
#: are assumptions: nothing in the repo fixes a query load for a server.
#: 200/s puts a probe every 5 ms, far below the server's 200 ms snapshot
#: interval, so it sets the freshness resolution (5 ms) and a 30-s run
#: holds 6000 query samples.  The four kinds are the protocol's one-shot
#: answer paths (monitored point, unmonitored point, ranked top-k,
#: threshold set), one each so a change to any path moves the mix.  The
#: topk quarter (50/s) reads five times as often as the repo's
#: network-monitoring example, which reads the top-10 once every 10k
#: events (10/s at this ingest rate).
QUERY_RATE = 200
STATS_RATE = 20                 #: ``stats`` samples/s in the traced run
SETUP_REPEATS = 9
POINT_CHECKS = 200
PROBE_KEYS = 8                  #: hot and cold keys each for point queries
TOP_K = 10
PHI = 0.01
READY_TIMEOUT = 60.0
DRAIN_TIMEOUT = 60.0

_SERVING = re.compile(r" on ([0-9.]+):(\d+) ")
_END = b'"id":"end"'


class LoadError(RuntimeError):
    """The server could not be started, reached or stopped."""


# ----------------------------------------------------------------------
# Server process
# ----------------------------------------------------------------------
class ServerProcess:
    """One ``python -m repro serve --port 0`` child, stock flags."""

    def __init__(self, log_path) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        self._log = open(log_path, "ab")
        started = now()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            cwd=str(ROOT), env=env, stdout=subprocess.PIPE,
            stderr=self._log, stdin=subprocess.DEVNULL,
        )
        try:
            self.port = self._read_port()
            self._ping()
        except BaseException:
            self.stop()
            raise
        self.setup_s = now() - started

    def _read_port(self) -> int:
        deadline = now() + READY_TIMEOUT
        while now() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if not ready:
                if self.proc.poll() is not None:
                    break
                continue
            line = self.proc.stdout.readline().decode("utf-8", "replace")
            if not line:
                break
            match = _SERVING.search(line)
            if match:
                return int(match.group(2))
        raise LoadError("serve did not announce its port")

    def _ping(self) -> None:
        with socket.create_connection((HOST, self.port), timeout=10) as sock:
            sock.sendall(b'{"op":"ping"}\n')
            reply = sock.makefile("rb").readline()
        if not json.loads(reply).get("pong"):
            raise LoadError(f"unexpected ping reply {reply!r}")

    def cpu_seconds(self) -> float:
        return proc_cpu_seconds(self.proc.pid)

    def peak_rss_mb(self) -> float:
        return proc_memory_mb(self.proc.pid, "VmHWM")

    def stop(self) -> None:
        """SIGINT (the server's clean shutdown), then kill if it lingers.

        The server is reaped on every path, an interrupted wait included.
        """
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGINT)
                self.proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            pass
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
            self.proc.wait()
            self.proc.stdout.close()
            self._log.close()


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
class Inputs:
    """Pre-encoded frames plus the ground truth the audit needs."""

    def __init__(self, seed: int, seconds: float) -> None:
        frames = max(2, int(INGEST_RATE * seconds) // FRAME_EVENTS)
        self.stream = ZipfStreamSpec(
            length=frames * FRAME_EVENTS, alphabet=ZIPF_ALPHABET,
            alpha=ZIPF_ALPHA, seed=seed,
        ).generate()
        values, counts = np.unique(self.stream, return_counts=True)
        order = np.lexsort((values, -counts))
        self.ranked = values[order].tolist()
        self.truth = dict(zip(values.tolist(), counts.tolist()))
        self.hot = self.ranked[:PROBE_KEYS]
        self.cold = self.ranked[-PROBE_KEYS:]
        #: sorted stream positions of each probe key: prefix truth for
        #: any ``processed`` is one binary search
        self.positions = {
            key: np.flatnonzero(self.stream == key)
            for key in self.hot + self.cold
        }
        self.ingest_frames = [
            encode_frame({
                "op": "ingest", "id": index,
                "events": self.stream[
                    index * FRAME_EVENTS:(index + 1) * FRAME_EVENTS
                ].tolist(),
            })
            for index in range(frames)
        ]
        queries = int(QUERY_RATE * seconds)
        self.query_payloads = [
            self._query(index) for index in range(queries)
        ]
        self.query_frames = [encode_frame(q) for q in self.query_payloads]

    def _query(self, index: int) -> Dict[str, Any]:
        kind = index % 4
        if kind == 0:
            body = {"kind": "point", "element": self.hot[index // 4 % PROBE_KEYS]}
        elif kind == 1:
            body = {"kind": "point", "element": self.cold[index // 4 % PROBE_KEYS]}
        elif kind == 2:
            body = {"kind": "topk", "k": TOP_K}
        else:
            body = {"kind": "set", "phi": PHI}
        return {"op": "query", "id": index, **body}

    def prefix_truth(self, key, processed: int) -> int:
        return int(np.searchsorted(self.positions[key], processed))


# ----------------------------------------------------------------------
# Load generation
# ----------------------------------------------------------------------
class Phase:
    """Timestamps of one open-loop phase (global frame/query indices)."""

    def __init__(self, frames: slice, queries: slice) -> None:
        self.frames = frames
        self.queries = queries
        self.ingest_due: List[float] = []
        self.query_due: List[float] = []
        self.acks: List[Tuple[float, Dict]] = []
        self.answers: List[Tuple[float, Dict]] = []
        self.stats: List[Dict] = []
        self.lags: List[float] = []     #: each send's lag behind its due time
        self.cpu = 0.0                  #: server CPU seconds over the phase
        self.started = 0.0


async def _pace(writer, frames, interval, started, due, lags, tracer, track):
    """Send each frame at its due time; the send is a span when traced."""
    for index, frame in enumerate(frames):
        when = started + index * interval
        delay = when - now()
        if delay > 0:
            await asyncio.sleep(delay)
        with tracer.span(track, "send", "load"):
            lags.append(now() - when)
            due.append(when)
            writer.write(frame)
        if writer.transport.get_write_buffer_size() > 1 << 20:
            await writer.drain()


async def _collect(reader, sink, tracer, track) -> None:
    """Read responses until the ``end`` marker (responses keep order).

    Lines are kept raw and parsed after the phase, so the generator does
    no parsing work while it has frames to send on time.  Each response
    is an instant when traced.
    """
    while True:
        line = await reader.readline()
        if not line:
            raise LoadError("server closed the connection")
        if _END in line:
            return
        received = now()
        tracer.instant(track, "receive", "load", received)
        sink.append((received, line))


async def _sample_stats(writer, stop: asyncio.Event) -> None:
    index = 0
    while not stop.is_set():
        writer.write(encode_frame({"op": "stats", "id": f"s{index}"}))
        index += 1
        try:
            await asyncio.wait_for(stop.wait(), timeout=1.0 / STATS_RATE)
        except asyncio.TimeoutError:
            pass


async def _phase(conns, inputs, phase: Phase, seconds, sample, cpu_seconds,
                 tracer=NULL_TRACER):
    """Drive one open-loop phase, reading answers as they arrive.

    ``sample`` adds the ``stats`` sampler on the query connection;
    ``tracer`` records every send and receive live.
    """
    (ingest_r, ingest_w), (query_r, query_w) = conns
    frames = inputs.ingest_frames[phase.frames]
    queries = inputs.query_frames[phase.queries]
    acks: List[Tuple[float, bytes]] = []
    answers: List[Tuple[float, bytes]] = []
    readers = [
        asyncio.create_task(_collect(ingest_r, acks, tracer, "ingest")),
        asyncio.create_task(_collect(query_r, answers, tracer, "query")),
    ]
    stop = asyncio.Event()
    sampler = asyncio.create_task(_sample_stats(query_w, stop)) if sample else None
    cpu_started = cpu_seconds()
    phase.started = now() + 0.05
    await asyncio.gather(
        _pace(ingest_w, frames, seconds / len(frames), phase.started,
              phase.ingest_due, phase.lags, tracer, "ingest"),
        _pace(query_w, queries, seconds / len(queries), phase.started,
              phase.query_due, phase.lags, tracer, "query"),
    )
    if sampler is not None:
        stop.set()
        await sampler
    for _, writer in conns:
        writer.write(encode_frame({"op": "ping", "id": "end"}))
    await asyncio.wait_for(asyncio.gather(*readers), DRAIN_TIMEOUT)
    phase.cpu = cpu_seconds() - cpu_started
    phase.acks = [(received, json.loads(line)) for received, line in acks]
    for received, line in answers:
        message = json.loads(line)
        if isinstance(message.get("id"), str):
            phase.stats.append(message["stats"])
        else:
            phase.answers.append((received, message))


async def _request(reader, writer, payload) -> Dict[str, Any]:
    writer.write(encode_frame(payload))
    await writer.drain()
    return json.loads(await reader.readline())


async def _drive(port, inputs, seconds, tracer, cpu_seconds) -> Dict[str, Any]:
    conns = [
        await asyncio.open_connection(HOST, port, limit=1 << 22)
        for _ in range(2)
    ]
    (ingest_r, ingest_w), (query_r, query_w) = conns
    try:
        before = await _request(
            query_r, query_w, {"op": "metrics", "raw": True}
        )
        frames = len(inputs.ingest_frames)
        queries = len(inputs.query_frames)
        if tracer is not None:
            # the first half is the untraced reference for the trace cost:
            # both halves sample ``stats``, only the second records spans
            phases = [
                Phase(slice(0, frames // 2), slice(0, queries // 2)),
                Phase(slice(frames // 2, frames), slice(queries // 2, queries)),
            ]
        else:
            phases = [Phase(slice(0, frames), slice(0, queries))]
        # a collection pause in the generator would read as server latency
        gc.disable()
        try:
            for index, phase in enumerate(phases):
                await _phase(
                    conns, inputs, phase, seconds / len(phases),
                    tracer is not None, cpu_seconds,
                    tracer if index == 1 else NULL_TRACER,
                )
        finally:
            gc.enable()
        flush = await _request(ingest_r, ingest_w, {"op": "flush"})
        visible_at = now()
        audit = await _audit(query_r, query_w, inputs, flush)
        after = await _request(query_r, query_w, {"op": "metrics", "raw": True})
        return {
            "phases": phases, "flush": flush, "visible_at": visible_at,
            "audit": audit, "before": before["snapshot"],
            "after": after["snapshot"],
        }
    finally:
        for _, writer in conns:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass


async def _audit(reader, writer, inputs, flush) -> Tuple[int, int]:
    """serve-bench's flush-then-audit; returns (checks, violations)."""
    bound = flush["error_bound"]
    top = await _request(
        reader, writer, {"op": "query", "kind": "topk", "k": CAPACITY}
    )
    checks = 0
    violations = 0
    for entry in top["results"]:
        checks += 1
        violations += audit_point(
            entry["count"], True, inputs.truth.get(entry["element"], 0), bound
        )
    ranked = inputs.ranked
    sample = ranked[:POINT_CHECKS // 2] + ranked[-(POINT_CHECKS // 4):]
    sample += [ZIPF_ALPHABET + offset for offset in range(POINT_CHECKS // 4)]
    for element in sample:
        answer = await _request(
            reader, writer, {"op": "query", "kind": "point", "element": element}
        )
        checks += 1
        violations += audit_point(
            answer["count"], answer["monitored"],
            inputs.truth.get(element, 0), bound,
        )
    return checks, violations


# ----------------------------------------------------------------------
# Scoring
# ----------------------------------------------------------------------
def check_answer(inputs: Inputs, payload: Dict, answer: Dict) -> int:
    """Violations in one live answer, against the prefix it reflects."""
    if not answer.get("ok"):
        return 1
    if payload["kind"] == "point":
        return audit_point(
            answer["count"], answer["monitored"],
            inputs.prefix_truth(payload["element"], answer["processed"]),
            answer["error_bound"],
        )
    counts = [entry["count"] for entry in answer["results"]]
    if counts != sorted(counts, reverse=True):
        return 1
    if payload["kind"] == "set":
        return int(any(count < answer["threshold"] for count in counts))
    return int(len(counts) > TOP_K)


def _histogram_delta(before, after, name) -> Tuple[float, int]:
    empty = {"sum": 0.0, "count": 0}
    old = before["histograms"].get(name, empty)
    new = after["histograms"].get(name, empty)
    return new["sum"] - old["sum"], new["count"] - old["count"]


def _counter_delta(before, after, name) -> int:
    return after["counters"].get(name, 0) - before["counters"].get(name, 0)


def _query_latencies(phase: Phase) -> List[float]:
    first = phase.queries.start
    return [
        received - phase.query_due[answer["id"] - first]
        for received, answer in phase.answers
    ]


def _ack_latencies(phase: Phase) -> List[float]:
    first = phase.frames.start
    return [
        received - phase.ingest_due[ack["id"] - first]
        for received, ack in phase.acks
        if ack.get("ok")
    ]


def score(inputs: Inputs, result: Dict[str, Any]) -> Dict[str, Any]:
    """Latency, freshness and correctness figures of one driven run."""
    phases = result["phases"]
    refused = 0
    cumulative: List[Tuple[float, int]] = []
    acked = 0
    for phase in phases:
        for received, ack in phase.acks:
            if not ack.get("ok"):
                refused += 1
                continue
            acked += ack["accepted"]
            cumulative.append((received, acked))
    answers = [
        (received, answer.get("processed", 0))
        for phase in phases for received, answer in phase.answers
    ]
    # acks after the last query answer become visible only at the flush:
    # they fall outside the measured window, not outside the promise
    freshness, _ = ack_to_visible(cumulative, answers)
    violations = sum(
        check_answer(inputs, inputs.query_payloads[answer["id"]], answer)
        for phase in phases for _, answer in phase.answers
    )
    checks, audit_violations = result["audit"]
    flush = result["flush"]
    failed = (
        violations + audit_violations + refused + regressions(answers)
        + int(flush["processed"] != acked)
        + int(acked != len(inputs.stream))
    )
    lags = [lag for phase in phases for lag in phase.lags]
    return {
        "ack": [x for phase in phases for x in _ack_latencies(phase)],
        "query": [x for phase in phases for x in _query_latencies(phase)],
        "cpu_us_per_event": (
            sum(phase.cpu for phase in phases) / max(1, acked) * 1e6
        ),
        "freshness": freshness,
        "refused": refused,
        "failed": failed,
        "attempted": (
            len(inputs.ingest_frames) + len(inputs.query_frames) + checks + 1
        ),
        "lag_p50_ms": percentile(lags, 0.50) * 1e3,
        "lag_p99_ms": percentile(lags, 0.99) * 1e3,
    }


def launch_times(log_path, count: int) -> List[float]:
    """Setup seconds of ``count`` server launches, each stopped again."""
    times = []
    for _ in range(count):
        server = ServerProcess(log_path)
        try:
            times.append(server.setup_s)
        finally:
            server.stop()
    return times


def run(name: str, seed: int, seconds: float, trace: bool):
    """One serve-mixed run; returns the result dict for run.py."""
    inputs = Inputs(seed, seconds)
    gc.collect()
    gc.freeze()
    OUT_DIR.mkdir(exist_ok=True)
    log_path = OUT_DIR / f"{name}-seed{seed}.server.log"
    # launches before and after the load, so the setup median spans the
    # run rather than one moment of the host
    setups = launch_times(log_path, SETUP_REPEATS // 2)
    server = ServerProcess(log_path)
    setups.append(server.setup_s)
    tracer = Tracer() if trace else None
    try:
        cpu_before = server.cpu_seconds()
        result = asyncio.run(
            _drive(server.port, inputs, seconds, tracer, server.cpu_seconds)
        )
        cpu_seconds = server.cpu_seconds() - cpu_before
        peak_rss = server.peak_rss_mb()
    finally:
        server.stop()
    setups += launch_times(log_path, SETUP_REPEATS - len(setups))

    scored = score(inputs, result)
    events = len(inputs.stream)
    started = result["phases"][0].started
    wall = result["visible_at"] - started
    invalid = []
    # a late send now and then is the host; running late throughout is a
    # generator that cannot keep its schedule
    if scored["lag_p50_ms"] > 1e3 / QUERY_RATE:
        invalid.append("generator fell behind its query interval")
    if scored["refused"]:
        invalid.append("backpressure refusals at the pinned rate")
    out: Dict[str, Any] = {
        "attempted": scored["attempted"],
        "failed": scored["failed"],
        "workers": 0,
        "invalid": invalid,
        "detail": {
            "gen_lag_p99_ms": scored["lag_p99_ms"],
            "query_interval_ms": 1e3 / QUERY_RATE,
            "offered_eps": INGEST_RATE,
            "events": events,
            "refused": scored["refused"],
            "ack_samples": len(scored["ack"]),
            "query_samples": len(scored["query"]),
            "freshness_samples": len(scored["freshness"]),
            "setup_samples": len(setups),
        },
    }
    if not trace:
        out["metrics"] = {
            "setup_s": median(setups),
            "ingest_eps": events / wall,
            "query_p50_ms": percentile(scored["query"], 0.50) * 1e3,
            "query_p99_ms": percentile(scored["query"], 0.99) * 1e3,
            "ack_p50_ms": percentile(scored["ack"], 0.50) * 1e3,
            "ack_p99_ms": percentile(scored["ack"], 0.99) * 1e3,
            "freshness_p50_ms": percentile(scored["freshness"], 0.50) * 1e3,
            "freshness_p99_ms": percentile(scored["freshness"], 0.99) * 1e3,
            "cpu_us_per_event": scored["cpu_us_per_event"],
            "peak_rss_mb": peak_rss,
        }
    else:
        out["metrics"] = _traced_layers(
            inputs, result, tracer, cpu_seconds, wall
        )
        out["tracer"] = tracer
    return out


def _traced_layers(inputs, result, tracer, cpu_seconds, wall):
    """Per-layer figures: request spans, protocol replays, server registry.

    The traced half recorded its sends and receives live; each request's
    due-to-answer span is added from those timestamps afterwards.
    """
    untraced, traced = result["phases"]
    first = traced.frames.start
    for received, ack in traced.acks:
        due = traced.ingest_due[ack["id"] - first]
        tracer.add_span("ingest", "serve.ingest", "serve", due, received)
    first = traced.queries.start
    for received, answer in traced.answers:
        tracer.add_span(
            "query", "serve.query." + inputs.query_payloads[answer["id"]]["kind"],
            "serve", traced.query_due[answer["id"] - first], received,
        )

    def replay(name, fn, items) -> List[float]:
        seconds = []
        for item in items:
            with tracer.span("replay", name, "serve.protocol"):
                began = now()
                fn(item)
                seconds.append(now() - began)
        return seconds

    decode_ingest = replay(
        "serve.protocol.decode_request", decode_request, inputs.ingest_frames
    )
    decode_query = replay(
        "serve.protocol.decode_request", decode_request, inputs.query_frames
    )
    encode_answer = replay(
        "serve.protocol.encode_frame", encode_frame,
        [answer for phase in result["phases"] for _, answer in phase.answers],
    )
    before, after = result["before"], result["after"]
    flush_s, flush_n = _histogram_delta(
        before, after, "serve.batch.flush_seconds"
    )
    fill_sum, fill_n = _histogram_delta(before, after, "serve.batch.fill")
    refresh_s, refresh_n = _histogram_delta(
        before, after, "serve.snapshot.seconds"
    )
    query_s, query_n = _histogram_delta(before, after, "serve.query.seconds")
    stage_s = (
        flush_s + refresh_s + query_s
        + sum(decode_ingest) + sum(decode_query) + sum(encode_answer)
    )
    depths = [
        float(stats["queue_depth"])
        for phase in result["phases"] for stats in phase.stats
    ]
    layer = {
        "serve.protocol.decode_ingest_us": median(decode_ingest) * 1e6,
        "serve.protocol.decode_query_us": median(decode_query) * 1e6,
        "serve.protocol.encode_answer_us": median(encode_answer) * 1e6,
        "serve.server.flush_s_sum": flush_s,
        "serve.server.flush_count": float(flush_n),
        "serve.server.busy_share": flush_s / wall,
        "serve.server.batch_fill_mean": fill_sum / max(1, fill_n),
        "serve.server.queue_depth_p99": percentile(depths, 0.99),
        "serve.server.refresh_ms_mean": refresh_s / max(1, refresh_n) * 1e3,
        "serve.server.refresh_count": float(
            _counter_delta(before, after, "serve.snapshot.refreshes")
        ),
        "serve.server.query_us_mean": query_s / max(1, query_n) * 1e6,
        "serve.server.rejected": float(
            _counter_delta(before, after, "serve.ingest.rejected")
        ),
        "stage_residual_share": 1.0 - stage_s / cpu_seconds,
        "trace_overhead_share": (
            median(_query_latencies(traced))
            / median(_query_latencies(untraced)) - 1.0
        ),
    }
    return layer
