"""The serve-tier load generator: ``python -m repro serve-bench``.

Boots a :class:`~repro.serve.server.StreamServer` in-process on an
ephemeral port, simulates **N thousand concurrent client connections**
feeding zipfian keys through real sockets, and writes a
``BENCH_serve.json`` in the same report shape as the other suites
(schema docs: docs/benchmarks.md).  Each simulated client connects,
holds its socket open while every other client connects (so the
concurrency number is genuinely simultaneous), streams its slice of
one seeded zipf stream as ``ingest`` frames — retrying on
``backpressure`` exactly like a production client — and interleaves
point and top-k queries whose latencies and reported staleness are
sampled client-side.

After the load phase a control connection issues ``flush`` (the read
barrier) and **audits the guarantee**: every answer is checked against
the exact ground-truth counts of the full stream — monitored estimates
must upper-bound truth within the reported ε·N ``error_bound``, and
so must the answer for an unmonitored element (the bound itself on
Space Saving engines, a frozen table read on sketch engines).
``guarantee_violations``
in the report must be zero; the CI serve-smoke job gates on it.
"""

from __future__ import annotations

import asyncio
import collections
import json
import os
import platform
import resource
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

import bisect

from repro.errors import ConfigurationError
from repro.obs.live import histogram_quantile
from repro.obs.registry import TIME_BUCKETS, Histogram, MetricsRegistry
from repro.serve.protocol import is_push
from repro.serve.server import ServeConfig, StreamServer
from repro.workloads.zipf import zipf_stream

#: pinned workload parameters per scale preset.  ``connections`` is the
#: simultaneously-open socket count the run must sustain; ``alpha`` is
#: mild so the audit exercises both monitored and unmonitored elements.
SERVE_SCALES: Dict[str, Dict[str, Any]] = {
    "smoke": {
        "connections": 1000,
        "events_per_client": 30,
        "ingest_frame_events": 10,
        "queries_per_client": 2,
        "alphabet": 2_000,
        "alpha": 1.3,
        "capacity": 256,
        "batch_events": 4_096,
        "batch_interval": 0.02,
        "max_pending_batches": 64,
        "point_checks": 200,
        "top_k": 10,
        "seed": 7,
    },
    "default": {
        "connections": 2_000,
        "events_per_client": 100,
        "ingest_frame_events": 25,
        "queries_per_client": 4,
        "alphabet": 10_000,
        "alpha": 1.3,
        "capacity": 512,
        "batch_events": 8_192,
        "batch_interval": 0.02,
        "max_pending_batches": 64,
        "point_checks": 400,
        "top_k": 20,
        "seed": 7,
    },
}

#: schema shared with repro.bench reports
SCHEMA_VERSION = 1

#: cap on simultaneous connection *attempts* (the listen backlog is
#: finite; established sockets stay open so concurrency still peaks at
#: the full connection count)
_CONNECT_GATE = 200


def _peak_rss_kb() -> int:
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return int(usage + children)


def _raise_nofile_limit(wanted: int) -> None:
    """Best-effort soft-limit bump so N thousand sockets fit."""
    try:
        soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
        if soft < wanted:
            resource.setrlimit(
                resource.RLIMIT_NOFILE, (min(wanted, hard), hard)
            )
    except (ValueError, OSError):
        pass


def _percentile(samples: List[float], fraction: float) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(round(fraction * (len(ordered) - 1))))
    return ordered[index]


def latency_crosscheck(
    samples: List[float], quantiles: Tuple[float, ...] = (0.50, 0.99)
) -> Dict[str, Any]:
    """Cross-check sampled percentiles against histogram quantiles.

    The same latency samples are derived two ways — exact order
    statistics (:func:`_percentile`) and the bucketed estimator every
    live consumer sees (:func:`repro.obs.live.histogram_quantile` over
    a :data:`TIME_BUCKETS` histogram).  Both land in the report, and
    the check fails when they disagree by more than one bucket: the
    histogram estimator interpolates inside a bucket, so anything
    further apart means the quantile math (not the bucketing) is wrong.
    """
    hist = Histogram(TIME_BUCKETS)
    for value in samples:
        hist.observe(value)
    result: Dict[str, Any] = {"ok": True}
    for q in quantiles:
        key = f"p{int(q * 100)}"
        sampled = _percentile(samples, q)
        derived = histogram_quantile(q, hist.bounds, hist.counts)
        result[f"sampled_{key}_s"] = sampled
        result[f"hist_{key}_s"] = derived
        if derived is None:
            result["ok"] = result["ok"] and not samples
            continue
        sampled_bucket = bisect.bisect_left(hist.bounds, sampled)
        derived_bucket = bisect.bisect_left(hist.bounds, derived)
        if abs(sampled_bucket - derived_bucket) > 1:
            result["ok"] = False
    return result


class _Client:
    """One simulated connection: lockstep NDJSON request/response."""

    def __init__(self, host: str, port: int, limit: int = 1 << 22) -> None:
        self._host = host
        self._port = port
        self._limit = limit
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def connect(self, attempts: int = 20) -> None:
        for attempt in range(attempts):
            try:
                self._reader, self._writer = await asyncio.open_connection(
                    self._host, self._port, limit=self._limit
                )
                return
            except OSError:
                if attempt == attempts - 1:
                    raise
                await asyncio.sleep(0.05 * (attempt + 1))

    async def request(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        self._writer.write(
            json.dumps(payload, separators=(",", ":")).encode() + b"\n"
        )
        await self._writer.drain()
        while True:
            line = await self._reader.readline()
            if not line:
                raise ConnectionResetError("server closed the connection")
            response = json.loads(line)
            if not is_push(response):
                return response

    async def ingest(self, events: List[Any]) -> Dict[str, Any]:
        """Send one ingest frame, retrying on backpressure like a
        production client (bounded exponential backoff)."""
        delay = 0.01
        while True:
            response = await self.request({"op": "ingest", "events": events})
            if response.get("ok"):
                return response
            if response.get("error") != "backpressure":
                raise ConfigurationError(
                    f"unexpected ingest error: {response}"
                )
            await asyncio.sleep(delay)
            delay = min(delay * 2, 0.2)

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass


async def _run_bench(
    params: Dict[str, Any], backend: str
) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    connections = params["connections"]
    events_per_client = params["events_per_client"]
    frame_events = params["ingest_frame_events"]
    queries_per_client = params["queries_per_client"]
    _raise_nofile_limit(connections * 2 + 512)

    stream = zipf_stream(
        length=connections * events_per_client,
        alphabet=params["alphabet"],
        alpha=params["alpha"],
        seed=params["seed"],
    )
    truth = collections.Counter(stream)

    metrics = MetricsRegistry()
    config = ServeConfig(
        backend=backend,
        port=0,
        capacity=params["capacity"],
        batch_events=params["batch_events"],
        batch_interval=params["batch_interval"],
        max_pending_batches=params["max_pending_batches"],
        seed=params["seed"],
        metrics_port=0,
    )
    latencies: List[float] = []
    staleness: List[float] = []
    connected = 0
    peak_connected = 0
    ingest_start: Optional[float] = None
    all_connected = asyncio.Event()
    connect_gate = asyncio.Semaphore(_CONNECT_GATE)

    async with StreamServer(config, metrics=metrics) as server:
        host, port = config.host, server.port

        async def one_client(index: int) -> None:
            nonlocal connected, peak_connected, ingest_start
            client = _Client(host, port)
            async with connect_gate:
                await client.connect()
            connected += 1
            peak_connected = max(peak_connected, connected)
            if connected == connections:
                all_connected.set()
            try:
                # hold the socket until *every* client is connected, so
                # the reported concurrency is genuinely simultaneous
                await all_connected.wait()
                # the first client through the barrier starts the load
                # clock: connection ramp-up must not deflate ingest_eps
                if ingest_start is None:
                    ingest_start = time.perf_counter()
                slice_ = stream[
                    index * events_per_client:(index + 1) * events_per_client
                ]
                for offset in range(0, len(slice_), frame_events):
                    await client.ingest(slice_[offset:offset + frame_events])
                for q in range(queries_per_client):
                    if q % 2 == 0:
                        payload = {
                            "op": "query", "kind": "point",
                            "element": slice_[q % len(slice_)],
                        }
                    else:
                        payload = {
                            "op": "query", "kind": "topk",
                            "k": params["top_k"],
                        }
                    start = time.perf_counter()
                    response = await client.request(payload)
                    latencies.append(time.perf_counter() - start)
                    if not response.get("ok"):
                        raise ConfigurationError(
                            f"query failed: {response}"
                        )
                    staleness.append(response["staleness"])
            finally:
                connected -= 1
                await client.close()

        # the live-telemetry probe runs *while the load is in flight*:
        # one metrics op on the NDJSON port and one Prometheus scrape,
        # both issued the moment every client is connected and streaming
        probe: Dict[str, bool] = {
            "metrics_op_ok": False, "prometheus_scrape_ok": False,
        }

        async def live_probe() -> None:
            await all_connected.wait()
            client = _Client(host, port)
            try:
                await client.connect()
                answer = await client.request({"op": "metrics"})
                probe["metrics_op_ok"] = bool(
                    answer.get("ok") and "summary" in answer
                )
            finally:
                await client.close()
            reader, writer = await asyncio.open_connection(
                host, server.metrics_http_port
            )
            try:
                writer.write(
                    f"GET /metrics HTTP/1.0\r\nHost: {host}\r\n\r\n".encode()
                )
                await writer.drain()
                text = (await reader.read()).decode("utf-8", "replace")
                probe["prometheus_scrape_ok"] = (
                    "repro_serve_ingest_events_total" in text
                )
            finally:
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionResetError, BrokenPipeError):
                    pass

        connect_start = time.perf_counter()
        await asyncio.gather(
            live_probe(),
            *(one_client(index) for index in range(connections))
        )
        load_end = time.perf_counter()
        # ingest_start is set once every client passed the barrier; the
        # fallback only matters if gather somehow returned without it
        if ingest_start is None:
            ingest_start = connect_start
        connect_seconds = ingest_start - connect_start
        load_seconds = load_end - ingest_start

        # ---- guarantee audit (exact ground truth, post-flush) --------
        control = _Client(host, port)
        await control.connect()
        flush = await control.request({"op": "flush"})
        assert flush.get("ok"), flush
        error_bound = flush["error_bound"]
        processed = flush["processed"]
        violations = 0

        def audit(estimate: int, true_count: int) -> int:
            if estimate < true_count:
                return 1
            return 0 if estimate - true_count <= error_bound else 1

        if processed != len(stream):
            violations += 1

        top = await control.request(
            {"op": "query", "kind": "topk", "k": params["capacity"]}
        )
        for entry in top["results"]:
            violations += audit(entry["count"], truth[entry["element"]])

        # point-check the hottest elements plus a cold/absent sample
        ranked = [element for element, _ in truth.most_common()]
        sample = ranked[: params["point_checks"] // 2]
        sample += ranked[-(params["point_checks"] // 4):]
        sample += [params["alphabet"] + offset for offset in range(
            params["point_checks"] // 4)]
        for element in sample:
            answer = await control.request(
                {"op": "query", "kind": "point", "element": element}
            )
            violations += audit(answer["count"], truth.get(element, 0))

        stats = (await control.request({"op": "stats"}))["stats"]
        await control.close()
        snapshot = metrics.snapshot()

    counters = snapshot["counters"]
    crosscheck = latency_crosscheck(latencies)
    entry = {
        "name": f"serve-{backend}",
        "backend": backend,
        "connections": connections,
        "peak_concurrent": peak_connected,
        "ingest_events": counters.get("serve.ingest.events", 0),
        "connect_seconds": round(connect_seconds, 4),
        "load_seconds": round(load_seconds, 4),
        "ingest_eps": round(len(stream) / load_seconds, 1),
        "query_count": len(latencies),
        "query_p50_ms": round(_percentile(latencies, 0.50) * 1e3, 3),
        "query_p99_ms": round(_percentile(latencies, 0.99) * 1e3, 3),
        "hist_p50_ms": round((crosscheck["hist_p50_s"] or 0.0) * 1e3, 3),
        "hist_p99_ms": round((crosscheck["hist_p99_s"] or 0.0) * 1e3, 3),
        "latency_crosscheck_ok": crosscheck["ok"],
        "metrics_op_ok": probe["metrics_op_ok"],
        "prometheus_scrape_ok": probe["prometheus_scrape_ok"],
        "staleness_p50_s": round(_percentile(staleness, 0.50), 4),
        "staleness_max_s": round(max(staleness), 4) if staleness else 0.0,
        "staleness_bound_s": config.staleness_bound,
        "error_bound": error_bound,
        "processed": processed,
        "guarantee_violations": violations,
        "protocol_errors": counters.get("serve.protocol.errors", 0),
        "backpressure_rejections": counters.get("serve.ingest.rejected", 0),
        "peak_rss_kb": _peak_rss_kb(),
        "metrics": snapshot,
    }
    return entry, stats


def run_serve_bench(
    scale: str = "smoke", backend: str = "sequential"
) -> Dict[str, Any]:
    """Run the serve load bench and return the report dict."""
    if scale not in SERVE_SCALES:
        raise ConfigurationError(
            f"scale must be one of {sorted(SERVE_SCALES)}, got {scale!r}"
        )
    params = dict(SERVE_SCALES[scale])
    params["backend"] = backend
    entry, _stats = asyncio.run(_run_bench(params, backend))
    return {
        "schema_version": SCHEMA_VERSION,
        "suite": "serve",
        "scale": scale,
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "params": params,
        "results": [entry],
        "host_cores": os.cpu_count(),
    }


def format_serve_report(report: Dict[str, Any]) -> str:
    """Human-readable one-line summary (mirrors ``repro.bench``)."""
    lines = [
        f"serve bench — scale={report['scale']} "
        f"python={report['python']}",
    ]
    for entry in report["results"]:
        lines.append(
            f"  {entry['name']:<24} conns={entry['peak_concurrent']} "
            f"eps={entry['ingest_eps']:.0f} "
            f"p50={entry['query_p50_ms']:.2f}ms "
            f"p99={entry['query_p99_ms']:.2f}ms "
            f"staleness_max={entry['staleness_max_s']:.3f}s "
            f"violations={entry['guarantee_violations']} "
            f"proto_errors={entry['protocol_errors']}"
        )
        lines.append(
            f"  {'':<24} hist_p50={entry['hist_p50_ms']:.2f}ms "
            f"hist_p99={entry['hist_p99_ms']:.2f}ms "
            f"crosscheck={'ok' if entry['latency_crosscheck_ok'] else 'FAIL'} "
            f"metrics_op={'ok' if entry['metrics_op_ok'] else 'FAIL'} "
            f"prometheus={'ok' if entry['prometheus_scrape_ok'] else 'FAIL'}"
        )
    return "\n".join(lines)
