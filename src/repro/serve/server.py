"""The asyncio serve tier: live ingest + the §3.2 query model on sockets.

One :class:`StreamServer` owns one backend from
:func:`repro.backend.create_backend` — any registered engine — and
splits the work across three concerns so the hot ingest path never
waits on a reader (the Gulisano-style snapshot-read design):

**Ingest plane.**  Batches move onto a bounded :class:`asyncio.Queue`
(``max_pending_batches`` deep — the backpressure budget) that a single
flusher task drains into ``backend.ingest`` inside a one-thread
executor, so the event loop never blocks on the counting core and
backend access stays serialized.  Batching is group commit: a frame
that finds the flusher idle and the queue empty goes onto the queue at
once as a partial batch; otherwise it waits in a pending buffer, which
cuts full micro-batches of ``batch_events`` elements as it fills and
hands its tail to the flusher as soon as the flusher drains the queue.
So batches grow only with the backlog of a busy flusher, never with a
timer while it idles.

**Query plane.**  Queries are answered from an immutable
:class:`~repro.backend.base.Snapshot` — never from live backend state —
so a million concurrent readers cost the ingest path nothing.  The
flusher builds that view in the same executor job as the batch it
reflects, right after ``backend.ingest``, and the loop installs it.  A
snapshot may take at most about a tenth of the backend thread: the
flusher skips it while the last one ended less than
:data:`SNAPSHOT_GAP` of its own durations ago, and once it is due a
``batch_interval`` ticker catches a skipped view up with an empty
batch.  Every answer reports its ``staleness`` (seconds since the view
was built).  While the flusher keeps up, an acknowledged event becomes
visible within ``staleness_bound`` = ``2 × batch_interval``, which
``stats`` reports: the batch in flight plus the event's own flush,
plus one catch-up period for a deferred snapshot (that needs a
snapshot under a ninth of ``batch_interval``).  Under overload the
queue-drain term — queue depth × flush time — comes on top;
``serve.queue.depth`` shows it.
``serve.freshness.ack_to_visible_seconds`` measures the promise
directly: each ingest frame from its ack to the first view that
covers it.

**Backpressure.**  When admitting a frame would need more micro-batch
slots than the queue has free, the server answers an error with code
``backpressure`` and drops the events (the client retries); the budget
is structural — the queue's ``maxsize`` makes exceeding it impossible,
not merely unlikely.  A subscriber whose socket buffer exceeds
``max_buffer_bytes`` is disconnected instead of letting its unread
pushes grow server memory without bound.

Wire protocol: :mod:`repro.serve.protocol`; reference and operator
guide: docs/serve.md.
"""

from __future__ import annotations

import asyncio
import collections
import concurrent.futures
import dataclasses
import itertools
import json
import sys
import time
from typing import Any, Deque, Dict, List, Optional, Tuple, Union

from repro.backend.base import Snapshot
from repro.backend.registry import BACKEND_NAMES, create_backend
from repro.errors import ConfigurationError
from repro.obs.live import RollingWindow, Watchdog, render_prometheus
from repro.obs.registry import (
    TIME_BUCKETS,
    MetricsRegistry,
    coerce,
    merge_snapshots,
)
from repro.obs.tracing import Tracer, coerce_tracer
from repro.serve.protocol import (
    FlushRequest,
    IngestRequest,
    IntervalRequest,
    MetricsRequest,
    PingRequest,
    QueryRequest,
    QuerySpec,
    StatsRequest,
    SubscribeRequest,
    UnsubscribeRequest,
    WireProtocolError,
    decode_request,
    encode_frame,
    error_payload,
)

#: serve-tier fault-injection hooks (testing/drills only)
SERVE_FAULTS = ("flush-failure",)

#: after a batch, skip the snapshot while the last one ended less than
#: this many of its own durations ago: snapshots (mp-shm's merge,
#: cots-sim's replay) then take at most a tenth of the backend thread
SNAPSHOT_GAP = 9.0


@dataclasses.dataclass(frozen=True)
class ServeConfig:
    """Everything a :class:`StreamServer` needs, validated up front."""

    host: str = "127.0.0.1"
    port: int = 0                       #: 0 = ephemeral (read it back)
    backend: str = "sequential"
    capacity: int = 256
    threads: int = 4                    #: simulated engine (cots-sim)
    workers: int = 2                    #: multiprocess engines
    epsilon: float = 0.001              #: sketch-cm-vec, mp-one-table
    seed: int = 0                       #: sketch engines
    batch_events: int = 2048            #: micro-batch size (elements)
    batch_interval: float = 0.05        #: snapshot catch-up period (s)
    max_pending_batches: int = 16       #: backpressure budget (batches)
    max_frame_bytes: int = 65536        #: one NDJSON line's byte budget
    max_buffer_bytes: int = 1 << 20     #: slow-subscriber disconnect line
    metrics_port: Optional[int] = None  #: Prometheus text endpoint (None = off)
    watchdog_interval: float = 0.5      #: telemetry sample + SLO eval period (s)
    probe_keys: int = 128               #: shadow-truth accuracy probe keys (0 = off)
    fault: Optional[str] = None         #: testing-only serve fault injection

    def __post_init__(self) -> None:
        if self.backend not in BACKEND_NAMES:
            raise ConfigurationError(
                f"backend must be one of {list(BACKEND_NAMES)}, "
                f"got {self.backend!r}"
            )
        for field, minimum in (
            ("capacity", 1), ("batch_events", 1), ("max_pending_batches", 1),
            ("max_frame_bytes", 1024), ("max_buffer_bytes", 1024),
            ("probe_keys", 0),
        ):
            if getattr(self, field) < minimum:
                raise ConfigurationError(
                    f"{field} must be >= {minimum}, got {getattr(self, field)}"
                )
        for field in ("batch_interval", "watchdog_interval"):
            if not getattr(self, field) > 0:
                raise ConfigurationError(
                    f"{field} must be > 0, got {getattr(self, field)}"
                )
        if self.metrics_port is not None and not (
            0 <= self.metrics_port <= 65535
        ):
            raise ConfigurationError(
                f"metrics_port must be in [0, 65535] or None, "
                f"got {self.metrics_port}"
            )
        if self.fault is not None and self.fault not in SERVE_FAULTS:
            raise ConfigurationError(
                f"fault must be one of {SERVE_FAULTS} or None, "
                f"got {self.fault!r}"
            )

    @property
    def staleness_bound(self) -> float:
        """Seconds an acked event can stay invisible while the flusher
        keeps up: the batch in flight plus its own flush, plus one
        catch-up period for a deferred snapshot.  Under overload the
        queue-drain term (``serve.queue.depth`` × flush time) comes on
        top."""
        return 2 * self.batch_interval


@dataclasses.dataclass(frozen=True)
class _View:
    """One immutable query view: a snapshot plus its point-lookup index."""

    snapshot: Snapshot
    index: Dict[Any, Any]               #: element -> CounterEntry
    refreshed_at: float                 #: monotonic clock at build time

    def staleness(self) -> float:
        return time.monotonic() - self.refreshed_at


class _Subscription:
    """One registered continuous (period), interval (every) or metrics sub.

    ``spec`` is the inner query for query subscriptions and ``None``
    for metrics subscriptions (``raw`` then says whether each push
    carries the full cumulative snapshot).
    """

    __slots__ = ("sub_id", "spec", "period", "every", "writer",
                 "last_processed", "seq", "task", "raw")

    def __init__(self, sub_id, spec, writer, period=None, every=None,
                 raw=False):
        self.sub_id: str = sub_id
        self.spec: Optional[QuerySpec] = spec
        self.writer: asyncio.StreamWriter = writer
        self.period: Optional[float] = period
        self.every: Optional[int] = every
        self.last_processed = 0
        self.seq = 0
        self.task: Optional[asyncio.Task] = None
        self.raw: bool = raw


class StreamServer:
    """The serve tier: one backend, many sockets, snapshot reads.

    Lifecycle::

        server = StreamServer(ServeConfig(backend="sequential"))
        await server.start()          # backend up, listening, tasks running
        ...                           # server.port is the bound port
        await server.stop()           # drain, close backend, release all

    or ``async with StreamServer(cfg) as server: ...``.
    """

    def __init__(
        self,
        config: ServeConfig,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.config = config
        self.metrics = coerce(metrics)
        self.tracer = coerce_tracer(tracer)
        self._backend = None
        self._server: Optional[asyncio.AbstractServer] = None
        # one thread: backend calls are serialized *and* off the loop
        self._executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="serve-backend"
        )
        self._pending: List[Any] = []
        self._queue: asyncio.Queue = asyncio.Queue(
            maxsize=config.max_pending_batches
        )
        self._view: Optional[_View] = None
        self._flushing = False          #: the flusher holds a batch
        self._processed = 0             #: acked into the backend
        self._accepted = 0              #: acked off the wire (>= processed)
        self._tasks: List[asyncio.Task] = []
        self._subs: Dict[str, _Subscription] = {}
        self._sub_ids = itertools.count(1)
        self._connections = 0
        self._closed = False
        m = self.metrics
        self._m_accepted = m.counter("serve.connections.accepted")
        self._m_active = m.gauge("serve.connections.active")
        self._m_dropped_slow = m.counter("serve.connections.dropped_slow")
        self._m_events = m.counter("serve.ingest.events")
        self._m_frames = m.counter("serve.ingest.frames")
        self._m_rejected = m.counter("serve.ingest.rejected")
        # powers of two up to a full batch, so full batches stay out of
        # the overflow bucket
        fill_buckets = tuple(
            1 << i for i in range((config.batch_events - 1).bit_length())
        ) + (config.batch_events,)
        self._m_batch_fill = m.histogram("serve.batch.fill", fill_buckets)
        self._m_flush_seconds = m.histogram(
            "serve.batch.flush_seconds", TIME_BUCKETS
        )
        self._m_flush_failures = m.counter("serve.batch.flush_failures")
        self._m_queue_depth = m.gauge("serve.queue.depth")
        self._m_refreshes = m.counter("serve.snapshot.refreshes")
        self._m_snap_seconds = m.histogram(
            "serve.snapshot.seconds", TIME_BUCKETS
        )
        self._m_staleness = m.histogram(
            "serve.snapshot.staleness_seconds", TIME_BUCKETS
        )
        self._m_freshness = m.histogram(
            "serve.freshness.ack_to_visible_seconds", TIME_BUCKETS
        )
        self._m_queries = m.counter("serve.query.requests")
        self._m_query_seconds = m.histogram(
            "serve.query.seconds", TIME_BUCKETS
        )
        self._m_subs_active = m.gauge("serve.subscriptions.active")
        self._m_pushes = m.counter("serve.subscriptions.pushes")
        self._m_proto_errors = m.counter("serve.protocol.errors")
        self._m_staleness_now = m.gauge("serve.snapshot.staleness")
        self._m_probe_keys = m.gauge("serve.accuracy.tracked_keys")
        self._m_probe_over = m.gauge("serve.accuracy.max_overestimate")
        self._m_probe_bound = m.gauge("serve.accuracy.error_bound")
        self._m_probe_excess = m.gauge("serve.accuracy.bound_excess")
        self._m_alerts_firing = m.gauge("serve.alerts.firing")
        self._m_alert_transitions = m.counter("serve.alerts.transitions")
        #: one (position, ack time) per acked ingest frame that no view
        #: shows yet, oldest first; position is the frame's cumulative
        #: accepted count less the events failed flushes dropped, so a
        #: view covers the frame once its ``processed`` reaches it
        self._stamps: Deque[Tuple[int, float]] = collections.deque()
        self._lost = 0                  #: events dropped by failed flushes
        #: perf_counter time the next post-batch snapshot is due
        #: (written on the backend thread)
        self._snapshot_due = 0.0
        # -- live telemetry plane ---------------------------------------
        self._live = RollingWindow()
        # the deployment's staleness bound drives the static rule: fire
        # while an acked frame has stayed invisible past the promise
        self._watch = Watchdog(
            thresholds={"serve-staleness": config.staleness_bound}
        )
        self._beacons: Dict[str, Dict] = {}
        self._metrics_server: Optional[asyncio.AbstractServer] = None
        self._flushes = 0
        #: shadow truth: exact counts of the first ``probe_keys``
        #: distinct keys (admitted at first sight, so never undercounted)
        self._probe: Dict[Any, int] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Create the backend, bind the socket, start the service tasks."""
        loop = asyncio.get_running_loop()
        cfg = self.config
        self._backend = await loop.run_in_executor(
            self._executor,
            lambda: create_backend(
                cfg.backend,
                capacity=cfg.capacity,
                threads=cfg.threads,
                workers=cfg.workers,
                epsilon=cfg.epsilon,
                seed=cfg.seed,
                metrics=self.metrics if self.metrics.enabled else None,
            ),
        )
        await self._refresh_view()
        self._server = await asyncio.start_server(
            self._handle_connection,
            host=cfg.host,
            port=cfg.port,
            limit=cfg.max_frame_bytes,
        )
        if cfg.metrics_port is not None:
            self._metrics_server = await asyncio.start_server(
                self._handle_metrics_http,
                host=cfg.host,
                port=cfg.metrics_port,
            )
        # baseline window sample at t=0: a failure burst that completes
        # before the first watchdog tick still shows up as an increase
        self._live.sample(self._full_snapshot(), time.monotonic())
        self._tasks = [
            asyncio.create_task(self._flusher(), name="serve-flusher"),
            asyncio.create_task(self._ticker(), name="serve-ticker"),
            asyncio.create_task(self._watchdog_loop(), name="serve-watchdog"),
        ]

    @property
    def port(self) -> int:
        """The bound TCP port (useful with ``port=0``)."""
        if self._server is None or not self._server.sockets:
            raise ConfigurationError("server is not started")
        return self._server.sockets[0].getsockname()[1]

    @property
    def metrics_http_port(self) -> Optional[int]:
        """The bound Prometheus port (None when the endpoint is off)."""
        if self._metrics_server is None or not self._metrics_server.sockets:
            return None
        return self._metrics_server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    async def stop(self) -> None:
        """Drain pending work, close every task, socket and the backend."""
        if self._closed:
            return
        self._closed = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._metrics_server is not None:
            self._metrics_server.close()
            await self._metrics_server.wait_closed()
        for sub in list(self._subs.values()):
            self._drop_subscription(sub.sub_id)
        # drain what was already acked so close() honours the contract;
        # the batch leaves _pending *before* the await so the flusher or
        # a concurrent flush can never re-queue or drop the same events
        while self._pending:
            batch = self._pending[: self.config.batch_events]
            del self._pending[: len(batch)]
            await self._queue.put(batch)
        await self._queue.join()
        for task in self._tasks:
            task.cancel()
        await asyncio.gather(*self._tasks, return_exceptions=True)
        loop = asyncio.get_running_loop()
        backend = self._backend
        if backend is not None:
            await loop.run_in_executor(self._executor, backend.close)
        self._executor.shutdown(wait=True)

    async def __aenter__(self) -> "StreamServer":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # Service tasks
    # ------------------------------------------------------------------
    async def _flusher(self) -> None:
        """Drain micro-batches into the backend (the only ingest path) and
        install the query view each one leaves behind."""
        loop = asyncio.get_running_loop()
        fault = self.config.fault
        while True:
            batch = await self._queue.get()
            self._flushing = True
            try:
                if batch:
                    self._flushes += 1
                    if fault == "flush-failure" and self._flushes % 2 == 0:
                        # alert drill: every other micro-batch fails
                        # exactly like a raising backend.ingest would (the
                        # odd ones land, so the server keeps making
                        # progress)
                        raise RuntimeError("injected flush-failure fault")
                start, ingested, built = await loop.run_in_executor(
                    self._executor, self._ingest_then_snapshot, batch
                )
                if batch:
                    self._m_flush_seconds.observe(ingested - start)
                    self.tracer.add_span(
                        "serve", "flush", "serve", start, ingested,
                        {"events": len(batch)},
                    )
                    self._processed += len(batch)
                if built is not None:
                    self._install(*built)
            except asyncio.CancelledError:
                raise
            except Exception as exc:    # noqa: BLE001 - the flusher must live
                # one bad batch must not kill the only ingest path: the
                # queue would fill forever and flush/stop would hang on
                # join().  The batch's events are lost from the counts
                # (stats shows processed < accepted_events), metered here.
                self._m_flush_failures.inc()
                self._release_stamps(len(batch))
                print(
                    f"serve: backend.ingest failed, dropping batch of "
                    f"{len(batch)} events: {type(exc).__name__}: {exc}",
                    file=sys.stderr, flush=True,
                )
            finally:
                self._flushing = False
                self._queue.task_done()
                if self._queue.empty():
                    # group commit: what piled up meanwhile goes next
                    self._flush_pending(partial=True)
                self._m_queue_depth.set(self._queue.qsize())

    def _ingest_then_snapshot(self, batch: List[Any]):
        """Backend thread: ingest ``batch``, then snapshot if one is due.

        Returns ``(ingest start, ingest end, built)`` where ``built`` is
        :meth:`_snapshot`'s result, or None when the snapshot was not
        due yet or failed.  An empty batch is the ticker's catch-up; the
        ticker only sends it once due, so a second one queued behind it
        finds the next snapshot not due and costs nothing.
        """
        start = time.perf_counter()
        if batch:
            self._backend.ingest(batch)
        ingested = time.perf_counter()
        if ingested < self._snapshot_due:
            return start, ingested, None
        try:
            return start, ingested, self._snapshot()
        except Exception as exc:    # noqa: BLE001 - the batch did land
            print(
                f"serve: backend.snapshot failed, keeping the old view: "
                f"{type(exc).__name__}: {exc}",
                file=sys.stderr, flush=True,
            )
            return start, ingested, None

    def _snapshot(self) -> Tuple[_View, float, float]:
        """Backend thread: build one query view, timed, and push the next
        post-batch snapshot ``SNAPSHOT_GAP`` of its durations out."""
        start = time.perf_counter()
        snapshot = self._backend.snapshot()
        view = _View(
            snapshot=snapshot,
            index={entry.element: entry for entry in snapshot.entries},
            refreshed_at=time.monotonic(),
        )
        end = time.perf_counter()
        self._snapshot_due = end + SNAPSHOT_GAP * (end - start)
        return view, start, end

    async def _refresh_view(self) -> None:
        """Snapshot now and install it (the read barrier of start/flush)."""
        loop = asyncio.get_running_loop()
        built = await loop.run_in_executor(self._executor, self._snapshot)
        self._install(*built)

    def _install(self, view: _View, start: float, end: float) -> None:
        """Make ``view`` the query view: meter it, observe the freshness
        of every frame it makes visible, fire interval subscriptions."""
        self._m_snap_seconds.observe(end - start)
        self.tracer.add_span("serve", "snapshot.refresh", "serve", start, end)
        self._view = view
        self._m_refreshes.inc()
        now = time.monotonic()
        stamps = self._stamps
        processed = view.snapshot.processed
        while stamps and stamps[0][0] <= processed:
            self._m_freshness.observe(now - stamps.popleft()[1])
        self._fire_interval_subscriptions()

    def _release_stamps(self, dropped: int) -> None:
        """A failed flush dropped the next ``dropped`` events: forget the
        frames that ended in them and move later frames back, since
        ``processed`` will never count those events."""
        first = self._processed
        self._lost += dropped
        self._stamps = collections.deque(
            (position if position <= first else position - dropped, acked)
            for position, acked in self._stamps
            if not first < position <= first + dropped
        )

    async def _ticker(self) -> None:
        """Every ``batch_interval``, once a snapshot is due, catch a view
        the flusher skipped up with an empty batch."""
        while True:
            await asyncio.sleep(self.config.batch_interval)
            if (
                self._queue.empty()
                and self._view.snapshot.processed != self._processed
                and time.perf_counter() >= self._snapshot_due
            ):
                self._queue.put_nowait([])

    # ------------------------------------------------------------------
    # Live telemetry plane
    # ------------------------------------------------------------------
    async def _watchdog_loop(self) -> None:
        """Sample the registry, evaluate SLO rules, emit alert events."""
        loop = asyncio.get_running_loop()
        while True:
            await asyncio.sleep(self.config.watchdog_interval)
            try:
                await self._watchdog_tick(loop)
            except asyncio.CancelledError:
                raise
            except Exception as exc:  # noqa: BLE001 - telemetry must not die
                print(
                    f"serve: watchdog tick failed: "
                    f"{type(exc).__name__}: {exc}",
                    file=sys.stderr, flush=True,
                )

    async def _watchdog_tick(self, loop: asyncio.AbstractEventLoop) -> None:
        # staleness gauge: how long the oldest acked frame has waited to
        # become visible (0 when every acked frame is) — an idle
        # server's old-but-complete view is not stale in the SLO sense
        stamps = self._stamps
        lag = time.monotonic() - stamps[0][1] if stamps else 0.0
        self._m_staleness_now.set(round(lag, 6))
        self._update_probe_gauges(self._view)
        telemetry = getattr(self._backend, "telemetry", None)
        if telemetry is not None:
            try:
                self._beacons = await loop.run_in_executor(
                    self._executor, telemetry
                )
            except Exception:  # noqa: BLE001 - beacons are advisory
                pass
        self._live.sample(self._full_snapshot(), time.monotonic())
        events = self._watch.evaluate(self._live, time.time())
        if events:
            self._m_alert_transitions.inc(len(events))
            for event in events:
                print(json.dumps(event, sort_keys=True),
                      file=sys.stderr, flush=True)
            self._push_alert_events(events)
        self._m_alerts_firing.set(len(self._watch.firing()))

    def _update_probe_gauges(self, view: Optional[_View]) -> None:
        """Shadow-truth accuracy drift: live bound-excess over probe keys.

        Truth counts *accepted* events while the view reflects
        *processed* ones, so a lagging view can only shrink the measured
        over-estimate — the drift alert never false-fires, it can only
        fire one refresh late.
        """
        probe = self._probe
        if not probe or view is None:
            return
        self._m_probe_keys.set(len(probe))
        bound = view.snapshot.error_bound
        self._m_probe_bound.set(bound)
        worst = None
        for element, truth in probe.items():
            over = self._point(view, element)["count"] - truth
            if worst is None or over > worst:
                worst = over
        if worst is None:
            return
        self._m_probe_over.set(worst)
        if bound > 0:
            self._m_probe_excess.set(max(0.0, float(worst - bound)))

    def _full_snapshot(self) -> Dict[str, Dict]:
        """Registry snapshot merged with the latest worker beacons."""
        snap = self.metrics.snapshot()
        if self._beacons:
            snap = merge_snapshots(snap, self._beacons)
        return snap

    def _metrics_payload(self, raw: bool) -> Dict[str, Any]:
        """The ``metrics`` answer: windowed summary, alerts, beacons."""
        view = self._view
        payload: Dict[str, Any] = {
            "summary": self._live.summary(),
            "alerts": self._watch.states(),
            "firing": self._watch.firing(),
            "beacons": self._beacons,
            "backend": self.config.backend,
            "processed": self._processed,
            "accepted": self._accepted,
            "staleness": (
                round(view.staleness(), 6) if view is not None else None
            ),
        }
        if raw:
            payload["snapshot"] = self._full_snapshot()
        return payload

    def _push_alert_events(self, events: List[Dict[str, Any]]) -> None:
        """Fan alert transitions out to metrics subscribers immediately."""
        for sub in list(self._subs.values()):
            if sub.spec is not None or sub.period is None:
                continue
            for event in events:
                if not self._push_frame(sub, dict(event)):
                    break

    async def _handle_metrics_http(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One Prometheus scrape: minimal HTTP/1.0, zero dependencies."""
        try:
            request_line = await asyncio.wait_for(
                reader.readline(), timeout=5.0
            )
            parts = request_line.decode("latin-1", "replace").split()
            path = parts[1] if len(parts) >= 2 else ""
            while True:     # drain headers up to the blank line
                header = await asyncio.wait_for(
                    reader.readline(), timeout=5.0
                )
                if header in (b"\r\n", b"\n", b""):
                    break
            if path.split("?")[0] == "/metrics":
                body = render_prometheus(self._full_snapshot()).encode("utf-8")
                content_type = "text/plain; version=0.0.4; charset=utf-8"
                status = "200 OK"
            elif path.split("?")[0] == "/healthz":
                body = b'{"ok":true}\n'
                content_type = "application/json"
                status = "200 OK"
            else:
                body = b"not found\n"
                content_type = "text/plain"
                status = "404 Not Found"
            writer.write(
                (
                    f"HTTP/1.0 {status}\r\n"
                    f"Content-Type: {content_type}\r\n"
                    f"Content-Length: {len(body)}\r\n"
                    f"Connection: close\r\n\r\n"
                ).encode("latin-1")
            )
            writer.write(body)
            await writer.drain()
        except (asyncio.TimeoutError, ConnectionResetError,
                BrokenPipeError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    # ------------------------------------------------------------------
    # Ingest plane
    # ------------------------------------------------------------------
    def _flush_pending(self, partial: bool) -> None:
        """Move pending events onto the queue; partial flushes allow a
        short tail batch (an idle flusher takes one)."""
        batch_events = self.config.batch_events
        while self._pending:
            if len(self._pending) < batch_events and not partial:
                break
            batch = self._pending[:batch_events]
            try:
                self._queue.put_nowait(batch)
            except asyncio.QueueFull:
                break               # budget full; admission keeps this rare
            del self._pending[: len(batch)]
            self._m_batch_fill.observe(len(batch))
        self._m_queue_depth.set(self._queue.qsize())

    def _admit(self, events: Tuple[Any, ...]) -> bool:
        """True when the pending-batch budget can absorb ``events``."""
        batch_events = self.config.batch_events
        total = len(self._pending) + len(events)
        needed = (total + batch_events - 1) // batch_events
        free = self.config.max_pending_batches - self._queue.qsize()
        return needed <= free

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections += 1
        self._m_accepted.inc()
        self._m_active.set(self._connections)
        self.tracer.instant("serve", "accept", "serve")
        owned_subs: List[str] = []
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    self._m_proto_errors.inc()
                    writer.write(encode_frame(error_payload(
                        "frame-too-large",
                        f"frame exceeds {self.config.max_frame_bytes} bytes",
                    )))
                    break           # framing is lost: drop the connection
                if not line:
                    break
                if line.strip() == b"":
                    continue
                await self._handle_frame(line, writer, owned_subs)
                if writer.is_closing():
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            for sub_id in owned_subs:
                self._drop_subscription(sub_id)
            self._connections -= 1
            self._m_active.set(self._connections)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _handle_frame(
        self,
        line: bytes,
        writer: asyncio.StreamWriter,
        owned_subs: List[str],
    ) -> None:
        try:
            request = decode_request(line)
        except WireProtocolError as exc:
            self._m_proto_errors.inc()
            writer.write(encode_frame(error_payload(exc.code, str(exc))))
            await writer.drain()
            return
        try:
            payload = await self._dispatch(request, writer, owned_subs)
        except WireProtocolError as exc:
            # backpressure is flow control, not a protocol violation —
            # it is metered by serve.ingest.rejected instead
            if exc.code != "backpressure":
                self._m_proto_errors.inc()
            payload = error_payload(exc.code, str(exc), request.id)
        except Exception as exc:    # noqa: BLE001 - report, don't kill the loop
            self._m_proto_errors.inc()
            payload = error_payload(
                "server-error", f"{type(exc).__name__}: {exc}", request.id
            )
        writer.write(encode_frame(payload))
        await writer.drain()

    async def _dispatch(
        self,
        request,
        writer: asyncio.StreamWriter,
        owned_subs: List[str],
    ) -> Dict[str, Any]:
        if isinstance(request, IngestRequest):
            return self._do_ingest(request)
        if isinstance(request, QueryRequest):
            return self._do_query(request.spec, request.id)
        if isinstance(request, IntervalRequest):
            return self._register_interval(request, writer, owned_subs)
        if isinstance(request, SubscribeRequest):
            return self._register_continuous(request, writer, owned_subs)
        if isinstance(request, UnsubscribeRequest):
            return self._do_unsubscribe(request, owned_subs)
        if isinstance(request, FlushRequest):
            return await self._do_flush(request)
        if isinstance(request, StatsRequest):
            return self._do_stats(request)
        if isinstance(request, MetricsRequest):
            if request.period is None:
                return self._ok(
                    request.id, **self._metrics_payload(request.raw)
                )
            return self._register_metrics(request, writer, owned_subs)
        assert isinstance(request, PingRequest)
        return self._ok(request.id, pong=True)

    @staticmethod
    def _ok(request_id, **fields) -> Dict[str, Any]:
        payload: Dict[str, Any] = {"ok": True}
        if request_id is not None:
            payload["id"] = request_id
        payload.update(fields)
        return payload

    # ------------------------------------------------------------------
    # Op implementations
    # ------------------------------------------------------------------
    def _do_ingest(self, request: IngestRequest) -> Dict[str, Any]:
        if self._closed:
            raise WireProtocolError("server-error", "server is stopping")
        if not self._admit(request.events):
            self._m_rejected.inc(len(request.events))
            raise WireProtocolError(
                "backpressure",
                f"pending-batch budget full "
                f"({self.config.max_pending_batches} batches of "
                f"{self.config.batch_events}); retry after a delay",
            )
        self._pending.extend(request.events)
        probe = self._probe
        room = self.config.probe_keys
        if room:
            # shadow truth for the drift alert: exact counts of the first
            # ``probe_keys`` distinct keys, admitted at first sight so
            # every occurrence from the stream's start is captured
            for event in request.events:
                truth = probe.get(event)
                if truth is not None:
                    probe[event] = truth + 1
                elif len(probe) < room:
                    probe[event] = 1
        self._accepted += len(request.events)
        self._stamps.append((self._accepted - self._lost, time.monotonic()))
        self._m_events.inc(len(request.events))
        self._m_frames.inc()
        self._flush_pending(
            partial=not self._flushing and self._queue.empty()
        )
        return self._ok(request.id, accepted=len(request.events))

    def _answer(self, spec: QuerySpec) -> Dict[str, Any]:
        """Evaluate one point/set/topk spec against the current view."""
        view = self._view
        snapshot = view.snapshot
        answer: Dict[str, Any] = {
            "kind": spec.kind,
            "processed": snapshot.processed,
            "error_bound": snapshot.error_bound,
            "staleness": round(view.staleness(), 6),
        }
        if spec.kind == "point":
            answer.update(self._point(view, spec.element))
            if spec.phi is not None:
                # §3.2 Query 1: is the element's frequency above phi*N?
                answer["frequent"] = (
                    answer["count"] >= spec.phi * snapshot.processed
                )
            if spec.k is not None:
                # §3.2 Query 2: does it sit in the current top-k set?
                top = {entry.element for entry in snapshot.top_k(spec.k)}
                answer["in_top_k"] = spec.element in top
        elif spec.kind == "set":
            if spec.elements is not None:
                answer["results"] = [
                    dict(self._point(view, element), element=element)
                    for element in spec.elements
                ]
            else:
                threshold = spec.phi * snapshot.processed
                answer["results"] = [
                    self._entry_wire(entry)
                    for entry in snapshot.entries
                    if entry.count >= threshold
                ]
                answer["threshold"] = threshold
        else:  # topk
            answer["results"] = [
                self._entry_wire(entry) for entry in snapshot.top_k(spec.k)
            ]
        return answer

    def _point(self, view: _View, element) -> Dict[str, Any]:
        entry = view.index.get(element)
        if entry is not None:
            return {
                "count": entry.count, "error": entry.error, "monitored": True,
            }
        # unmonitored: Space Saving guarantees truth <= error_bound, so
        # the bound is the tightest safe upper-bounding estimate.  A
        # sketch's candidate set is heuristic, so its snapshot answers
        # with a read of the frozen table instead.
        bound = view.snapshot.error_bound
        estimator = view.snapshot.estimator
        count = bound if estimator is None else estimator(element)
        return {"count": count, "error": bound, "monitored": False}

    @staticmethod
    def _entry_wire(entry) -> Dict[str, Any]:
        return {
            "element": entry.element, "count": entry.count,
            "error": entry.error,
        }

    def _do_query(self, spec: QuerySpec, request_id) -> Dict[str, Any]:
        self._m_queries.inc()
        with self.tracer.span("serve", "query", "serve", {"kind": spec.kind}):
            start = time.perf_counter()
            answer = self._answer(spec)
            self._m_query_seconds.observe(time.perf_counter() - start)
        self._m_staleness.observe(answer["staleness"])
        return self._ok(request_id, **answer)

    # -- subscriptions -------------------------------------------------
    def _register_interval(
        self, request: IntervalRequest, writer, owned_subs
    ) -> Dict[str, Any]:
        sub = _Subscription(
            sub_id=f"sub-{next(self._sub_ids)}",
            spec=request.inner,
            writer=writer,
            every=request.every,
        )
        sub.last_processed = self._view.snapshot.processed
        self._subs[sub.sub_id] = sub
        owned_subs.append(sub.sub_id)
        self._m_subs_active.set(len(self._subs))
        # first answer rides on the response; later ones arrive as pushes
        answer = self._do_query(request.inner, request.id)
        answer.update(subscription=sub.sub_id, every=request.every)
        return answer

    def _register_continuous(
        self, request: SubscribeRequest, writer, owned_subs
    ) -> Dict[str, Any]:
        sub = _Subscription(
            sub_id=f"sub-{next(self._sub_ids)}",
            spec=request.inner,
            writer=writer,
            period=request.period,
        )
        self._subs[sub.sub_id] = sub
        owned_subs.append(sub.sub_id)
        sub.task = asyncio.create_task(
            self._continuous_pusher(sub), name=sub.sub_id
        )
        self._m_subs_active.set(len(self._subs))
        return self._ok(
            request.id, subscription=sub.sub_id, period=request.period
        )

    def _do_unsubscribe(self, request, owned_subs) -> Dict[str, Any]:
        # only the registering connection may cancel a subscription; an
        # unowned (or dead) id gets the same answer so ids leak nothing
        if (
            request.subscription not in owned_subs
            or request.subscription not in self._subs
        ):
            raise WireProtocolError(
                "unknown-subscription",
                f"no active subscription {request.subscription!r} "
                "on this connection",
            )
        self._drop_subscription(request.subscription)
        owned_subs.remove(request.subscription)
        return self._ok(request.id, unsubscribed=request.subscription)

    def _drop_subscription(self, sub_id: str) -> None:
        sub = self._subs.pop(sub_id, None)
        if sub is not None and sub.task is not None:
            sub.task.cancel()
        self._m_subs_active.set(len(self._subs))

    def _push_frame(self, sub: _Subscription, payload: Dict[str, Any]) -> bool:
        """Send one push frame; returns False when the subscriber dropped."""
        writer = sub.writer
        if writer.is_closing():
            self._drop_subscription(sub.sub_id)
            return False
        transport = writer.transport
        if (
            transport is not None
            and transport.get_write_buffer_size() > self.config.max_buffer_bytes
        ):
            # a reader this far behind would grow server memory forever
            self._m_dropped_slow.inc()
            self._drop_subscription(sub.sub_id)
            writer.close()
            return False
        sub.seq += 1
        payload = dict(payload, push=sub.sub_id, seq=sub.seq)
        writer.write(encode_frame(payload))
        self._m_pushes.inc()
        return True

    def _push(self, sub: _Subscription) -> bool:
        """Send one query push; returns False when the subscriber dropped."""
        return self._push_frame(sub, self._answer(sub.spec))

    async def _continuous_pusher(self, sub: _Subscription) -> None:
        """§3.2 Query 4: the inner query pushed every ``period`` seconds."""
        while True:
            await asyncio.sleep(sub.period)
            if not self._push(sub):
                return

    def _register_metrics(
        self, request: MetricsRequest, writer, owned_subs
    ) -> Dict[str, Any]:
        """A periodic metrics push stream on the same subscription plumbing."""
        sub = _Subscription(
            sub_id=f"sub-{next(self._sub_ids)}",
            spec=None,
            writer=writer,
            period=request.period,
            raw=request.raw,
        )
        self._subs[sub.sub_id] = sub
        owned_subs.append(sub.sub_id)
        sub.task = asyncio.create_task(
            self._metrics_pusher(sub), name=sub.sub_id
        )
        self._m_subs_active.set(len(self._subs))
        # first payload rides on the response; later ones arrive as pushes
        answer = self._ok(request.id, **self._metrics_payload(request.raw))
        answer.update(subscription=sub.sub_id, period=request.period)
        return answer

    async def _metrics_pusher(self, sub: _Subscription) -> None:
        """The metrics stream: one summary frame every ``period`` seconds."""
        while True:
            await asyncio.sleep(sub.period)
            if not self._push_frame(sub, self._metrics_payload(sub.raw)):
                return

    def _fire_interval_subscriptions(self) -> None:
        """§3.2 Query 3 on each new view: push when ``every`` events
        elapsed."""
        processed = self._view.snapshot.processed
        for sub in list(self._subs.values()):
            if sub.every is None:
                continue
            if processed - sub.last_processed >= sub.every:
                sub.last_processed = processed
                self._push(sub)

    # -- flush & stats -------------------------------------------------
    async def _do_flush(self, request: FlushRequest) -> Dict[str, Any]:
        """A read barrier: everything acked before this is queryable after."""
        # claim the batch synchronously: if the await suspends on a full
        # queue, the flusher or a concurrent flush sees _pending without
        # these events, so nothing is queued twice or deleted unqueued
        while self._pending:
            batch = self._pending[: self.config.batch_events]
            del self._pending[: len(batch)]
            await self._queue.put(batch)    # waits for budget, never drops
            self._m_batch_fill.observe(len(batch))
        await self._queue.join()
        await self._refresh_view()
        return self._ok(
            request.id,
            processed=self._view.snapshot.processed,
            error_bound=self._view.snapshot.error_bound,
        )

    def _do_stats(self, request: StatsRequest) -> Dict[str, Any]:
        view = self._view
        cfg = self.config
        return self._ok(request.id, stats={
            "backend": cfg.backend,
            "connections": self._connections,
            "accepted_events": self._accepted,
            "processed": self._processed,
            "lost_events": self._lost,
            "pending_events": len(self._pending),
            "queue_depth": self._queue.qsize(),
            "max_pending_batches": cfg.max_pending_batches,
            "batch_events": cfg.batch_events,
            "subscriptions": len(self._subs),
            "snapshot_processed": view.snapshot.processed,
            "error_bound": view.snapshot.error_bound,
            "staleness": round(view.staleness(), 6),
            "staleness_bound": cfg.staleness_bound,
            "alerts_firing": self._watch.firing(),
        })


async def run_server(
    config: ServeConfig,
    metrics: Optional[MetricsRegistry] = None,
    tracer: Optional[Tracer] = None,
    ready: Optional[asyncio.Event] = None,
) -> None:
    """Start a server and serve until cancelled (the CLI entry point)."""
    server = StreamServer(config, metrics=metrics, tracer=tracer)
    await server.start()
    if ready is not None:
        ready.set()
    print(
        f"serving backend={config.backend} on "
        f"{config.host}:{server.port} "
        f"(batch={config.batch_events} budget={config.max_pending_batches} "
        f"staleness_bound={config.staleness_bound:.2f}s)",
        flush=True,
    )
    if server.metrics_http_port is not None:
        print(
            f"metrics: http://{config.host}:{server.metrics_http_port}"
            f"/metrics (Prometheus text)",
            flush=True,
        )
    try:
        await server.serve_forever()
    except asyncio.CancelledError:
        pass
    finally:
        await server.stop()
