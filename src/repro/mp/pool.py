"""The parent-process side: a pool of sharded counting workers.

:class:`ShardedProcessPool` is the repo's first backend with *real*
wall-clock parallelism: ``workers`` OS processes (no GIL sharing), each
owning a private Space Saving shard.  They are fed by the zero-copy
data plane of :mod:`repro.mp.shm`: each dispatch chunk is
pre-aggregated into distinct integer-coded ``(code, weight)`` pairs
(one numpy/Counter pass, no per-element Python loop), routed with
vectorized numpy ops, and written into per-worker shared-memory ring
segments; only a tiny ``("seg", ...)`` control message crosses the task
queue.  Workers count codes and the parent decodes them against its
vocabulary at snapshot time.

The life cycle is

1. **dispatch** — :meth:`count` reads the stream one chunk at a time
   (:func:`repro.workloads.partition.chunked`) and routes it to the
   worker shards.  Backpressure: dispatch blocks on ring-segment
   availability (stalls are metered, never silent);
2. **query** — :meth:`merged` snapshots every shard (a FIFO command on
   the task queue, so it observes all previously dispatched batches),
   rebuilds the shards in the parent via ``SpaceSaving.from_entries``
   and folds them through :func:`repro.core.merge.hierarchical_merge`,
   so answers carry the documented merge error bounds;
3. **shutdown** — :meth:`close` (or the context manager) stops, joins
   and if necessary terminates every worker; it is idempotent and runs
   on *every* error path, so a crash or timeout never leaves a hung
   pool behind.  Stop acknowledgements are drained (bounded wait)
   before the queues are torn down, so a clean shutdown never races a
   worker's last reply into a broken pipe.

Worker failure surfaces as typed :mod:`repro.errors` exceptions:
:class:`~repro.errors.WorkerCrashError` when a worker raised or died,
:class:`~repro.errors.WorkerTimeoutError` when one stopped responding
within ``config.timeout`` seconds.
"""

from __future__ import annotations

import collections
import multiprocessing
import queue as queue_module
import time
from typing import Any, Dict, Hashable, Iterable, List, Optional, Tuple

from repro.core.counters import CounterEntry
from repro.core.merge import hierarchical_merge
from repro.core.space_saving import SpaceSaving
from repro.errors import BackendError, WorkerCrashError, WorkerTimeoutError
from repro.mp.config import MPConfig
from repro.mp.shm import RING_SEGMENTS, ShmRing, StreamCodec, route_coded
from repro.mp.worker import shard_main
from repro.obs.registry import TIME_BUCKETS, coerce, merge_snapshots
from repro.obs.tracing import coerce_tracer
from repro.workloads.partition import chunked

Element = Hashable

#: (entries, processed, capacity) triple describing one shard snapshot
ShardState = Tuple[List[Tuple[Element, int, int]], int, int]

#: seconds between ring status polls while waiting on backpressure
_STALL_POLL_SECONDS = 0.0005

#: bounded wait for stop acknowledgements during a clean close
_STOP_ACK_SECONDS = 1.0

#: pending control messages per worker before ``put`` blocks (the shm
#: rings add their own backpressure)
QUEUE_DEPTH = 8


class ShardedProcessPool:
    """Process-pool sharded Space Saving with merge-on-query semantics.

    ``metrics`` optionally attaches a :class:`repro.obs.MetricsRegistry`
    (parent-side only; nothing crosses the process boundary): dispatched
    items/batches, per-worker routed items, task-queue occupancy sampled
    at each put, snapshot/merge latency histograms, ring occupancy,
    dispatch stalls and payload bytes.

    ``tracer`` optionally attaches a :class:`repro.obs.tracing.Tracer`.
    The parent records dispatch/snapshot/merge spans on the ``driver``
    track; workers are started with tracing on and ship their batch
    spans back with each snapshot reply, where they are re-based onto
    the parent's ``perf_counter`` timeline under ``shard-<i>/`` tracks.
    """

    def __init__(
        self, config: Optional[MPConfig] = None, metrics=None, tracer=None
    ) -> None:
        self.config = config or MPConfig()
        self.metrics = coerce(metrics)
        self.tracer = coerce_tracer(tracer)
        self._m_items = self.metrics.counter("mp.dispatched.items")
        self._m_batches = self.metrics.counter("mp.dispatched.batches")
        self._m_worker_items = [
            self.metrics.counter(f"mp.worker.{index}.items")
            for index in range(self.config.workers)
        ]
        self._m_queue_occupancy = self.metrics.histogram(
            "mp.queue.occupancy", buckets=(0, 1, 2, 4, 8, 16, 32)
        )
        self._m_snapshot_seconds = self.metrics.histogram(
            "mp.snapshot.seconds", buckets=TIME_BUCKETS
        )
        self._m_merge_seconds = self.metrics.histogram(
            "mp.merge.seconds", buckets=TIME_BUCKETS
        )
        self._m_replies_discarded = self.metrics.counter(
            "mp.replies.discarded"
        )
        self._m_shm_bytes = self.metrics.counter("mp.shm.bytes")
        self._m_ring_stalls = self.metrics.counter("mp.shm.ring_stalls")
        self._m_stall_seconds = self.metrics.histogram(
            "mp.shm.stall_seconds", buckets=TIME_BUCKETS
        )
        self._m_ring_occupancy = self.metrics.histogram(
            "mp.shm.ring_occupancy", buckets=(0, 1, 2, 4, 8)
        )
        self._m_beacons_received = self.metrics.counter(
            "mp.beacons.received"
        )
        #: per-worker dispatched element counts (kept even without a
        #: registry, so callers can derive items/sec after a run)
        self.worker_items: List[int] = [0] * self.config.workers
        #: latest telemetry beacon per worker (registry-shaped snapshots)
        self.worker_beacons: Dict[int, Dict] = {}
        #: kinds of stale replies swallowed by error/shutdown sweeps
        self._discarded_replies: collections.Counter = collections.Counter()
        self._codec = StreamCodec()
        self._next_segment = [0] * self.config.workers
        # worst case one chunk is all-distinct and lands whole on a
        # single worker, so every segment must hold a full chunk
        self._rings: List[ShmRing] = [
            ShmRing(self.config.chunk_elements, RING_SEGMENTS)
            for _ in range(self.config.workers)
        ]
        self._tasks = [
            multiprocessing.Queue(maxsize=QUEUE_DEPTH)
            for _ in range(self.config.workers)
        ]
        self._replies = multiprocessing.Queue()
        self._processes = []
        for index in range(self.config.workers):
            target, args = self._worker_spec(index)
            self._processes.append(multiprocessing.Process(
                target=target,
                args=args,
                name=f"repro-mp-shard-{index}",
                daemon=True,
            ))
        self._dispatched = 0
        self._snapshot_token = 0
        self._closed = False
        try:
            for process in self._processes:
                process.start()
        except BaseException:
            self._release_rings()
            raise

    def _worker_spec(self, index: int) -> Tuple[Any, tuple]:
        """(target, args) for worker ``index`` — subclass extension point.

        The one-table pool swaps in a different worker main (same queue
        protocol, different counting structure) without re-implementing
        the pool life cycle.
        """
        return shard_main, (
            index,
            self._tasks[index],
            self._replies,
            self.config.capacity,
            self.config.fault,
            self.tracer.enabled,
            (
                self._rings[index].name,
                self.config.chunk_elements,
                RING_SEGMENTS,
            ),
        )

    def _note_chunk(self, codes, weights) -> None:
        """Hook: one encoded chunk is about to be routed.

        The base pool does nothing; the one-table pool tracks heavy
        candidate codes here (the table alone cannot enumerate keys).
        """

    # ------------------------------------------------------------------
    # Life cycle
    # ------------------------------------------------------------------
    @property
    def workers(self) -> int:
        return self.config.workers

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def processed(self) -> int:
        """Stream elements dispatched to the pool so far."""
        return self._dispatched

    def __enter__(self) -> "ShardedProcessPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        """Stop, join and reap every worker; always safe to call again.

        Clean-shutdown order matters: workers acknowledge ``("stop",)``
        on the reply queue, so those acks are drained (bounded wait)
        *before* the queues are closed — tearing the reply queue down
        with acks still in flight used to race a worker's last ``put``
        into a broken pipe and turn a clean exit into a crash exit.
        Workers that do not exit within a grace period after the stop
        command are terminated.  Queues are closed with their feeder
        threads cancelled so the parent can never hang on shutdown.
        """
        if self._closed:
            return
        self._closed = True
        acks_expected = 0
        for tasks, process in zip(self._tasks, self._processes):
            if process.is_alive():
                try:
                    tasks.put_nowait(("stop",))
                    acks_expected += 1
                except (queue_module.Full, ValueError, OSError):
                    pass  # full queue or dead pipe: terminate below
        self._drain_stop_acks(acks_expected)
        for process in self._processes:
            process.join(timeout=2.0)
            if process.is_alive():
                process.terminate()
                process.join(timeout=2.0)
        for q in [*self._tasks, self._replies]:
            q.close()
            q.cancel_join_thread()
        self._release_rings()

    def _release_rings(self) -> None:
        for ring in self._rings:
            ring.close()
        self._rings = []

    def _drain_stop_acks(self, expected: int) -> None:
        """Consume ``("stopped", ...)`` acks so queue teardown is race-free.

        Bounded: waits at most :data:`_STOP_ACK_SECONDS` total, so a
        worker that is wedged (or already dead) can never hang a close.
        Anything else still in flight (stale snapshots, late errors) is
        swallowed and counted as discarded — the pool is going away.
        """
        deadline = time.monotonic() + _STOP_ACK_SECONDS
        seen = 0
        while seen < expected:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return
            try:
                message = self._replies.get(timeout=min(remaining, 0.05))
            except queue_module.Empty:
                continue
            except (OSError, ValueError):
                return
            if message[1] == "stopped":
                seen += 1
            elif message[1] == "beacon":
                self._fold_beacon(message)
            else:
                self._m_replies_discarded.inc()
                self._discarded_replies[str(message[1])] += 1

    def worker_exitcodes(self) -> List[Optional[int]]:
        """Exit codes of the (joined) workers; None while running."""
        return [process.exitcode for process in self._processes]

    # ------------------------------------------------------------------
    # Worker telemetry beacons
    # ------------------------------------------------------------------
    def _fold_beacon(self, message: tuple) -> None:
        """Keep the latest beacon per worker (never counted as discarded)."""
        self.worker_beacons[message[0]] = message[2]
        self._m_beacons_received.inc()

    def poll_beacons(self) -> Dict[int, Dict]:
        """Drain pending replies and return the latest beacon per worker.

        Non-blocking: sweeps whatever is already on the reply queue
        (folding beacons, failing fast on worker errors like any
        dispatch does) and returns a copy of the per-worker beacon
        snapshots.  Workers that have not beaconed yet are absent.
        """
        self._ensure_open()
        self._poll_for_errors()
        return dict(self.worker_beacons)

    def beacon_snapshot(self) -> Dict[str, Dict]:
        """All workers' latest beacons merged into one registry snapshot.

        Per-worker names are disjoint (``mp.beacon.<i>.*``), so the
        merge is a union — the shape the serve tier folds into its own
        registry snapshot for exposition.
        """
        return merge_snapshots(*(
            self.worker_beacons[index]
            for index in sorted(self.worker_beacons)
        ))

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def count(self, stream: Iterable[Element]) -> int:
        """Route ``stream`` to the worker shards chunk by chunk.

        Returns the number of elements dispatched.  The stream is
        consumed incrementally (any iterable works); each chunk is
        pre-aggregated, integer-coded and written into ring segments.
        Raises :class:`WorkerCrashError` / :class:`WorkerTimeoutError`
        (after closing the pool) if a worker died or stopped draining.
        """
        self._ensure_open()
        tracer = self.tracer
        codec = self._codec
        metrics_on = self.metrics.enabled
        sent = 0
        for chunk in chunked(stream, self.config.chunk_elements):
            if tracer.enabled:
                dispatch_start = tracer.now()
            self._poll_for_errors()
            codes, weights = codec.encode_chunk(chunk)
            self._note_chunk(codes, weights)
            routed = route_coded(codes, weights, self.workers)
            shipped = 0
            for index, (shard_codes, shard_weights) in enumerate(routed):
                records = len(shard_codes)
                if not records:
                    continue
                ring = self._rings[index]
                segment = self._next_segment[index]
                if metrics_on:
                    self._m_ring_occupancy.observe(ring.busy_segments())
                self._wait_segment_free(index, ring, segment)
                payload = ring.fill(segment, shard_codes, shard_weights)
                weight_total = int(shard_weights.sum())
                self._put(index, ("seg", segment, records, weight_total))
                self._next_segment[index] = (segment + 1) % ring.segments
                self._m_shm_bytes.inc(payload)
                self._m_batches.inc()
                self._m_worker_items[index].inc(weight_total)
                self.worker_items[index] += weight_total
                shipped += 1
            sent += len(chunk)
            self._dispatched += len(chunk)
            self._m_items.inc(len(chunk))
            if tracer.enabled:
                tracer.add_span(
                    "driver", "dispatch", "mp", dispatch_start, tracer.now(),
                    {
                        "items": len(chunk),
                        "batches": shipped,
                        "distinct": len(codes),
                    },
                )
        return sent

    def _wait_segment_free(
        self, index: int, ring: ShmRing, segment: int
    ) -> None:
        """Block until the worker frees ``segment`` (shm backpressure).

        A full ring means the worker is behind by a whole ring of
        batches.  The wait polls the one-byte status flag, metering the stall,
        and converts a dead worker / expired timeout into the same
        typed errors a blocked queue put raises.
        """
        if ring.is_free(segment):
            return
        self._m_ring_stalls.inc()
        stall_started = time.perf_counter()
        deadline = time.monotonic() + self.config.timeout
        while not ring.is_free(segment):
            if not self._processes[index].is_alive():
                self._fail_crashed(index)
            if time.monotonic() > deadline:
                self.close()
                raise WorkerTimeoutError(
                    index, self.config.timeout, "dispatch"
                )
            time.sleep(_STALL_POLL_SECONDS)
        self._m_stall_seconds.observe(time.perf_counter() - stall_started)

    def _ensure_open(self) -> None:
        if self._closed:
            raise BackendError("pool is closed")

    def _put(self, index: int, message: tuple) -> None:
        process = self._processes[index]
        if not process.is_alive():
            self._fail_crashed(index)
        if self.metrics.enabled:
            try:
                self._m_queue_occupancy.observe(self._tasks[index].qsize())
            except NotImplementedError:  # pragma: no cover - macOS qsize
                pass
        try:
            self._tasks[index].put(message, timeout=self.config.timeout)
        except queue_module.Full:
            if not process.is_alive():
                self._fail_crashed(index)
            self.close()
            raise WorkerTimeoutError(
                index, self.config.timeout, "dispatch"
            ) from None

    def _fail_crashed(self, index: int, detail: str = "") -> None:
        """Close the pool and raise the typed crash error for ``index``."""
        if not detail:
            # The worker reports its exception on the reply queue right
            # before dying; give the in-flight message a moment to land
            # so the error carries the remote detail, not just the code.
            detail = self._drain_error_detail(
                wait=0.5, wait_for=index
            ).get(index, "")
        if self._discarded_replies:
            stale = ", ".join(
                f"{kind} x{count}"
                for kind, count in sorted(self._discarded_replies.items())
            )
            suffix = f"[discarded stale replies: {stale}]"
            detail = f"{detail} {suffix}" if detail else suffix
        self._processes[index].join(timeout=0.5)
        exitcode = self._processes[index].exitcode
        self.close()
        raise WorkerCrashError(index, detail=detail, exitcode=exitcode)

    def _drain_error_detail(
        self, wait: float = 0.0, wait_for: Optional[int] = None
    ) -> Dict[int, str]:
        """Sweep the reply queue for error reports.

        With ``wait > 0`` reads keep blocking (in short slices, up to
        ``wait`` seconds total) until the report of worker ``wait_for``
        arrives — used when that worker is already known dead and its
        report may still be in flight.  Without it reads never block.

        Non-error replies crossing the sweep (stale snapshots from an
        abandoned query, stop acks) are *not* silently dropped: each is
        counted into ``mp.replies.discarded`` and remembered by kind so
        a raised :class:`WorkerCrashError` can surface them.
        """
        details: Dict[int, str] = {}
        deadline = time.monotonic() + wait
        while True:
            remaining = deadline - time.monotonic()
            block = remaining > 0 and (
                wait_for is None or wait_for not in details
            )
            try:
                if block:
                    message = self._replies.get(
                        timeout=min(remaining, 0.05)
                    )
                else:
                    message = self._replies.get_nowait()
            except queue_module.Empty:
                if not block:
                    return details
            except (OSError, ValueError):
                return details
            else:
                if message[1] == "error":
                    details[message[0]] = message[2]
                elif message[1] == "beacon":
                    self._fold_beacon(message)
                else:
                    self._m_replies_discarded.inc()
                    self._discarded_replies[str(message[1])] += 1

    def _poll_for_errors(self) -> None:
        """Fail fast if any worker has already reported an error."""
        details = self._drain_error_detail()
        if details:
            index = min(details)
            self._fail_crashed(index, detail=details[index])

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def snapshot(self) -> List[SpaceSaving]:
        """Rebuild every worker shard in the parent process.

        The snapshot command travels the same FIFO queues as the count
        batches, so each shard's reply reflects every batch dispatched
        before the call — queries are consistent with dispatch order.
        The replies carry integer codes; they are decoded against the
        parent-owned vocabulary here, so workers never need the key
        objects at all.
        """
        self._ensure_open()
        started = time.perf_counter()
        if self.tracer.enabled:
            span_start = self.tracer.now()
        self._snapshot_token += 1
        token = self._snapshot_token
        for index in range(self.workers):
            self._put(index, ("snapshot", token))
        states = self._collect_snapshots(token)
        shards: List[SpaceSaving] = []
        for entries, processed, capacity in states:
            entries = self._codec.decode_entries(entries)
            shards.append(
                SpaceSaving.from_entries(
                    capacity,
                    [CounterEntry(e, count, error) for e, count, error in entries],
                    processed,
                )
            )
        self._m_snapshot_seconds.observe(time.perf_counter() - started)
        if self.tracer.enabled:
            self.tracer.add_span(
                "driver", "snapshot", "mp", span_start, self.tracer.now(),
                {"token": token, "shards": len(shards)},
            )
        return shards

    def _collect_snapshots(self, token: int) -> List[ShardState]:
        pending = set(range(self.workers))
        states: List[Optional[ShardState]] = [None] * self.workers
        while pending:
            try:
                message = self._replies.get(timeout=self.config.timeout)
            except queue_module.Empty:
                for index in sorted(pending):
                    if not self._processes[index].is_alive():
                        self._fail_crashed(index)
                index = min(pending)
                self.close()
                raise WorkerTimeoutError(
                    index, self.config.timeout, "snapshot"
                ) from None
            kind = message[1]
            if kind == "error":
                self._fail_crashed(message[0], detail=message[2])
            if kind == "beacon":
                self._fold_beacon(message)
                continue
            if kind != "snapshot" or message[2] != token:
                continue  # stale reply from an earlier, abandoned query
            index = message[0]
            states[index] = (message[3], message[4], message[5])
            if len(message) > 7 and self.tracer.enabled:
                # worker spans rode along: re-base them onto our clock.
                # perf_counter epochs can differ across processes; the
                # worker stamped the reply with its own clock reading, so
                # receive-time minus that reading is the offset (the
                # queue transit time is absorbed into it — spans land a
                # hair late but never out of order).
                offset = self.tracer.now() - message[7]
                self.tracer.ingest(
                    message[6], offset=offset, track_prefix=f"shard-{index}/"
                )
            pending.discard(index)
        return [state for state in states if state is not None]

    def merged(self, capacity: Optional[int] = None) -> SpaceSaving:
        """One queryable summary folding all shards via the tree merge.

        The result carries the mergeable-summaries guarantees the merge
        tests pin down: estimates stay upper bounds of true counts and
        ``estimate - error`` stays a lower bound, with absence widening
        charged per original shard.
        """
        shards = self.snapshot()
        started = time.perf_counter()
        if self.tracer.enabled:
            span_start = self.tracer.now()
        merged = hierarchical_merge(
            shards, capacity=capacity or self.config.capacity
        )
        self._m_merge_seconds.observe(time.perf_counter() - started)
        if self.tracer.enabled:
            self.tracer.add_span(
                "driver", "merge", "mp", span_start, self.tracer.now(),
                {"shards": len(shards)},
            )
        return merged
