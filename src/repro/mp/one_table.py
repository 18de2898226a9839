"""One shared Count-Min table updated by every worker (zero-merge queries).

"One Table to Count Them All" (Taşyaran et al., PAPERS.md) observes
that merge-based parallel sketches pay twice: per-worker tables multiply
memory by the worker count, and every query folds them back together.
The alternative is a single sketch table all workers update.  A naive
shared table is racy in pure Python — concurrent read-modify-write of
the same cell loses updates, and a *lost* update makes Count-Min
underestimate, destroying its one hard guarantee.  This module gets the
single table without locks or loss by **band partitioning**:

* the table is one ``multiprocessing.shared_memory`` block holding a
  ``(depth, band_width * workers)`` ``int64`` array;
* worker ``w`` owns the column band ``[w*band_width, (w+1)*band_width)``
  of *every* row — disjoint bytes, so concurrent updates never race;
* an element's home band is its hash route ``(code >> 1) % workers``
  (the same vectorized hash routing the sharded mode uses), and within
  the band its cells are ``band_offset + h_r(code) % band_width``.

The price is exactly the paper's: each element effectively lives in a
Count-Min sketch of width ``band_width = width / workers``, so the
additive bound per element widens from ``(e / width) * N`` to
``(e / band_width) * N_band`` — computed against its own band's traffic
and reported per entry, never hidden.  Queries are the win: a snapshot
is an array view of one table (no per-worker tables shipped, no
hierarchical merge), which is what makes the update path / query path
separation of QPOPSS cheap.

Consistency protocol: ring dispatches and ``("flush", token)`` commands
share one FIFO queue per worker, so a flush acknowledgement proves every
previously dispatched batch has been applied to the table.
:meth:`OneTablePool.merged` flushes by default — estimates are then
exact reads of a quiescent table.  :meth:`OneTablePool.peek` skips the
flush: reads are *boundedly stale* (at most the in-flight ring
contents), and the reported error widens by the measured staleness so
the ``estimate - error <= true <= estimate + bound`` contract survives
even mid-stream.

Workers never enumerate keys — a sketch cannot — so the parent tracks
candidate heavy hitters while routing: each chunk's heaviest codes feed
a parent-side :class:`~repro.core.space_saving.SpaceSaving` *identifier*
(its counts are never used as estimates; every reported count is read
from the table).
"""

from __future__ import annotations

import math
import os
import queue as queue_module
import time
from multiprocessing import shared_memory
from typing import Any, List, Optional, Tuple

import numpy as np

from repro.core.coding import SENTINEL_CODE
from repro.core.counters import CounterEntry
from repro.core.sketches.count_min import CountMinSketch
from repro.core.sketches.kernels import row_hashes
from repro.core.space_saving import SpaceSaving
from repro.errors import BackendError, WorkerTimeoutError
from repro.mp.config import MPConfig
from repro.mp.pool import ShardedProcessPool
from repro.mp.shm import RING_SEGMENTS, ShmRingReader
from repro.mp.worker import (
    BEACON_EVERY,
    CRASH_EXIT_CODE,
    _HANG_SECONDS,
    put_beacon,
)
from repro.obs.registry import TIME_BUCKETS
from repro.obs.tracing import NULL_TRACER, Tracer

#: per-worker header slot: one int64 processed counter padded to a
#: cache line so adjacent workers' counters never share one
_COUNTER_STRIDE = 64


class SharedCountMinTable:
    """Parent-owned shm block: per-worker counters + the banded table."""

    def __init__(
        self, workers: int, depth: int, band_width: int,
        name: Optional[str] = None,
    ) -> None:
        self.workers = workers
        self.depth = depth
        self.band_width = band_width
        self.width = band_width * workers
        table_bytes = self.depth * self.width * 8
        size = workers * _COUNTER_STRIDE + table_bytes
        if name is None:
            self._shm = shared_memory.SharedMemory(create=True, size=size)
            self.owner = True
        else:
            self._shm = shared_memory.SharedMemory(name=name)
            self.owner = False
        buf = self._shm.buf
        self._counters = np.frombuffer(
            buf, dtype="<i8", count=workers * (_COUNTER_STRIDE // 8)
        ).reshape(workers, _COUNTER_STRIDE // 8)
        self.table = np.frombuffer(
            buf, dtype="<i8", count=self.depth * self.width,
            offset=workers * _COUNTER_STRIDE,
        ).reshape(self.depth, self.width)
        if self.owner:
            self._counters[:] = 0
            self.table[:] = 0
        self._closed = False

    @property
    def name(self) -> str:
        return self._shm.name

    def applied(self, worker: int) -> int:
        """Occurrences worker ``worker`` has applied to its band so far."""
        return int(self._counters[worker, 0])

    def applied_total(self) -> int:
        return int(self._counters[:, 0].sum())

    def add_applied(self, worker: int, weight: int) -> None:
        """Bump a worker's applied counter (worker-side, own slot only)."""
        self._counters[worker, 0] += weight

    def band(self, worker: int) -> np.ndarray:
        """Writable view of the columns worker ``worker`` owns."""
        lo = worker * self.band_width
        return self.table[:, lo:lo + self.band_width]

    def close(self) -> None:
        """Release views; the owner also destroys the block. Idempotent."""
        if self._closed:
            return
        self._closed = True
        self._counters = None
        self.table = None
        self._shm.close()
        if self.owner:
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass


def one_table_main(
    index: int,
    tasks: Any,
    replies: Any,
    table_spec: Tuple[str, int, int, int],
    hash_a: List[int],
    hash_b: List[int],
    ring: Tuple[str, int, int],
    fault: Optional[str] = None,
    trace: bool = False,
) -> None:
    """Entry point of one one-table worker process (top-level: spawn-safe).

    Speaks the same queue protocol as ``shard_main`` (``seg`` / ``stop``
    plus ``flush`` instead of ``snapshot``) but owns no counting state of
    its own: every batch is hashed with the shared parameters and
    scatter-added into this worker's column band of the shared table.
    """
    tracer = Tracer() if trace else NULL_TRACER
    table = SharedCountMinTable(
        workers=table_spec[1], depth=table_spec[2],
        band_width=table_spec[3], name=table_spec[0],
    )
    band = table.band(index)
    band_width = table.band_width
    va = np.array(hash_a, dtype=np.uint64)
    vb = np.array(hash_b, dtype=np.uint64)
    reader = ShmRingReader(ring[0], ring[1], ring[2])
    batches_done = 0
    try:
        while True:
            message = tasks.get()
            kind = message[0]
            if kind == "seg":
                if fault == "raise":
                    raise RuntimeError("injected fault: raise during count")
                if fault == "exit":
                    os._exit(CRASH_EXIT_CODE)
                if fault == "hang":
                    time.sleep(_HANG_SECONDS)
                with tracer.span(
                    "worker", "batch", "mp.one_table",
                    {"items": message[3]} if trace else None,
                ):
                    codes, weights = reader.read_arrays(message[1], message[2])
                    cells = row_hashes(codes, va, vb, band_width)
                    for row in range(table.depth):
                        np.add.at(band[row], cells[row], weights)
                    # publish progress only after the cells landed: the
                    # parent derives staleness bounds from this counter
                    table.add_applied(index, int(weights.sum()))
                batches_done += 1
                if batches_done % BEACON_EVERY == 0:
                    put_beacon(
                        replies, index, table.applied(index), batches_done,
                        reader.busy_segments(),
                    )
            elif kind == "flush":
                # FIFO queue: every batch dispatched before this command
                # is already applied, so the ack certifies quiescence
                replies.put((index, "flushed", message[1],
                             table.applied(index)))
                if trace:
                    payload = tracer.serialize()
                    tracer.drain()
                    replies.put((index, "spans", message[1],
                                 payload, tracer.now()))
            elif kind == "stop":
                try:
                    replies.put((index, "stopped", table.applied(index)))
                except Exception:
                    pass
                reader.close()
                table.close()
                return
            else:
                raise ValueError(f"unknown command {kind!r}")
    except BaseException as exc:  # noqa: BLE001 - reported, then re-die
        try:
            replies.put((index, "error", f"{type(exc).__name__}: {exc}"))
            replies.close()
            replies.join_thread()
        finally:
            os._exit(CRASH_EXIT_CODE)


class OneTablePool(ShardedProcessPool):
    """Process pool whose workers share one banded Count-Min table.

    Reuses the sharded pool's entire life cycle (queues, rings,
    backpressure, typed crash/timeout propagation, clean shutdown) and
    replaces the counting structure: workers scatter-add into their
    column band of a :class:`SharedCountMinTable`, and queries read the
    table through a parent-side :class:`~repro.core.sketches.count_min.
    CountMinSketch` facade instead of merging per-worker summaries.
    """

    def __init__(
        self, config: Optional[MPConfig] = None, metrics=None, tracer=None
    ) -> None:
        config = config or MPConfig()
        # the reference sketch fixes width/depth/hash parameters; the
        # shared table reproduces its geometry rounded up to a whole
        # number of equal bands
        self._reference = CountMinSketch(
            epsilon=config.sketch_epsilon,
            delta=config.sketch_delta,
            seed=config.sketch_seed,
        )
        band_width = max(
            1, math.ceil(self._reference.width / config.workers)
        )
        self._table = SharedCountMinTable(
            workers=config.workers,
            depth=self._reference.depth,
            band_width=band_width,
        )
        self._hash_a = [h.a for h in self._reference._hashes]
        self._hash_b = [h.b for h in self._reference._hashes]
        self._va = np.array(self._hash_a, dtype=np.uint64)
        self._vb = np.array(self._hash_b, dtype=np.uint64)
        #: candidate *identifier* (counts never used as estimates)
        self._hot = SpaceSaving(capacity=config.capacity)
        self._hot_codes: Optional[np.ndarray] = None
        self._flush_token = 0
        super().__init__(config, metrics=metrics, tracer=tracer)
        self._m_sketch_updates = self.metrics.counter("sketch.updates")
        self._m_cells_touched = self.metrics.counter("sketch.cells_touched")
        self._m_occupancy = self.metrics.gauge("sketch.table.occupancy")
        self._m_merge_avoided = self.metrics.counter(
            "backend.merge_avoided.bytes"
        )
        self._m_flush_seconds = self.metrics.histogram(
            "sketch.flush.seconds", buckets=TIME_BUCKETS
        )

    # ------------------------------------------------------------------
    # Pool plumbing overrides
    # ------------------------------------------------------------------
    def _worker_spec(self, index: int):
        return one_table_main, (
            index,
            self._tasks[index],
            self._replies,
            (
                self._table.name,
                self.config.workers,
                self._table.depth,
                self._table.band_width,
            ),
            self._hash_a,
            self._hash_b,
            (
                self._rings[index].name,
                self.config.chunk_elements,
                RING_SEGMENTS,
            ),
            self.config.fault,
            self.tracer.enabled,
        )

    def _note_chunk(self, codes, weights) -> None:
        """Track each chunk's heaviest codes as heavy-hitter candidates.

        Only the top ``capacity`` codes of the chunk feed the identifier
        — a numpy partial sort plus a bounded Space Saving pass, so the
        parent stays off the per-element path.  An overall-heavy element
        is chunk-heavy somewhere, so it keeps re-entering the candidate
        set; its reported count comes from the table, never from here.
        """
        n = len(codes)
        if not n:
            return
        cap = self.config.capacity
        if n > cap:
            top = np.argpartition(weights, n - cap)[n - cap:]
            pairs = zip(codes[top].tolist(), weights[top].tolist())
        else:
            pairs = zip(codes.tolist(), weights.tolist())
        self._hot.process_weighted(pairs)
        self._hot_codes = None  # candidate set moved; rebuild on peek
        if self.metrics.enabled:
            self._m_sketch_updates.inc(n)
            self._m_cells_touched.inc(n * self._table.depth)

    def _release_rings(self) -> None:
        super()._release_rings()
        self._table.close()

    # ------------------------------------------------------------------
    # Consistency
    # ------------------------------------------------------------------
    def flush(self) -> int:
        """Round-trip every worker's queue; returns occurrences applied.

        On return the shared table reflects every batch dispatched
        before the call (FIFO queues), so subsequent reads are exact —
        this is the end-of-ingest barrier, deliberately separate from
        the query path (:meth:`merged` / :meth:`peek` never touch the
        workers once the stream is flushed).
        """
        self._ensure_open()
        started = time.perf_counter()
        self._flush_token += 1
        token = self._flush_token
        for index in range(self.workers):
            self._put(index, ("flush", token))
        pending = set(range(self.workers))
        applied = 0
        while pending:
            message = self._reply_or_fail(pending, phase="flush")
            kind = message[1]
            if kind == "error":
                self._fail_crashed(message[0], detail=message[2])
            elif kind == "flushed" and message[2] == token:
                applied += message[3]
                pending.discard(message[0])
            elif kind == "spans" and message[2] == token:
                if self.tracer.enabled:
                    offset = self.tracer.now() - message[4]
                    self.tracer.ingest(
                        message[3], offset=offset,
                        track_prefix=f"shard-{message[0]}/",
                    )
            elif kind == "beacon":
                self._fold_beacon(message)
            else:
                self._m_replies_discarded.inc()
                self._discarded_replies[str(kind)] += 1
        self._m_flush_seconds.observe(time.perf_counter() - started)
        return applied

    def _reply_or_fail(self, pending: set, phase: str):
        try:
            return self._replies.get(timeout=self.config.timeout)
        except queue_module.Empty:
            for index in sorted(pending):
                if not self._processes[index].is_alive():
                    self._fail_crashed(index)
            index = min(pending)
            self.close()
            raise WorkerTimeoutError(
                index, self.config.timeout, phase
            ) from None

    def staleness(self) -> int:
        """Dispatched occurrences not yet visible in the table (>= 0)."""
        dispatched = sum(self.worker_items)
        return max(0, dispatched - self._table.applied_total())

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def estimate_codes(self, codes: np.ndarray) -> np.ndarray:
        """Vectorized row-min table reads for an array of codec codes."""
        bands = (codes >> 1) % self.workers
        offsets = bands * self._table.band_width
        cells = row_hashes(
            codes, self._va, self._vb, self._table.band_width
        ) + offsets
        return np.take_along_axis(
            self._table.table, cells, axis=1
        ).min(axis=0)

    def band_bounds(self) -> np.ndarray:
        """Per-band additive error bound ``ceil((e / band_width) * N_band)``.

        ``N_band`` is the traffic *dispatched* to the band (>= applied,
        so the bound stays conservative under staleness).
        """
        eps_band = math.e / self._table.band_width
        return np.ceil(
            eps_band * np.asarray(self.worker_items, dtype=np.float64)
        ).astype(np.int64)

    def top_k(self, k: int = 10, strict: bool = False) -> List[CounterEntry]:
        """The top-k answer straight off the shared table (the fast read).

        This is the query path the one-table mode exists for: no worker
        round-trip, no per-worker summaries to merge, no full summary
        object to materialize — a vectorized table read over the cached
        candidate codes, a partial sort, and ``k`` decoded entries.
        ``strict=False`` widens counts and bounds by the measured
        staleness exactly like :meth:`peek`.  Use :meth:`peek` /
        :meth:`merged` when a full queryable :class:`SpaceSaving` is
        needed.
        """
        self._ensure_open()
        started = time.perf_counter()
        slack = 0 if strict else self.staleness()
        codes = self._candidate_codes()
        n = len(codes)
        if not n:
            return []
        estimates = self.estimate_codes(codes)
        if k < n:
            keep = np.argpartition(estimates, n - k)[n - k:]
            codes = codes[keep]
            estimates = estimates[keep]
        order = np.argsort(-estimates, kind="stable")
        codes = codes[order]
        estimates = estimates[order]
        bounds = self.band_bounds()[(codes >> 1) % self.workers]
        decode = self._codec.decode
        entries = [
            CounterEntry(decode(int(code)), int(estimate) + slack,
                         int(bound) + slack)
            for code, estimate, bound in zip(
                codes.tolist(), estimates.tolist(), bounds.tolist()
            )
        ]
        self._m_snapshot_seconds.observe(time.perf_counter() - started)
        return entries

    def _candidate_codes(self) -> np.ndarray:
        """The candidate identifier's codes (cached between chunks)."""
        if self._hot_codes is None:
            self._hot_codes = np.array(
                [entry.element for entry in self._hot.entries()],
                dtype=np.int64,
            )
        return self._hot_codes

    def peek(
        self, capacity: Optional[int] = None, strict: bool = False
    ) -> SpaceSaving:
        """Queryable summary read straight off the shared table.

        ``strict=False`` (live read) widens every bound by the measured
        staleness — updates still in flight can only make estimates
        *lower* than the eventual truth-dominating value, and staleness
        bounds the gap.  With ``strict=True`` the caller has flushed
        (or accepts a flush happening here via :meth:`merged`).

        The result is a :class:`SpaceSaving` in shape only: counts are
        Count-Min table reads (upper bounds post-flush) and errors the
        widened band bounds, so ``count - error <= true`` holds with
        probability ``1 - delta`` per element.
        """
        self._ensure_open()
        started = time.perf_counter()
        slack = 0 if strict else self.staleness()
        candidate_codes = self._candidate_codes()
        processed = self._dispatched
        if len(candidate_codes):
            estimates = self.estimate_codes(candidate_codes)
            bounds = self.band_bounds()[
                (candidate_codes >> 1) % self.workers
            ]
            decode = self._codec.decode
            entries = [
                CounterEntry(
                    decode(int(code)),
                    # a live read may lag truth by the in-flight weight;
                    # publishing estimate+slack keeps the upper-bound
                    # contract, and the widened error keeps the lower one
                    int(estimate) + slack,
                    int(bound) + slack,
                )
                for code, estimate, bound in zip(
                    candidate_codes.tolist(), estimates, bounds
                )
            ]
        else:
            entries = []
        if self.metrics.enabled:
            table = self._table.table
            self._m_occupancy.set(
                float(np.count_nonzero(table)) / table.size
            )
            # a sharded design would ship + fold one private table per
            # worker; reading the single shared table avoids all but one
            self._m_merge_avoided.inc(table.nbytes * (self.workers - 1))
        summary = SpaceSaving.from_entries(
            capacity or self.config.capacity, entries, processed
        )
        self._m_snapshot_seconds.observe(time.perf_counter() - started)
        return summary

    def merged(self, capacity: Optional[int] = None) -> SpaceSaving:
        """Strictly consistent summary: flush, then read the table.

        Name kept from the sharded pool so drivers treat both modes
        uniformly — but nothing is merged: the "merge" is an array read
        of the one table (that is the point of the design).
        """
        self.flush()
        return self.peek(capacity=capacity, strict=True)

    def snapshot(self):
        """Per-worker snapshots do not exist in one-table mode."""
        raise BackendError(
            "one-table workers own no private summaries; query with "
            "merged() / peek() / sketch()"
        )

    def sketch(self) -> CountMinSketch:
        """Detached :class:`CountMinSketch` facade over a table copy.

        The copy survives :meth:`close` and answers ``estimate(element)``
        for arbitrary keys through the parent codec; its error bound is
        pre-widened to the worst band's ``eps_band * N_band``.
        """
        facade = CountMinSketch(
            epsilon=self.config.sketch_epsilon,
            delta=self.config.sketch_delta,
            seed=self.config.sketch_seed,
        )
        facade.width = self._table.width
        facade.depth = self._table.depth
        for h in facade._hashes:
            h.width = self._table.band_width
        table_copy = self._table.table.copy()
        facade._table = table_copy
        facade._processed = self._dispatched
        facade.codec = self._codec
        bounds = self.band_bounds()
        base = math.ceil(facade.epsilon * facade._processed)
        facade.widen(max(0, int(bounds.max(initial=0)) - base))
        # estimates must route through the banded geometry, not the
        # uniform row hash — rebind the estimator over the *copy* so the
        # facade keeps answering after the pool (and its shm) is closed
        band_width = self._table.band_width
        workers = self.workers
        va, vb = self._va, self._vb

        def estimate_code(code: int) -> int:
            if code == SENTINEL_CODE:
                return 0
            arr = np.array([code], dtype=np.int64)
            cells = row_hashes(arr, va, vb, band_width) + (
                (arr >> 1) % workers
            ) * band_width
            return int(np.take_along_axis(table_copy, cells, axis=1).min())

        facade.estimate_code = estimate_code  # type: ignore[method-assign]
        return facade
