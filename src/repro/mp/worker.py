"""The worker-process side of the sharded counting backend.

Each worker owns one *private* :class:`~repro.core.space_saving.
SpaceSaving` shard — the shared-nothing design of §4.1, here on real OS
processes so the GIL is out of the picture.  The loop is command-driven:

``("seg", segment, n, weight)``
    Copy ``n`` integer-coded ``(code, weight)`` records
    out of ring ``segment`` (two ``tolist`` C passes), flip the segment
    free so the parent can refill it, and drain the pairs through
    ``process_weighted`` — one update per *distinct* code, the parent
    already pre-aggregated the chunk.  ``weight`` (the batch's total
    occurrence count) only feeds the batch span's args.
``("snapshot", token)``
    Reply with the shard's queryable state: the ``(code, count,
    error)`` triples (the parent decodes the codes against its
    vocabulary), the processed count
    and the capacity — everything :meth:`SpaceSaving.from_entries`
    needs to rebuild the shard in the parent for merging.
``("stop",)``
    Best-effort acknowledge and return (normal process exit).  The ack
    is advisory: a parent tearing down quickly may already have closed
    the reply queue, and failing to deliver the ack must never turn a
    clean shutdown into a crash exit — so it is swallowed, not raised.

Every :data:`BEACON_EVERY` drained batches the worker additionally
ships an ``(index, "beacon", snapshot)`` message: a tiny
registry-shaped snapshot (``mp.beacon.<i>.*`` names from the
catalogue) carrying elements processed, batches drained and the live
shm-ring occupancy.  Beacons are advisory telemetry — an
undeliverable beacon is dropped, never raised — and the parent folds
only the latest one per worker.

Failures never disappear: any exception is reported on the reply queue
as an ``("error", ...)`` message before the process exits non-zero, so
the parent can raise a typed :class:`~repro.errors.WorkerCrashError`
with the remote detail instead of a bare hang.

With ``trace=True`` the worker keeps a local
:class:`~repro.obs.tracing.Tracer` (span per drained batch, span per
snapshot build, all on the ``worker`` track) and ships the serialized
spans — plus its current ``perf_counter`` reading — as two extra fields
on every snapshot reply.  The parent re-bases them onto its own
timeline; older parents simply ignore the extra fields, so the reply
shape stays backward compatible.
"""

from __future__ import annotations

import os
import time
from typing import Any, Optional, Tuple

from repro.core.space_saving import SpaceSaving
from repro.mp.shm import ShmRingReader
from repro.obs.tracing import NULL_TRACER, Tracer

#: exit code of a worker that died via the error path (parent reads it)
CRASH_EXIT_CODE = 17

#: how long a ``fault="hang"`` worker sleeps (far beyond any test timeout)
_HANG_SECONDS = 600.0

#: drained batches between telemetry beacons
BEACON_EVERY = 32


def beacon_snapshot(
    index: int, processed: int, batches: int, ring_busy: int
) -> dict:
    """A worker's telemetry beacon, shaped like a registry snapshot.

    Snapshot-shaped on purpose: the parent (and the serve tier above
    it) folds beacons with :func:`repro.obs.registry.merge_snapshots`
    and renders them through the same exposition paths as every other
    metric.  Names follow the ``mp.beacon.<i>.*`` catalogue templates.
    """
    prefix = f"mp.beacon.{index}"
    return {
        "counters": {
            f"{prefix}.processed": processed,
            f"{prefix}.batches": batches,
        },
        "gauges": {f"{prefix}.ring_busy": float(ring_busy)},
        "histograms": {},
    }


def put_beacon(
    replies: Any, index: int, processed: int, batches: int, ring_busy: int
) -> None:
    """Best-effort beacon delivery (telemetry must never kill a worker)."""
    try:
        replies.put((index, "beacon",
                     beacon_snapshot(index, processed, batches, ring_busy)))
    except Exception:
        pass


def shard_main(
    index: int,
    tasks: Any,
    replies: Any,
    capacity: int,
    fault: Optional[str],
    trace: bool,
    ring: Tuple[str, int, int],
) -> None:
    """Entry point of one worker process (top-level: spawn-safe).

    ``ring`` is ``(shm_name, slots, segments)`` of the worker's
    shared-memory ring; the worker attaches read-write (it flips the
    segment status flags) but never unlinks — the parent owns the
    blocks and destroys them after the workers are joined.
    """
    tracer = Tracer() if trace else NULL_TRACER
    shard = SpaceSaving(capacity=capacity)
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
                    "worker", "batch", "mp.worker",
                    {"items": message[3]} if trace else None,
                ):
                    codes, weights = reader.read(message[1], message[2])
                    shard.process_weighted(zip(codes, weights))
                batches_done += 1
                if batches_done % BEACON_EVERY == 0:
                    put_beacon(
                        replies, index, shard.processed, batches_done,
                        reader.busy_segments(),
                    )
            elif kind == "snapshot":
                with tracer.span("worker", "snapshot", "mp.worker"):
                    entries = [
                        (entry.element, entry.count, entry.error)
                        for entry in shard.entries()
                    ]
                reply = (
                    index,
                    "snapshot",
                    message[1],
                    entries,
                    shard.processed,
                    shard.capacity,
                )
                if trace:
                    # spans ride back with the reply; the worker's clock
                    # reading lets the parent re-base them (its receive
                    # time minus this value is the clock offset)
                    payload = tracer.serialize()
                    tracer.drain()
                    reply = reply + (payload, tracer.now())
                replies.put(reply)
            elif kind == "stop":
                try:
                    replies.put((index, "stopped", shard.processed))
                except Exception:
                    # the parent may already be tearing the queues down;
                    # an undeliverable ack must not fail a clean stop
                    pass
                reader.close()
                return
            else:
                raise ValueError(f"unknown command {kind!r}")
    except BaseException as exc:  # noqa: BLE001 - reported, then re-die
        try:
            replies.put((index, "error", f"{type(exc).__name__}: {exc}"))
            # put() only hands the message to the queue's feeder thread;
            # close+join makes sure it reaches the pipe before we die.
            replies.close()
            replies.join_thread()
        finally:
            # Hard exit: skip inherited atexit/flush machinery so a
            # failing fork child cannot corrupt the parent's streams.
            os._exit(CRASH_EXIT_CODE)
