"""The zero-copy shared-memory data plane of the multiprocess backend.

Shipping every routed batch as a pickled list of Python objects over a
``multiprocessing`` queue measured 0.86–0.93x of sequential on the mp
bench ladder (1-core x86-64 host, 1–8 workers): the pickle/unpickle
cost eats the entire parallel win.
This module is the shape the merge-based parallel Space Saving
literature (Cafaro et al., QPOPSS) gets its near-linear scaling from:
shards exchange *compact fixed-width data*, never per-item Python
objects.

Three pieces:

:class:`StreamCodec`
    The parent-owned shared vocabulary.  Stream keys are mapped to
    ``int64`` codes; workers count codes and never see a key — the
    parent decodes codes back to keys only at snapshot time.  Coding is
    two-lane: keys that *are* machine-size ints are coded as
    ``key << 1`` (even codes, no dictionary, fully vectorizable), every
    other key gets a vocabulary index coded ``(index << 1) | 1`` (odd
    codes).  One chunk whose elements form a numpy integer array is
    pre-aggregated with ``np.unique`` — one C pass instead of a
    per-element Python loop; anything else falls back to one
    ``collections.Counter`` pass plus a per-*distinct*-key dict lookup.

    Keys of different types that compare equal (``1``, ``1.0``,
    ``True``, ``numpy.int64(1)``) are one key, as in a dict: a key
    equal to a machine-size int takes that int's even code, whichever
    lane coded the int first.

:func:`route_coded`
    Vectorized hash routing of a pre-aggregated ``(codes, weights)``
    chunk to per-worker arrays — numpy masks, no per-element Python
    loop.

:class:`ShmRing` / :class:`ShmRingReader`
    One ``multiprocessing.shared_memory`` block per worker, split into
    :data:`RING_SEGMENTS` fixed-size segments (double buffering — the
    parent fills one segment while the worker drains the other).  A
    segment carries up to ``slots`` records of two little-endian
    ``int64`` arrays (codes, then weights); its one-byte status flag is
    the entire synchronization protocol:

    * parent observes ``FREE``, writes the payload, sets ``BUSY`` and
      sends a tiny ``("seg", segment, n, weight)`` control message on
      the existing task queue (the queue gives FIFO ordering and a
      blocking wait; the data never travels through it);
    * worker copies the payload out (``tolist`` — one C pass) and sets
      ``FREE`` *before* counting, so the parent can refill the segment
      while the worker is still updating its shard;
    * a parent that finds no ``FREE`` segment is experiencing
      backpressure from a slow worker: it polls (the stall is metered
      as ``mp.shm.ring_stalls`` / ``mp.shm.stall_seconds``) and raises
      the usual :class:`~repro.errors.WorkerTimeoutError` if the
      segment never frees within the configured timeout.

    Single-producer/single-consumer per ring and one-byte flags make
    the protocol race-free without locks; the parent owns segment
    allocation (round-robin), the worker only ever flips BUSY -> FREE.
"""

from __future__ import annotations

from multiprocessing import shared_memory
from typing import List, Tuple

import numpy as np

# StreamCodec moved to repro.core.coding when the sketches started
# hashing codec codes (PR 8) — core cannot import mp without inverting
# the layering.  Re-exported here so existing imports keep working.
from repro.core.coding import INT_CODE_BOUND, StreamCodec  # noqa: F401
from repro.errors import StreamError

#: segment status flag values (one byte at each segment's offset 0)
SEG_FREE = 0
SEG_BUSY = 1

#: per-segment header size; one status byte, padded to a cache line so
#: adjacent segment flags never share a line (false sharing)
HEADER_BYTES = 64

#: bytes per (code, weight) record — two little-endian int64s
RECORD_BYTES = 16

#: segments per worker ring: 2 is double buffering (the parent fills
#: one while the worker drains the other)
RING_SEGMENTS = 2

def segment_bytes(slots: int) -> int:
    """On-disk size of one ring segment holding up to ``slots`` records."""
    return HEADER_BYTES + slots * RECORD_BYTES


# ----------------------------------------------------------------------
# Vectorized routing
# ----------------------------------------------------------------------
def route_coded(
    codes: np.ndarray,
    weights: np.ndarray,
    parts: int,
    how: str = "hash",
) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Split a pre-aggregated chunk across ``parts`` workers by hash.

    Every element gets a home shard (all its occurrences, in every
    chunk, land on one worker — the key-value is the shard selector,
    so the full-stream Space Saving guarantees hold per shard).
    ``how`` names the strategy for callers that spell it out; ``hash``
    is the only one.
    """
    if how != "hash":
        raise StreamError(f"unknown partitioning {how!r}; only 'hash' routes")
    if parts < 1:
        raise StreamError(f"parts must be >= 1, got {parts}")
    if parts == 1 or not len(codes):
        return [(codes, weights)] + [
            (codes[:0], weights[:0]) for _ in range(parts - 1)
        ]
    shards = (codes >> 1) % parts
    return [
        (codes[shards == index], weights[shards == index])
        for index in range(parts)
    ]


# ----------------------------------------------------------------------
# Shared-memory rings
# ----------------------------------------------------------------------
class ShmRing:
    """Parent side of one worker's ring: create, fill, free-poll, unlink."""

    def __init__(self, slots: int, segments: int) -> None:
        if slots < 1:
            raise StreamError(f"slots must be >= 1, got {slots}")
        if segments < 1:
            raise StreamError(f"segments must be >= 1, got {segments}")
        self.slots = slots
        self.segments = segments
        self._seg_bytes = segment_bytes(slots)
        self._shm = shared_memory.SharedMemory(
            create=True, size=self._seg_bytes * segments
        )
        buf = self._shm.buf
        self._status = [buf[self._offset(s):self._offset(s) + 1]
                        for s in range(segments)]
        self._codes = []
        self._weights = []
        for s in range(segments):
            base = self._offset(s) + HEADER_BYTES
            self._codes.append(np.frombuffer(
                buf, dtype="<i8", count=slots, offset=base))
            self._weights.append(np.frombuffer(
                buf, dtype="<i8", count=slots, offset=base + slots * 8))
        for s in range(segments):
            self._status[s][0] = SEG_FREE
        self._closed = False

    @property
    def name(self) -> str:
        """System-wide shm block name (hand to :class:`ShmRingReader`)."""
        return self._shm.name

    def _offset(self, segment: int) -> int:
        return segment * self._seg_bytes

    def is_free(self, segment: int) -> bool:
        return self._status[segment][0] == SEG_FREE

    def busy_segments(self) -> int:
        """Segments currently owned by the worker (ring occupancy)."""
        return sum(
            1 for s in range(self.segments) if self._status[s][0] != SEG_FREE
        )

    def fill(
        self, segment: int, codes: np.ndarray, weights: np.ndarray
    ) -> int:
        """Write one routed batch into ``segment``; returns payload bytes.

        The caller must have observed :meth:`is_free` — the flag flip to
        BUSY is the publication point the worker's reader relies on.
        """
        n = len(codes)
        if n > self.slots:
            raise StreamError(
                f"batch of {n} records exceeds ring segment capacity "
                f"{self.slots}"
            )
        self._codes[segment][:n] = codes
        self._weights[segment][:n] = weights
        self._status[segment][0] = SEG_BUSY
        return n * RECORD_BYTES

    def close(self) -> None:
        """Release views and destroy the block; idempotent, parent-only."""
        if self._closed:
            return
        self._closed = True
        # numpy views and the status memoryviews pin the exported
        # buffer: drop them before close() or SharedMemory warns
        self._codes = []
        self._weights = []
        for view in self._status:
            view.release()
        self._status = []
        self._shm.close()
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass


class ShmRingReader:
    """Worker side: attach by name, copy batches out, flip segments free."""

    def __init__(self, name: str, slots: int, segments: int) -> None:
        self.slots = slots
        self.segments = segments
        self._seg_bytes = segment_bytes(slots)
        # Python 3.11 registers the block with the resource tracker on
        # *attach* too, but multiprocessing children share the parent's
        # tracker process and its cache is a set — the worker's
        # registration is an idempotent no-op there, and unregistering
        # would strip the *parent's* entry (its later unlink then makes
        # the tracker trip a KeyError).  So: attach, touch nothing.
        self._shm = shared_memory.SharedMemory(name=name)
        buf = self._shm.buf
        self._status = [buf[s * self._seg_bytes: s * self._seg_bytes + 1]
                        for s in range(segments)]
        self._codes = []
        self._weights = []
        for s in range(segments):
            base = s * self._seg_bytes + HEADER_BYTES
            self._codes.append(np.frombuffer(
                buf, dtype="<i8", count=slots, offset=base))
            self._weights.append(np.frombuffer(
                buf, dtype="<i8", count=slots, offset=base + slots * 8))
        self._closed = False

    def busy_segments(self) -> int:
        """Segments currently published BUSY (the worker's backlog).

        The worker-side twin of :meth:`ShmRing.busy_segments`, read for
        telemetry beacons: how far the parent is ahead of this worker.
        """
        return sum(
            1 for s in range(self.segments) if self._status[s][0] != SEG_FREE
        )

    def read(self, segment: int, count: int) -> Tuple[List[int], List[int]]:
        """Copy ``count`` records out of ``segment`` and free it.

        The copy (two ``tolist`` C passes) decouples the worker from the
        buffer immediately: the segment is flipped FREE *before* the
        worker counts the batch, so the parent can refill it while the
        shard update runs — that overlap is the double buffering.
        """
        codes = self._codes[segment][:count].tolist()
        weights = self._weights[segment][:count].tolist()
        self._status[segment][0] = SEG_FREE
        return codes, weights

    def read_arrays(self, segment: int, count: int) -> Tuple[np.ndarray, np.ndarray]:
        """Like :meth:`read`, but returns ``int64`` array copies.

        The vectorized consumers (one-table sketch workers) feed numpy
        kernels directly — materializing Python ints via ``tolist`` just
        to re-box them into arrays would throw the zero-copy win away.
        The copies decouple from the buffer exactly like :meth:`read`
        does, and the segment is freed before returning.
        """
        codes = self._codes[segment][:count].copy()
        weights = self._weights[segment][:count].copy()
        self._status[segment][0] = SEG_FREE
        return codes, weights

    def close(self) -> None:
        """Detach (never unlink — the parent owns the block)."""
        if self._closed:
            return
        self._closed = True
        self._codes = []
        self._weights = []
        for view in self._status:
            view.release()
        self._status = []
        self._shm.close()
