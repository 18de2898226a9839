"""Backend-protocol adapters over every counting engine in the repo.

Each adapter is a thin, metered shell: ``backend.ingest.items`` /
``backend.ingest.batches`` count what flows in, and
``backend.snapshot.seconds`` times every snapshot — the same three
instruments for every engine, which is what makes the bench ladders and
the scenario matrix directly comparable across designs.  ``query(k)``
slices a snapshot everywhere but in ``sequential``, which answers it
with a bounded walk of its Stream Summary (the ``k`` rows of the
answer, not one per counter) and so takes no snapshot to do it.

Two engine families need a note:

* **Replay adapters** (``cots-sim``): the simulated-CMP drivers replay
  a complete stream through the simulator, so the adapter buffers
  ingested batches and re-runs the driver per snapshot.  That is the
  honest cost of querying a simulation mid-stream; the conformance
  tests treat it like any other backend.
* **Sketch adapters** (``mp-one-table`` here, ``sketch-cm-vec`` in
  :mod:`repro.backend.sketch`): a pure sketch cannot enumerate keys, so
  the table is paired with a bounded Space Saving *candidate
  identifier* fed from each chunk's heaviest codes.  Every reported
  count is read from the sketch table; the identifier only chooses
  *which* keys to report.  Because that choice is heuristic, a key
  outside the candidates is answered by the snapshot's frozen
  ``estimator`` (a read of a table copy), never by the error bound.

No engine's own modules load here: ``cots-sim`` imports
:mod:`repro.cots` when it first replays, ``mp-*`` import
:mod:`repro.mp` and ``sketch-cm-vec`` its NumPy adapter when
:func:`~repro.backend.registry.create_backend` builds them.  So a
process that serves the stock engine never loads NumPy.
"""

from __future__ import annotations

import time
from typing import List, Sequence

from repro.backend.base import Element, Snapshot
from repro.core.counters import CounterEntry
from repro.core.space_saving import SpaceSaving
from repro.errors import BackendError
from repro.obs.registry import TIME_BUCKETS, coerce


class _Instrumented:
    """Shared metering + life-cycle plumbing for every adapter.

    ``blocking`` says whether a call can wait on other processes or
    replay the stream: the serve tier runs a blocking engine's calls on
    a backend thread of their own and every other engine's on its event
    loop, where a thread would only take turns with it on the GIL.
    """

    name = "abstract"
    blocking = False

    def __init__(self, metrics=None) -> None:
        self.metrics = coerce(metrics)
        self._m_items = self.metrics.counter("backend.ingest.items")
        self._m_batches = self.metrics.counter("backend.ingest.batches")
        self._m_snapshot_seconds = self.metrics.histogram(
            "backend.snapshot.seconds", buckets=TIME_BUCKETS
        )
        self._closed = False

    def _ensure_open(self) -> None:
        if self._closed:
            raise BackendError(f"backend {self.name!r} is closed")

    def _meter_ingest(self, items: int) -> int:
        self._m_items.inc(items)
        self._m_batches.inc()
        return items

    def query(self, k: int = 10) -> List[CounterEntry]:
        return self.snapshot().top_k(k)

    def close(self) -> None:
        self._closed = True


class SequentialBackend(_Instrumented):
    """Plain Space Saving on the caller's thread (the baseline)."""

    name = "sequential"

    def __init__(self, capacity: int, metrics=None) -> None:
        super().__init__(metrics)
        self._counter = SpaceSaving(capacity=capacity)

    def ingest(self, batch: Sequence[Element]) -> int:
        self._ensure_open()
        self._counter.process_many(batch)
        return self._meter_ingest(len(batch))

    def snapshot(self) -> Snapshot:
        started = time.perf_counter()
        snap = Snapshot(
            scheme=self.name,
            processed=self._counter.processed,
            entries=self._counter.entries(),
            error_bound=self._counter.max_error(),
        )
        self._m_snapshot_seconds.observe(time.perf_counter() - started)
        return snap

    def query(self, k: int = 10) -> List[CounterEntry]:
        return self._counter.top_k(k)

    def estimate(self, element: Element) -> int:
        return self._counter.estimate(element)


class CotsSimBackend(_Instrumented):
    """The simulated CoTS framework behind the protocol (replay adapter).

    The simulator consumes whole streams, so batches are buffered and
    each snapshot replays everything ingested so far through
    :func:`repro.cots.run_cots` — snapshot cost grows with the stream,
    which is the true price of querying a simulation, not an adapter
    artifact.
    """

    name = "cots-sim"
    blocking = True

    def __init__(self, capacity: int, threads: int, metrics=None) -> None:
        super().__init__(metrics)
        self.capacity = capacity
        self.threads = threads
        self._buffer: List[Element] = []

    def ingest(self, batch: Sequence[Element]) -> int:
        self._ensure_open()
        self._buffer.extend(batch)
        return self._meter_ingest(len(batch))

    def _run(self):
        from repro.cots import CoTSRunConfig, run_cots

        return run_cots(
            self._buffer,
            CoTSRunConfig(threads=self.threads, capacity=self.capacity),
        )

    def snapshot(self) -> Snapshot:
        started = time.perf_counter()
        counter = self._run().counter
        snap = Snapshot(
            scheme=self.name,
            processed=counter.processed,
            entries=counter.entries(),
            error_bound=counter.max_error(),
            extras={"threads": self.threads, "replayed": len(self._buffer)},
        )
        self._m_snapshot_seconds.observe(time.perf_counter() - started)
        return snap

    def estimate(self, element: Element) -> int:
        if not self._buffer:
            return 0
        return self._run().counter.estimate(element)


class MPBackend(_Instrumented):
    """Multiprocess pools (sharded and one-table) as backends."""

    blocking = True

    def __init__(self, pool_cls, config, name: str, metrics=None) -> None:
        super().__init__(metrics)
        self.name = name
        self._pool = pool_cls(config, metrics=metrics)

    def ingest(self, batch: Sequence[Element]) -> int:
        self._ensure_open()
        sent = self._pool.count(batch)
        return self._meter_ingest(sent)

    def _view(self):
        """(merged summary, error bound, point estimator or None)."""
        from repro.mp.one_table import OneTablePool

        merged = self._pool.merged()
        if isinstance(self._pool, OneTablePool):
            # entries carry their band's widened bound; the worst band
            # covers them all, and a table copy answers unmonitored keys
            bound = int(self._pool.band_bounds().max(initial=0))
            return merged, bound, self._pool.sketch().estimate
        return merged, merged.max_error(), None

    def snapshot(self) -> Snapshot:
        self._ensure_open()
        started = time.perf_counter()
        merged, bound, estimator = self._view()
        snap = Snapshot(
            scheme=self.name,
            processed=merged.processed,
            entries=merged.entries(),
            error_bound=bound,
            extras={"workers": self._pool.workers},
            estimator=estimator,
        )
        self._m_snapshot_seconds.observe(time.perf_counter() - started)
        return snap

    def estimate(self, element: Element) -> int:
        self._ensure_open()
        merged, _, estimator = self._view()
        if estimator is None:
            return merged.estimate(element)
        return estimator(element)

    def telemetry(self) -> dict:
        """Latest worker beacons merged into one registry-shaped snapshot.

        Drains the pool's reply queue (non-blocking, failing fast on
        worker errors) and merges each worker's latest
        ``mp.beacon.<i>.*`` snapshot.  Backends without live worker
        telemetry simply do not define this method — the serve tier
        feature-detects it with ``getattr``.
        """
        self._ensure_open()
        self._pool.poll_beacons()
        return self._pool.beacon_snapshot()

    def close(self) -> None:
        if not self._closed:
            self._pool.close()
        super().close()
