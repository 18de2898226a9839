"""The vectorized Count-Min engine (``sketch-cm-vec``) behind the protocol.

It lives apart from :mod:`repro.backend.adapters` because it is the
one adapter built on NumPy: :func:`~repro.backend.registry.create_backend`
imports this module only when it builds the engine, so a process that
never asks for ``sketch-cm-vec`` never loads NumPy for it.
"""

from __future__ import annotations

import copy
import time
from typing import Optional, Sequence

import numpy as np

from repro.backend.adapters import _Instrumented
from repro.backend.base import Element, Snapshot
from repro.core.counters import CounterEntry
from repro.core.sketches.count_min import CountMinSketch
from repro.core.space_saving import SpaceSaving


class SketchCMVecBackend(_Instrumented):
    """Vectorized Count-Min: NumPy kernels on the coded chunk lane.

    Chunks are coded through the sketch's own codec and land via the
    vectorized ``process_weighted`` lane; each chunk's heaviest codes
    feed the bounded candidate identifier (counts are never taken from
    it — every reported number is a table read).
    """

    name = "sketch-cm-vec"

    def __init__(
        self,
        capacity: int = 256,
        epsilon: float = 0.001,
        delta: float = 0.01,
        seed: Optional[int] = 0,
        metrics=None,
    ) -> None:
        super().__init__(metrics)
        self._sketch = CountMinSketch(epsilon=epsilon, delta=delta, seed=seed)
        self._capacity = capacity
        self._hot = SpaceSaving(capacity=capacity)
        self._m_updates = self.metrics.counter("sketch.updates")
        self._m_cells = self.metrics.counter("sketch.cells_touched")
        self._m_occupancy = self.metrics.gauge("sketch.table.occupancy")

    def ingest(self, batch: Sequence[Element]) -> int:
        self._ensure_open()
        codes, weights = self._sketch.codec.encode_chunk(batch)
        self._sketch.process_weighted(codes, weights)
        n = len(codes)
        if n:
            cap = self._capacity
            if n > cap:
                top = np.argpartition(weights, n - cap)[n - cap:]
                pairs = zip(codes[top].tolist(), weights[top].tolist())
            else:
                pairs = zip(codes.tolist(), weights.tolist())
            self._hot.process_weighted(pairs)
        if self.metrics.enabled:
            self._m_updates.inc(n)
            self._m_cells.inc(n * self._sketch.depth)
        return self._meter_ingest(len(batch))

    def snapshot(self) -> Snapshot:
        started = time.perf_counter()
        sketch = self._sketch
        bound = sketch.error_bound()
        decode = sketch.codec.decode
        entries = sorted(
            (
                CounterEntry(
                    decode(int(code.element)),
                    sketch.estimate_code(int(code.element)),
                    bound,
                )
                for code in self._hot.entries()
            ),
            key=lambda entry: (-entry.count, repr(entry.element)),
        )
        if self.metrics.enabled:
            table = sketch.table
            self._m_occupancy.set(
                float(np.count_nonzero(table)) / table.size
            )
        # the frozen estimator reads a table copy through the live
        # codec: codes are append-only, so later keys never move
        frozen = copy.copy(sketch)
        frozen._table = sketch._table.copy()
        snap = Snapshot(
            scheme=self.name,
            processed=sketch.processed,
            entries=entries,
            error_bound=bound,
            extras={"depth": sketch.depth, "width": sketch.width},
            estimator=frozen.estimate,
        )
        self._m_snapshot_seconds.observe(time.perf_counter() - started)
        return snap

    def estimate(self, element: Element) -> int:
        return self._sketch.estimate(element)
