"""Run any registered scenario against any counting backend.

One entry point, :func:`run_scenario`, ties the pieces together: build
the seeded stream, count it with the chosen backend (sequential batched,
simulated CoTS, the real multiprocess pools, or the vectorized sketch),
score the result against exact ground truth, and record the
``scenario.*`` metrics into an optional registry.

:func:`audit.selfcheck` runs before every scenario, so a corrupted
scoring helper fails the suite loudly rather than mis-scoring quietly.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Dict, Optional, Tuple

from repro.core.space_saving import SpaceSaving
from repro.cots.framework import CoTSRunConfig, run_cots
from repro.errors import ConfigurationError
from repro.mp.config import MPConfig
from repro.mp.driver import run_mp
from repro.obs.registry import MetricsRegistry
from repro.scenarios.audit import (
    AccuracyReport,
    score_accuracy,
    score_sketch_accuracy,
    selfcheck,
)
from repro.scenarios.registry import (
    ScenarioParams,
    Stream,
    get_scenario,
)
from repro.schedcheck.auditor import exact_counts

#: every backend the scenario matrix exercises
BACKENDS = (
    "sequential",
    "cots",
    "mp-shm",
    "mp-one-table",
    "sketch-cm-vec",
)

#: backends whose summaries are Count-Min table reads: scored with the
#: one-sided sketch contract (overestimate bounds), not Space Saving's
#: recall guarantee — the adversary suite runs against them too
SKETCH_BACKENDS = ("mp-one-table", "sketch-cm-vec")


@dataclasses.dataclass(frozen=True)
class ScenarioRun:
    """Everything one scenario x backend cell produced."""

    scenario: str
    scenario_kind: str
    backend: str
    elements: int               #: stream length counted
    distinct: int               #: distinct elements in the stream
    wall_seconds: float
    accuracy: AccuracyReport
    counter: SpaceSaving        #: the queryable merged/final summary
    metrics: Dict[str, Dict]    #: registry snapshot ({} when disabled)

    @property
    def throughput_eps(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.elements / self.wall_seconds


def run_backend(
    stream: Stream,
    backend: str,
    capacity: int,
    threads: int = 4,
    workers: int = 2,
    chunk_elements: int = 0,
    timeout: float = 120.0,
    metrics: Optional[MetricsRegistry] = None,
) -> Tuple[SpaceSaving, float]:
    """Count ``stream`` with one backend; return (summary, wall seconds).

    ``mp-*`` backends return the hierarchically merged shard summary —
    callers must score it with ``merged=True`` (merge truncation may
    drop a borderline heavy hitter; the error bounds still hold).
    """
    if backend == "sequential":
        started = time.perf_counter()
        counter = SpaceSaving(capacity=capacity, metrics=metrics)
        counter.process_many(stream)
        return counter, time.perf_counter() - started
    if backend == "cots":
        started = time.perf_counter()
        result = run_cots(
            stream,
            CoTSRunConfig(
                threads=threads,
                capacity=capacity,
                preaggregate=True,
                batch=128,
                metrics=metrics,
            ),
        )
        return result.counter, time.perf_counter() - started
    if backend in ("mp-shm", "mp-one-table"):
        chunk = chunk_elements or min(
            32_768, max(256, len(stream) // (workers * 4) or 256)
        )
        config = MPConfig(
            workers=workers,
            capacity=capacity,
            chunk_elements=chunk,
            mode="one_table" if backend == "mp-one-table" else "sharded",
            timeout=timeout,
        )
        result = run_mp(stream, config, metrics=metrics)
        return result.counter, result.wall_seconds
    if backend == "sketch-cm-vec":
        from repro.backend.adapters import SketchCMVecBackend

        adapter = SketchCMVecBackend(capacity=capacity, metrics=metrics)
        try:
            started = time.perf_counter()
            for index in range(0, len(stream), 8192):
                adapter.ingest(stream[index:index + 8192])
            snap = adapter.snapshot()
            wall = time.perf_counter() - started
        finally:
            adapter.close()
        counter = SpaceSaving.from_entries(
            capacity, snap.entries, snap.processed
        )
        return counter, wall
    raise ConfigurationError(
        f"unknown backend {backend!r} (known: {', '.join(BACKENDS)})"
    )


def run_scenario(
    name: str,
    backend: str = "sequential",
    params: Optional[ScenarioParams] = None,
    k: int = 10,
    threads: int = 4,
    workers: int = 2,
    chunk_elements: int = 0,
    timeout: float = 120.0,
    metrics: Optional[MetricsRegistry] = None,
) -> ScenarioRun:
    """Build, count and score one scenario on one backend."""
    selfcheck()
    scenario = get_scenario(name)
    params = params or ScenarioParams()
    stream = scenario.build(params)
    truth = exact_counts(stream)
    counter, wall = run_backend(
        stream,
        backend,
        capacity=params.capacity,
        threads=threads,
        workers=workers,
        chunk_elements=chunk_elements,
        timeout=timeout,
        metrics=metrics,
    )
    if backend in SKETCH_BACKENDS:
        report = score_sketch_accuracy(counter, truth, k=k)
    else:
        report = score_accuracy(
            counter, truth, k=k, merged=backend.startswith("mp-")
        )
    snapshot: Dict[str, Dict] = {}
    if metrics is not None:
        metrics.counter("scenario.stream.elements").inc(len(stream))
        metrics.gauge("scenario.stream.distinct").set(len(truth))
        metrics.gauge("scenario.accuracy.recall_at_k").set(
            report.recall_at_k
        )
        metrics.gauge("scenario.accuracy.precision_at_k").set(
            report.precision_at_k
        )
        metrics.gauge("scenario.accuracy.max_overestimate").set(
            report.max_overestimate
        )
        metrics.gauge("scenario.accuracy.max_underestimate").set(
            report.max_underestimate
        )
        metrics.gauge("scenario.accuracy.error_bound").set(
            report.error_bound
        )
        metrics.gauge("scenario.accuracy.bound_excess").set(
            report.bound_excess
        )
        if report.guarantee_violations:
            metrics.counter("scenario.accuracy.guarantee_violations").inc(
                report.guarantee_violations
            )
        snapshot = metrics.snapshot()
    return ScenarioRun(
        scenario=name,
        scenario_kind=scenario.kind,
        backend=backend,
        elements=len(stream),
        distinct=len(truth),
        wall_seconds=wall,
        accuracy=report,
        counter=counter,
        metrics=snapshot,
    )
