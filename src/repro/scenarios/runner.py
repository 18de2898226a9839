"""Run any registered scenario against any counting backend.

One entry point, :func:`run_scenario`, ties the pieces together: build
the seeded stream, count it with any engine of the backend registry
(:data:`repro.backend.BACKEND_NAMES`, built by ``create_backend`` like
every other caller), score the final snapshot against exact ground
truth, and record the ``scenario.*`` metrics into an optional registry.

:func:`audit.selfcheck` runs before every scenario, so a corrupted
scoring helper fails the suite loudly rather than mis-scoring quietly.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Dict, Optional

from repro.backend.registry import (
    MERGED_BACKENDS,
    SKETCH_BACKENDS,
    EngineSpec,
    create_backend,
)
from repro.core.space_saving import SpaceSaving
from repro.obs.registry import MetricsRegistry
from repro.scenarios.audit import (
    AccuracyReport,
    score_accuracy,
    score_sketch_accuracy,
    selfcheck,
)
from repro.scenarios.registry import ScenarioParams, get_scenario
from repro.schedcheck.auditor import exact_counts

#: elements per ``ingest`` call while a scenario stream is counted
BATCH_ELEMENTS = 8192


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


def run_scenario(
    name: str,
    backend: str = EngineSpec.name,
    params: Optional[ScenarioParams] = None,
    k: int = 10,
    threads: int = EngineSpec.threads,
    workers: int = EngineSpec.workers,
    metrics: Optional[MetricsRegistry] = None,
) -> ScenarioRun:
    """Build, count and score one scenario on one registered backend.

    The engine comes from :func:`~repro.backend.create_backend`, eats
    the stream in :data:`BATCH_ELEMENTS` batches, and its final snapshot
    is rebuilt into a :class:`SpaceSaving` for scoring.  Sketch engines
    are scored on the one-sided Count-Min contract; merged engines skip
    the recall guarantee a truncating merge cannot keep.
    """
    selfcheck()
    scenario = get_scenario(name)
    params = params or ScenarioParams()
    stream = scenario.build(params)
    truth = exact_counts(stream)
    engine = create_backend(
        backend,
        capacity=params.capacity,
        threads=threads,
        workers=workers,
        metrics=metrics,
    )
    try:
        started = time.perf_counter()
        for index in range(0, len(stream), BATCH_ELEMENTS):
            engine.ingest(stream[index:index + BATCH_ELEMENTS])
        snap = engine.snapshot()
        wall = time.perf_counter() - started
    finally:
        engine.close()
    counter = SpaceSaving.from_entries(
        params.capacity, snap.entries, snap.processed
    )
    if backend in SKETCH_BACKENDS:
        report = score_sketch_accuracy(counter, truth, k=k)
    else:
        report = score_accuracy(
            counter, truth, k=k, merged=backend in MERGED_BACKENDS
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
