"""Driver API for the multiprocess backend, mirroring the scheme drivers.

``run_mp(stream, MPConfig(...))`` is shaped like the simulated drivers
(:func:`repro.parallel.sequential.run_sequential` etc.): one call takes
a stream plus a config and returns a result object exposing ``counter``,
``seconds`` and ``throughput`` — except here the seconds are *host wall
clock* on real cores, not simulated cycles.  That symmetry is what lets
the bench/experiments/CLI layer treat "real processes" as just another
scheme.

:func:`summaries_equivalent` is the result-equivalence check the bench
suite and CI smoke rely on: both summaries bound the same true counts,
so for every top-k element of the reference the two uncertainty
intervals ``[count - error, count]`` must intersect (and an element the
reference *guarantees* frequent may only be absent from the candidate
if the candidate's own max-error bound allows it).
"""

from __future__ import annotations

import dataclasses
import time
from typing import Any, Dict, Hashable, Optional, Sequence

from repro.core.space_saving import SpaceSaving
from repro.mp.config import MPConfig
from repro.mp.pool import ShardedProcessPool


@dataclasses.dataclass
class MPResult:
    """Outcome of one multiprocess run (the wall-clock SchemeResult)."""

    scheme: str
    workers: int
    elements: int
    wall_seconds: float          #: count + merge, pool already started
    startup_seconds: float       #: process spawn/bootstrap cost
    counter: SpaceSaving         #: merged queryable summary
    extras: Dict[str, Any] = dataclasses.field(default_factory=dict)

    @property
    def seconds(self) -> float:
        """Wall-clock seconds of the counting+query phase."""
        return self.wall_seconds

    @property
    def throughput(self) -> float:
        """Stream elements per host second (counting + merge)."""
        return self.elements / self.wall_seconds if self.wall_seconds else 0.0


def run_mp(
    stream: Sequence[Hashable],
    config: Optional[MPConfig] = None,
    metrics=None,
    tracer=None,
) -> MPResult:
    """Count ``stream`` on a fresh sharded pool; return the merged result.

    The pool is started, fed, queried and always closed — also on error
    paths, so typed worker failures propagate without leaking processes.
    Startup (process spawn) is timed separately from counting+merge
    because the former is a fixed cost that amortizes over a long-lived
    pool while the latter is the paper's scaling quantity.

    ``metrics`` (a :class:`repro.obs.MetricsRegistry`) instruments the
    parent side: dispatch volume, per-worker routed items and items/sec,
    queue occupancy, and snapshot/merge latency; the snapshot rides on
    ``result.extras["metrics"]`` in the same schema simulated runs emit,
    so the two kinds of run are directly comparable.

    ``tracer`` (a :class:`repro.obs.tracing.Tracer`) additionally
    records a span timeline: dispatch/snapshot/merge on the parent's
    ``driver`` track plus per-batch worker spans re-based from the shard
    processes (``shard-<i>/worker`` tracks) — exportable with
    :func:`repro.obs.export.write_chrome_trace`.
    """
    config = config or MPConfig()
    started = time.perf_counter()
    pool = ShardedProcessPool(config, metrics=metrics, tracer=tracer)
    startup = time.perf_counter() - started
    extras = {
        "chunk_elements": config.chunk_elements,
        "capacity": config.capacity,
    }
    try:
        counting_started = time.perf_counter()
        elements = pool.count(stream)
        counter = pool.merged()
        wall = time.perf_counter() - counting_started
    finally:
        pool.close()
    if metrics is not None:
        for index, items in enumerate(pool.worker_items):
            metrics.gauge(f"mp.worker.{index}.items_per_sec").set(
                items / wall if wall else 0.0
            )
        extras["metrics"] = metrics.snapshot()
    return MPResult(
        scheme="mp-sharded",
        workers=config.workers,
        elements=elements,
        wall_seconds=wall,
        startup_seconds=startup,
        counter=counter,
        extras=extras,
    )


def summaries_equivalent(
    reference: SpaceSaving, candidate: SpaceSaving, k: int = 10
) -> bool:
    """Are two summaries consistent answers for the same stream?

    Space Saving guarantees ``count - error <= true <= count`` per
    monitored element, and the merge preserves both bounds (absence
    widening only grows ``error``).  Two correct summaries of the same
    stream therefore have intersecting ``[count - error, count]``
    intervals for every common element; and an element the reference
    guarantees frequent (``count - error > 0``) can be missing from the
    candidate only if the candidate's max-error bound covers its
    guaranteed count.  ``processed`` totals must match exactly.
    """
    if reference.processed != candidate.processed:
        return False
    for entry in reference.top_k(k):
        estimate = candidate.estimate(entry.element)
        if estimate == 0:
            if entry.count - entry.error > candidate.max_error():
                return False
            continue
        error = candidate.error(entry.element)
        if estimate < entry.count - entry.error:
            return False
        if entry.count < estimate - error:
            return False
    return True
