"""The metrics registry: counters, gauges and fixed-bucket histograms.

Design constraints (they shape every line here):

* **Cheap enough to leave enabled.**  A counter increment is one
  attribute access plus one integer add; there is no locking, no string
  formatting, no timestamping.  Instrumented hot paths are expected to
  *cache the bound metric object* (or even its ``inc`` method) outside
  the loop, so the steady-state cost is a single method call.
* **Zero-cost-ish when disabled.**  :class:`NullRegistry` hands out
  shared singleton no-op metrics, so an instrumented hot path pays one
  no-op call — never a conditional, never a dict lookup.
* **Deterministic snapshots.**  :meth:`MetricsRegistry.snapshot`
  returns plain sorted dicts (JSON-ready), so two runs performing the
  same operations produce byte-identical snapshots.
* **Observation only.**  Metrics never feed back into algorithm
  decisions; enabling them cannot change any scheme's counts (the
  differential tests in ``tests/obs`` pin this down).

The snapshot schema — shared by real (wall-clock) and simulated runs,
which is what makes them directly comparable::

    {
      "counters":   {name: int, ...},
      "gauges":     {name: float, ...},
      "histograms": {name: {"buckets": [...], "counts": [...],
                            "count": int, "sum": float}, ...},
    }

``histograms[name]["counts"]`` has one entry per bucket bound
(cumulative-style "value <= bound") plus a final overflow bucket.
"""

from __future__ import annotations

import bisect
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError

#: default histogram bounds: powers of two, good for queue depths/counts
DEFAULT_BUCKETS: Tuple[float, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256)

#: default bounds for latency histograms (seconds): 1-2-5 per decade
#: from 0.1 ms to 10 s, so a quantile lands within a factor of 2.5 of
#: the truth, also for the sub-millisecond visibility an idle flusher
#: gives small frames
TIME_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.0002, 0.0005, 0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1,
    0.2, 0.5, 1.0, 2.0, 5.0, 10.0,
)


class Counter:
    """A monotonically increasing integer metric."""

    __slots__ = ("value",)
    kind = "counter"

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (hot path: one attribute access + one add)."""
        self.value += amount


class Gauge:
    """A point-in-time numeric metric (last write wins)."""

    __slots__ = ("value",)
    kind = "gauge"

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        """Record the current value."""
        self.value = value


class Histogram:
    """A fixed-bucket distribution metric.

    ``bounds`` are inclusive upper bucket edges; one extra overflow
    bucket catches everything above the last bound.  Buckets are fixed
    at creation so ``observe`` is a bisect plus two adds — no
    allocation, ever.
    """

    __slots__ = ("bounds", "counts", "count", "sum")
    kind = "histogram"

    def __init__(self, bounds: Sequence[float]) -> None:
        if not bounds or list(bounds) != sorted(bounds):
            raise ConfigurationError(
                f"histogram bounds must be non-empty ascending, got {bounds!r}"
            )
        self.bounds: Tuple[float, ...] = tuple(bounds)
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        """Record one sample."""
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value

    @property
    def mean(self) -> float:
        """Arithmetic mean of the observed samples (0 when empty)."""
        return self.sum / self.count if self.count else 0.0


class MetricsRegistry:
    """Named metrics, get-or-create, one flat namespace.

    Names are dotted paths: ``<layer>.<subsystem>.<metric>`` (e.g.
    ``core.spacesaving.increments``); the full catalogue lives in
    :mod:`repro.obs.schema` and docs/observability.md.  Asking for an
    existing name with a different metric kind raises
    :class:`~repro.errors.ConfigurationError` — a name means one thing.
    """

    enabled = True

    def __init__(self) -> None:
        self._metrics: Dict[str, object] = {}

    # ------------------------------------------------------------------
    # Get-or-create accessors
    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        """Return (creating if needed) the counter ``name``."""
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        """Return (creating if needed) the gauge ``name``."""
        return self._get_or_create(name, Gauge)

    def histogram(
        self, name: str, buckets: Optional[Sequence[float]] = None
    ) -> Histogram:
        """Return (creating if needed) the histogram ``name``.

        ``buckets`` is honoured on first creation only; later calls
        return the existing histogram regardless.
        """
        metric = self._metrics.get(name)
        if metric is None:
            metric = Histogram(buckets if buckets is not None else DEFAULT_BUCKETS)
            self._metrics[name] = metric
        elif not isinstance(metric, Histogram):
            raise ConfigurationError(
                f"metric {name!r} already registered as a {metric.kind}"
            )
        return metric

    def _get_or_create(self, name: str, cls):
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls()
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise ConfigurationError(
                f"metric {name!r} already registered as a {metric.kind}"
            )
        return metric

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def names(self) -> List[str]:
        """Registered metric names, sorted."""
        return sorted(self._metrics)

    def snapshot(self) -> Dict[str, Dict]:
        """JSON-ready state of every metric (sorted, deterministic)."""
        counters: Dict[str, int] = {}
        gauges: Dict[str, float] = {}
        histograms: Dict[str, Dict] = {}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if isinstance(metric, Counter):
                counters[name] = metric.value
            elif isinstance(metric, Gauge):
                gauges[name] = metric.value
            else:
                histograms[name] = {
                    "buckets": list(metric.bounds),
                    "counts": list(metric.counts),
                    "count": metric.count,
                    "sum": metric.sum,
                }
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }


class _NullCounter(Counter):
    __slots__ = ()

    def inc(self, amount: int = 1) -> None:  # noqa: D102 - no-op
        pass


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:  # noqa: D102 - no-op
        pass


class _NullHistogram(Histogram):
    __slots__ = ()

    def __init__(self) -> None:
        super().__init__((1,))

    def observe(self, value: float) -> None:  # noqa: D102 - no-op
        pass


#: shared no-op metric singletons (stateless, safe to share everywhere)
NULL_COUNTER = _NullCounter()
NULL_GAUGE = _NullGauge()
NULL_HISTOGRAM = _NullHistogram()


class NullRegistry(MetricsRegistry):
    """The disabled registry: every accessor returns a shared no-op.

    Instrumented code binds metric objects once (usually in
    ``__init__``); with this registry those objects are the shared
    singletons above, so the hot-path cost of disabled metrics is a
    single no-op method call.  ``snapshot`` is always empty.
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__()

    def counter(self, name: str) -> Counter:
        return NULL_COUNTER

    def gauge(self, name: str) -> Gauge:
        return NULL_GAUGE

    def histogram(
        self, name: str, buckets: Optional[Sequence[float]] = None
    ) -> Histogram:
        return NULL_HISTOGRAM

    def snapshot(self) -> Dict[str, Dict]:
        return {"counters": {}, "gauges": {}, "histograms": {}}


#: the process-wide disabled registry; ``metrics=None`` everywhere means this
NULL_REGISTRY = NullRegistry()


def coerce(registry: Optional[MetricsRegistry]) -> MetricsRegistry:
    """Map ``None`` to the shared :data:`NULL_REGISTRY`."""
    return registry if registry is not None else NULL_REGISTRY


def empty_snapshot() -> Dict[str, Dict]:
    """A snapshot with no metrics (the shape every snapshot shares)."""
    return {"counters": {}, "gauges": {}, "histograms": {}}


def merge_snapshots(*snapshots: Dict[str, Dict]) -> Dict[str, Dict]:
    """Combine snapshots into one (sums counters, later gauges win).

    Histograms with identical buckets are summed; on a bucket mismatch
    the later snapshot wins (that only happens when two layers misuse
    one name, which the schema forbids).  Missing sections are treated
    as empty, so partial dicts are accepted.
    """
    merged = empty_snapshot()
    for snap in snapshots:
        if not snap:
            continue
        for name, value in snap.get("counters", {}).items():
            merged["counters"][name] = merged["counters"].get(name, 0) + value
        for name, value in snap.get("gauges", {}).items():
            merged["gauges"][name] = value
        for name, hist in snap.get("histograms", {}).items():
            existing = merged["histograms"].get(name)
            if (
                existing is not None
                and existing["buckets"] == hist["buckets"]
            ):
                existing["counts"] = [
                    a + b for a, b in zip(existing["counts"], hist["counts"])
                ]
                existing["count"] += hist["count"]
                existing["sum"] += hist["sum"]
            else:
                merged["histograms"][name] = {
                    "buckets": list(hist["buckets"]),
                    "counts": list(hist["counts"]),
                    "count": hist["count"],
                    "sum": hist["sum"],
                }
    # deterministic ordering regardless of input order
    merged["counters"] = dict(sorted(merged["counters"].items()))
    merged["gauges"] = dict(sorted(merged["gauges"].items()))
    merged["histograms"] = dict(sorted(merged["histograms"].items()))
    return merged
