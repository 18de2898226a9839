"""Registry semantics: counters, gauges, histograms, null parity."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.obs import (
    DEFAULT_BUCKETS,
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
    NULL_REGISTRY,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    coerce,
    empty_snapshot,
    merge_snapshots,
)
from repro.obs.registry import TIME_BUCKETS


# ----------------------------------------------------------------------
# Counter / Gauge / Histogram semantics
# ----------------------------------------------------------------------
def test_counter_increments():
    registry = MetricsRegistry()
    counter = registry.counter("t.x.hits")
    counter.inc()
    counter.inc(5)
    assert counter.value == 6
    assert registry.snapshot()["counters"] == {"t.x.hits": 6}


def test_counter_get_or_create_returns_same_object():
    registry = MetricsRegistry()
    assert registry.counter("t.x.hits") is registry.counter("t.x.hits")


def test_gauge_last_write_wins():
    registry = MetricsRegistry()
    gauge = registry.gauge("t.x.level")
    gauge.set(3.5)
    gauge.set(1.25)
    assert registry.snapshot()["gauges"] == {"t.x.level": 1.25}


def test_histogram_buckets_samples_into_cells():
    registry = MetricsRegistry()
    hist = registry.histogram("t.x.depth", buckets=(1, 2, 4))
    for value in (0, 1, 2, 3, 4, 100):
        hist.observe(value)
    snap = registry.snapshot()["histograms"]["t.x.depth"]
    assert snap["buckets"] == [1, 2, 4]
    # <=1: {0, 1}; <=2: {2}; <=4: {3, 4}; overflow: {100}
    assert snap["counts"] == [2, 1, 2, 1]
    assert snap["count"] == 6
    assert snap["sum"] == 110.0
    assert hist.mean == pytest.approx(110 / 6)


def test_histogram_default_buckets():
    registry = MetricsRegistry()
    hist = registry.histogram("t.x.depth")
    assert hist.bounds == DEFAULT_BUCKETS


def test_freshness_buckets_resolve_sub_millisecond_visibility():
    # an idle flusher makes frames visible in well under 1 ms: a 0.3 ms
    # sample must land in the 0.5 ms bucket, not the first one
    hist = Histogram(TIME_BUCKETS)
    hist.observe(0.0003)
    assert TIME_BUCKETS[:3] == (0.0001, 0.0002, 0.0005)
    assert hist.counts[TIME_BUCKETS.index(0.0005)] == 1
    assert hist.counts[0] == 0


def test_histogram_rejects_unsorted_or_empty_bounds():
    with pytest.raises(ConfigurationError):
        Histogram(())
    with pytest.raises(ConfigurationError):
        Histogram((4, 2, 1))


def test_histogram_empty_mean_is_zero():
    assert Histogram((1,)).mean == 0.0


def test_kind_conflict_raises():
    registry = MetricsRegistry()
    registry.counter("t.x.thing")
    with pytest.raises(ConfigurationError):
        registry.gauge("t.x.thing")
    with pytest.raises(ConfigurationError):
        registry.histogram("t.x.thing")
    registry.histogram("t.x.hist")
    with pytest.raises(ConfigurationError):
        registry.counter("t.x.hist")


def test_registry_introspection():
    registry = MetricsRegistry()
    registry.counter("b.second")
    registry.gauge("a.first")
    assert len(registry) == 2
    assert "a.first" in registry
    assert "missing" not in registry
    assert registry.names() == ["a.first", "b.second"]


# ----------------------------------------------------------------------
# Snapshot determinism
# ----------------------------------------------------------------------
def test_snapshot_deterministic_across_creation_order():
    def build(names):
        registry = MetricsRegistry()
        for name in names:
            registry.counter(name).inc(len(name))
        return registry.snapshot()

    names = ["z.last", "a.first", "m.middle"]
    first = build(names)
    second = build(list(reversed(names)))
    assert first == second
    assert json.dumps(first, sort_keys=False) == json.dumps(
        second, sort_keys=False
    )
    assert list(first["counters"]) == sorted(names)


def test_snapshot_is_json_ready():
    registry = MetricsRegistry()
    registry.counter("t.c").inc(3)
    registry.gauge("t.g").set(0.5)
    registry.histogram("t.h", buckets=(1, 2)).observe(1)
    snap = registry.snapshot()
    assert json.loads(json.dumps(snap)) == snap


def test_empty_snapshot_shape():
    assert MetricsRegistry().snapshot() == empty_snapshot()
    assert empty_snapshot() == {
        "counters": {},
        "gauges": {},
        "histograms": {},
    }


# ----------------------------------------------------------------------
# NullRegistry: no-op parity
# ----------------------------------------------------------------------
def test_null_registry_returns_shared_singletons():
    registry = NullRegistry()
    assert registry.counter("anything") is NULL_COUNTER
    assert registry.gauge("anything") is NULL_GAUGE
    assert registry.histogram("anything", buckets=(1, 2)) is NULL_HISTOGRAM


def test_null_metrics_record_nothing():
    NULL_COUNTER.inc(10)
    NULL_GAUGE.set(42.0)
    NULL_HISTOGRAM.observe(7)
    assert NULL_COUNTER.value == 0
    assert NULL_GAUGE.value == 0.0
    assert NULL_HISTOGRAM.count == 0
    assert NULL_REGISTRY.snapshot() == empty_snapshot()


def test_null_registry_api_parity_with_real_registry():
    # Every public accessor works identically; only the recording differs.
    real, null = MetricsRegistry(), NullRegistry()
    for registry in (real, null):
        registry.counter("t.c").inc()
        registry.gauge("t.g").set(1.0)
        registry.histogram("t.h").observe(1)
        assert set(registry.snapshot()) == {
            "counters", "gauges", "histograms",
        }
    assert real.enabled and not null.enabled


def test_coerce():
    registry = MetricsRegistry()
    assert coerce(registry) is registry
    assert coerce(None) is NULL_REGISTRY


# ----------------------------------------------------------------------
# merge_snapshots
# ----------------------------------------------------------------------
def _snap(counters=None, gauges=None, histograms=None):
    return {
        "counters": counters or {},
        "gauges": gauges or {},
        "histograms": histograms or {},
    }


def test_merge_sums_counters_and_overwrites_gauges():
    merged = merge_snapshots(
        _snap(counters={"a": 1, "b": 2}, gauges={"g": 1.0}),
        _snap(counters={"b": 3, "c": 4}, gauges={"g": 9.0}),
    )
    assert merged["counters"] == {"a": 1, "b": 5, "c": 4}
    assert merged["gauges"] == {"g": 9.0}


def test_merge_sums_matching_histograms():
    hist = {"buckets": [1, 2], "counts": [1, 0, 2], "count": 3, "sum": 7.0}
    merged = merge_snapshots(
        _snap(histograms={"h": hist}), _snap(histograms={"h": dict(hist)})
    )
    assert merged["histograms"]["h"] == {
        "buckets": [1, 2],
        "counts": [2, 0, 4],
        "count": 6,
        "sum": 14.0,
    }


def test_merge_accepts_empty_and_partial_inputs():
    assert merge_snapshots() == empty_snapshot()
    assert merge_snapshots({}, {"counters": {"a": 1}}) == _snap(
        counters={"a": 1}
    )


def test_merge_output_is_sorted():
    merged = merge_snapshots(_snap(counters={"z": 1}), _snap(counters={"a": 1}))
    assert list(merged["counters"]) == ["a", "z"]
