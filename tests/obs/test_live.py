"""The rolling-window delta math behind the live telemetry plane.

These pin the properties the serve watchdog depends on: counter resets
read as fresh increase (never negative), a counter first incremented
mid-window contributes its full rise, histogram quantiles interpolate
inside the right bucket, per-worker beacon snapshots merge into one
registry-shaped view, and the watchdog emits exactly one event per
firing/resolved transition.
"""

import bisect
import random

import pytest

from repro.errors import ConfigurationError
from repro.mp.worker import beacon_snapshot
from repro.obs.live import (
    ALERT_RULES,
    RollingWindow,
    Watchdog,
    counter_increase,
    histogram_increase,
    histogram_quantile,
    prometheus_series,
    render_prometheus,
)
from repro.obs.registry import TIME_BUCKETS, Histogram, merge_snapshots


def _snap(counters=None, gauges=None, histograms=None):
    return {
        "counters": counters or {},
        "gauges": gauges or {},
        "histograms": histograms or {},
    }


# ----------------------------------------------------------------------
# counter_increase: Prometheus increase() semantics
# ----------------------------------------------------------------------
def test_counter_increase_monotone_series():
    assert counter_increase([0, 3, 10, 10, 12]) == 12.0


def test_counter_increase_reset_counts_new_value_as_fresh():
    # 0 -> 50, restart (reads 7), 7 -> 9: increase is 50 + 7 + 2
    assert counter_increase([0, 50, 7, 9]) == 59.0


def test_counter_increase_degenerate():
    assert counter_increase([]) == 0.0
    assert counter_increase([42]) == 0.0


# ----------------------------------------------------------------------
# histogram_increase: resets are detected on the whole histogram
# ----------------------------------------------------------------------
def test_histogram_increase_delta():
    older = {"buckets": [1.0, 2.0], "counts": [1, 0, 0], "count": 1,
             "sum": 0.5}
    newer = {"buckets": [1.0, 2.0], "counts": [3, 2, 1], "count": 6,
             "sum": 7.5}
    delta = histogram_increase(older, newer)
    assert delta["counts"] == [2, 2, 1]
    assert delta["count"] == 5
    assert delta["sum"] == pytest.approx(7.0)


def test_histogram_increase_reset_returns_newer_as_is():
    older = {"buckets": [1.0], "counts": [5, 0], "count": 5, "sum": 2.0}
    newer = {"buckets": [1.0], "counts": [2, 0], "count": 2, "sum": 0.5}
    delta = histogram_increase(older, newer)
    assert delta["counts"] == [2, 0]
    assert delta["count"] == 2


# ----------------------------------------------------------------------
# histogram_quantile: interpolation and edge cases
# ----------------------------------------------------------------------
def test_quantile_interpolates_linearly_within_bucket():
    # 10 observations all in (1.0, 2.0]: p50 sits mid-bucket
    value = histogram_quantile(0.5, (1.0, 2.0), [0, 10, 0])
    assert value == pytest.approx(1.5)


def test_quantile_first_bucket_lower_edge_is_zero():
    value = histogram_quantile(0.5, (2.0, 4.0), [10, 0, 0])
    assert value == pytest.approx(1.0)


def test_quantile_overflow_clamps_to_highest_bound():
    assert histogram_quantile(0.99, (1.0, 2.0), [0, 0, 5]) == 2.0


def test_quantile_empty_returns_none():
    assert histogram_quantile(0.5, (1.0,), [0, 0]) is None


def test_quantile_across_buckets():
    # 4 below 1.0, 4 in (1.0, 2.0]: p75 is the midpoint of bucket two
    value = histogram_quantile(0.75, (1.0, 2.0), [4, 4, 0])
    assert value == pytest.approx(1.5)


def test_quantile_validates_shape():
    with pytest.raises(ConfigurationError):
        histogram_quantile(0.5, (1.0, 2.0), [1, 2])   # missing overflow


def _exact_quantile(samples, q):
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, round(q * (len(ordered) - 1)))]


_SPREAD = random.Random(42)


@pytest.mark.parametrize("samples", [
    # everything in the (0.002, 0.005] bucket
    [0.0021 + 0.00005 * i for i in range(50)],
    # uniform over 0.2 ms - 0.2 s (seed 42)
    [_SPREAD.uniform(0.0002, 0.2) for _ in range(500)],
    # beyond the highest bound: the estimate clamps to it
    [TIME_BUCKETS[-1] * 3] * 20,
    [],
], ids=["single-bucket", "uniform-spread", "beyond-last-bound", "empty"])
def test_time_bucket_quantiles_within_one_bucket_of_exact(samples):
    # the same samples two ways: exact order statistics and the bucketed
    # estimator every live consumer sees.  The estimator interpolates
    # inside a bucket, so landing further apart means the quantile math
    # (not the bucketing) is wrong.
    hist = Histogram(TIME_BUCKETS)
    for value in samples:
        hist.observe(value)
    for q in (0.50, 0.99):
        derived = histogram_quantile(q, hist.bounds, hist.counts)
        if not samples:
            assert derived is None
            continue
        exact = _exact_quantile(samples, q)
        assert abs(bisect.bisect_left(TIME_BUCKETS, exact)
                   - bisect.bisect_left(TIME_BUCKETS, derived)) <= 1, (
            q, exact, derived)
        if exact > TIME_BUCKETS[-1]:
            assert derived == TIME_BUCKETS[-1]


# ----------------------------------------------------------------------
# RollingWindow: sampling, windows, missing counters
# ----------------------------------------------------------------------
def test_empty_window_yields_zero_everything():
    window = RollingWindow()
    assert window.increase("x") == 0.0
    assert window.rate("x") == 0.0
    assert window.gauge("x") is None
    assert window.quantile("x", 0.5) is None
    summary = window.summary()
    assert summary["samples"] == 0
    assert summary["rates"] == {}


def test_single_sample_window_has_no_increase():
    window = RollingWindow()
    window.sample(_snap(counters={"x": 100}), at=10.0)
    assert window.increase("x") == 0.0
    assert window.rate("x") == 0.0


def test_counter_appearing_mid_window_counts_from_zero():
    # registry counters are born at 0: a name absent from earlier
    # samples must contribute its full rise, or a failure counter that
    # first increments mid-window could never alert
    window = RollingWindow()
    window.sample(_snap(), at=0.0)
    window.sample(_snap(), at=1.0)
    window.sample(_snap(counters={"fails": 3}), at=2.0)
    assert window.increase("fails") == 3.0
    assert window.rate("fails") == pytest.approx(1.5)


def test_window_keeps_baseline_sample_at_edge():
    window = RollingWindow()
    window.sample(_snap(counters={"x": 0}), at=0.0)
    window.sample(_snap(counters={"x": 10}), at=5.0)
    window.sample(_snap(counters={"x": 30}), at=10.0)
    # a 5-second window from t=10 includes the t=5 sample as baseline
    assert window.increase("x", window=5.0) == 20.0
    # a wider window reaches the t=0 baseline
    assert window.increase("x", window=20.0) == 30.0


def test_window_reset_safe_increase():
    window = RollingWindow()
    window.sample(_snap(counters={"x": 90}), at=0.0)
    window.sample(_snap(counters={"x": 5}), at=1.0)   # process restarted
    assert window.increase("x") == 5.0


def test_samples_must_be_time_ordered():
    window = RollingWindow()
    window.sample(_snap(), at=5.0)
    with pytest.raises(ConfigurationError):
        window.sample(_snap(), at=4.0)


def test_ring_buffer_caps_samples():
    window = RollingWindow(max_samples=3)
    for i in range(10):
        window.sample(_snap(counters={"x": i}), at=float(i))
    assert len(window.samples()) == 3
    assert window.increase("x") == 2.0    # only the last 3 samples


def test_summary_shape():
    window = RollingWindow()
    hist = {"buckets": list(TIME_BUCKETS),
            "counts": [0] * (len(TIME_BUCKETS) + 1), "count": 0, "sum": 0.0}
    hist2 = dict(hist, counts=[5] + [0] * len(TIME_BUCKETS), count=5,
                 sum=0.0002)
    window.sample(_snap(counters={"c": 0}, gauges={"g": 1.0},
                        histograms={"h": hist}), at=0.0)
    window.sample(_snap(counters={"c": 10}, gauges={"g": 3.0},
                        histograms={"h": hist2}), at=2.0)
    summary = window.summary()
    assert summary["samples"] == 2
    assert summary["rates"]["c"] == pytest.approx(5.0)
    assert summary["increases"]["c"] == 10.0
    assert summary["gauges"]["g"]["last"] == 3.0
    assert summary["gauges"]["g"]["delta"] == pytest.approx(2.0)
    q = summary["quantiles"]["h"]
    assert q["count"] == 5
    assert q["p50"] is not None and q["p99"] is not None


# ----------------------------------------------------------------------
# merge_snapshots over per-worker beacon snapshots
# ----------------------------------------------------------------------
def test_beacon_snapshots_merge_into_one_view():
    b0 = beacon_snapshot(0, processed=100, batches=4, ring_busy=1)
    b1 = beacon_snapshot(1, processed=250, batches=9, ring_busy=0)
    merged = merge_snapshots(b0, b1)
    assert merged["counters"]["mp.beacon.0.processed"] == 100
    assert merged["counters"]["mp.beacon.1.processed"] == 250
    assert merged["counters"]["mp.beacon.1.batches"] == 9
    assert merged["gauges"]["mp.beacon.0.ring_busy"] == 1.0
    assert merged["gauges"]["mp.beacon.1.ring_busy"] == 0.0


def test_beacon_refresh_latest_wins_via_merge():
    # the pool folds the *latest* beacon per worker; merging a stale and
    # a fresh snapshot of the same worker must not double-count gauges
    old = beacon_snapshot(0, processed=100, batches=4, ring_busy=2)
    new = beacon_snapshot(0, processed=180, batches=7, ring_busy=0)
    merged = merge_snapshots(_snap(), new)
    assert merged["gauges"]["mp.beacon.0.ring_busy"] == 0.0
    assert old["gauges"]["mp.beacon.0.ring_busy"] == 2.0


# ----------------------------------------------------------------------
# Prometheus exposition
# ----------------------------------------------------------------------
def test_prometheus_series_mapping():
    # prometheus_series maps to the family base; render_prometheus adds
    # the _total suffix for counters
    family, labels, spec = prometheus_series("serve.ingest.events")
    assert family == "repro_serve_ingest_events"
    assert labels == {}
    assert spec is not None and spec.kind == "counter"
    family, labels, _ = prometheus_series("mp.beacon.3.processed")
    assert family == "repro_mp_beacon_processed"
    assert labels == {"index": "3"}


def test_render_prometheus_counters_gauges_histograms():
    hist = {"buckets": [0.1, 1.0],
            "counts": [2, 1, 1], "count": 4, "sum": 1.85}
    text = render_prometheus(_snap(
        counters={"serve.ingest.events": 7},
        gauges={"serve.queue.depth": 3.5},
        histograms={"serve.query.seconds": hist},
    ))
    lines = text.splitlines()
    assert "# TYPE repro_serve_ingest_events_total counter" in lines
    assert "repro_serve_ingest_events_total 7" in lines
    assert "repro_serve_queue_depth 3.5" in lines
    # buckets are cumulative and end at +Inf == _count
    assert 'repro_serve_query_seconds_bucket{le="0.1"} 2' in lines
    assert 'repro_serve_query_seconds_bucket{le="1"} 3' in lines
    assert 'repro_serve_query_seconds_bucket{le="+Inf"} 4' in lines
    assert "repro_serve_query_seconds_count 4" in lines
    assert "repro_serve_query_seconds_sum 1.85" in lines
    assert text.endswith("\n")


def test_render_prometheus_labels_per_worker():
    text = render_prometheus(_snap(
        counters={"mp.beacon.0.processed": 10, "mp.beacon.1.processed": 20},
    ))
    assert 'repro_mp_beacon_processed_total{index="0"} 10' in text
    assert 'repro_mp_beacon_processed_total{index="1"} 20' in text
    # one TYPE line for the shared family, not one per series
    assert text.count("# TYPE repro_mp_beacon_processed_total") == 1


# ----------------------------------------------------------------------
# Watchdog: transitions only, threshold overrides
# ----------------------------------------------------------------------
def _failure_window(count):
    window = RollingWindow()
    window.sample(_snap(counters={"serve.batch.flush_failures": 0}), at=0.0)
    window.sample(_snap(counters={"serve.batch.flush_failures": count}),
                  at=1.0)
    return window


def test_watchdog_fires_and_resolves_once_each():
    watch = Watchdog()
    window = _failure_window(3)
    events = watch.evaluate(window, now=100.0)
    fired = [e for e in events if e["state"] == "firing"]
    assert [e["alert"] for e in fired] == ["serve-flush-failures"]
    assert fired[0]["value"] == 3.0 and fired[0]["at"] == 100.0
    # still firing: no repeat event
    assert watch.evaluate(window, now=101.0) == []
    assert watch.firing() == ["serve-flush-failures"]
    # failures age out of the window: one resolved event
    window.sample(_snap(counters={"serve.batch.flush_failures": 3}),
                  at=100.0)
    window.sample(_snap(counters={"serve.batch.flush_failures": 3}),
                  at=101.0)
    events = watch.evaluate(window, now=102.0)
    assert [(e["alert"], e["state"]) for e in events] == [
        ("serve-flush-failures", "resolved")
    ]
    assert watch.firing() == []


def test_watchdog_quiet_on_clean_window():
    watch = Watchdog()
    window = _failure_window(0)
    assert watch.evaluate(window, now=1.0) == []
    assert watch.firing() == []


def test_watchdog_threshold_override():
    watch = Watchdog(thresholds={"serve-flush-failures": 10.0})
    assert watch.evaluate(_failure_window(3), now=1.0) == []
    events = watch.evaluate(_failure_window(11), now=2.0)
    assert [e["alert"] for e in events] == ["serve-flush-failures"]


def test_watchdog_rejects_unknown_override():
    with pytest.raises(ConfigurationError):
        Watchdog(thresholds={"no-such-rule": 1.0})


def test_alert_rules_catalogued():
    names = [rule.name for rule in ALERT_RULES]
    assert len(names) == len(set(names))
    assert "serve-flush-failures" in names
    assert "serve-staleness" in names
    assert "serve-accuracy-drift" in names
