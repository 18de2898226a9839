"""The report comparator: deltas, regression gating, graceful degrading."""

import copy
import json

import pytest

from repro.errors import ConfigurationError
from repro.obs import MetricsRegistry, diff_reports


def bench_report(wall=1.0, throughput=1000.0, makespan=500.0):
    """A minimal bench-shaped report with one instrumented entry."""
    registry = MetricsRegistry()
    registry.counter("core.spacesaving.occurrences").inc(100)
    registry.gauge("sim.makespan_cycles").set(makespan)
    registry.histogram("mp.snapshot.seconds").observe(wall / 10)
    return {
        "suite": "core",
        "scale": "tiny",
        "results": [
            {
                "name": "entry-a",
                "wall_seconds": wall,
                "throughput_eps": throughput,
                "elements": 100,
                "metrics": registry.snapshot(),
            }
        ],
    }


# ----------------------------------------------------------------------
# gating
# ----------------------------------------------------------------------
def test_identical_reports_are_clean():
    report = bench_report()
    result = diff_reports(report, copy.deepcopy(report))
    assert result.ok and result.regressions == []
    assert any(line.metric == "wall_seconds" for line in result.lines)


def test_injected_2x_wall_regression_flags():
    result = diff_reports(bench_report(wall=1.0), bench_report(wall=2.0))
    assert not result.ok
    flagged = {line.metric for line in result.regressions}
    assert "wall_seconds" in flagged
    line = next(l for l in result.lines if l.metric == "wall_seconds")
    assert line.relative == pytest.approx(1.0)
    assert "REGRESSION" in result.render()


def test_gated_metric_spec_direction_applies():
    # sim.makespan_cycles declares worse="up" tolerance=0.25
    result = diff_reports(
        bench_report(makespan=1000.0), bench_report(makespan=2000.0)
    )
    assert any(
        line.metric == "sim.makespan_cycles" for line in result.regressions
    )
    # improvement never flags
    improved = diff_reports(
        bench_report(makespan=2000.0), bench_report(makespan=1000.0)
    )
    assert not any(
        line.metric == "sim.makespan_cycles" for line in improved.regressions
    )


def test_throughput_drop_flags_in_the_down_direction():
    result = diff_reports(
        bench_report(throughput=1000.0), bench_report(throughput=100.0)
    )
    assert any(line.metric == "throughput_eps" for line in result.regressions)


def test_tolerance_override_silences_the_gate():
    before, after = bench_report(wall=1.0), bench_report(wall=2.0)
    assert diff_reports(before, after, tolerance=5.0).ok
    assert not diff_reports(before, after, tolerance=0.01).ok


@pytest.mark.parametrize("after", [20_495_035, 29_075_521])
def test_sim_cycles_flag_any_move_either_way(after):
    # deterministic simulated cycles: a 29.5% drop (a one-cycle change
    # to a lock's spin quantum) and a single extra cycle both flag
    before = {"results": [{"name": "shared-spin", "sim_cycles": 29_075_520}]}
    moved = {"results": [{"name": "shared-spin", "sim_cycles": after}]}
    result = diff_reports(before, moved)
    assert [line.metric for line in result.regressions] == ["sim_cycles"]
    assert diff_reports(before, copy.deepcopy(before)).ok


def test_negative_tolerance_rejected():
    with pytest.raises(ConfigurationError, match="tolerance"):
        diff_reports(bench_report(), bench_report(), tolerance=-1.0)


def test_histogram_mean_gated_count_not():
    before, after = bench_report(), bench_report()
    # mp.snapshot.seconds has no gate; use a gated one synthetically via
    # counts exploding — counts must never flag regardless
    hist = after["results"][0]["metrics"]["histograms"]["mp.snapshot.seconds"]
    hist["count"] = 100
    hist["sum"] = hist["sum"] * 100
    result = diff_reports(before, after)
    count_line = next(
        l for l in result.lines if l.metric == "mp.snapshot.seconds.count"
    )
    assert not count_line.gated and not count_line.regression


def test_zero_baseline_never_flags():
    result = diff_reports(bench_report(wall=0.0), bench_report(wall=9.0))
    line = next(l for l in result.lines if l.metric == "wall_seconds")
    assert not line.regression and line.relative is None


# ----------------------------------------------------------------------
# graceful degrading
# ----------------------------------------------------------------------
def test_one_side_only_entries_become_notes():
    before = bench_report()
    after = copy.deepcopy(before)
    after["results"][0]["name"] = "entry-b"
    result = diff_reports(before, after)
    assert result.ok
    assert any("only in before" in note for note in result.notes)
    assert any("only in after" in note for note in result.notes)
    assert any("nothing compared" in note for note in result.notes)


def test_appeared_and_disappeared_metrics_are_noted_not_flagged():
    before, after = bench_report(), bench_report()
    del before["results"][0]["metrics"]["counters"][
        "core.spacesaving.occurrences"
    ]
    del after["results"][0]["metrics"]["gauges"]["sim.makespan_cycles"]
    result = diff_reports(before, after)
    assert result.ok
    notes = {line.metric: line.note for line in result.lines if line.note}
    assert notes["core.spacesaving.occurrences"] == "appeared"
    assert notes["sim.makespan_cycles"] == "disappeared"


def test_pre_metrics_reports_compare_scalars_only():
    """Old bench reports (no metrics blocks) must diff, never crash."""
    old = {
        "results": [
            {"name": "x", "wall_seconds": 1.0},
            {"name": "y"},
        ]
    }
    result = diff_reports(copy.deepcopy(old), copy.deepcopy(old))
    assert result.ok
    y_lines = [l for l in result.lines if l.entry == "y"]
    assert [l.metric for l in y_lines] == ["(metrics)"]
    assert y_lines[0].note == "no metrics on either side"


def test_entry_filter_and_unknown_entry():
    report = bench_report()
    result = diff_reports(report, copy.deepcopy(report), entry="entry-a")
    assert result.lines
    with pytest.raises(ConfigurationError, match="no common entry"):
        diff_reports(report, copy.deepcopy(report), entry="nope")


def test_to_json_round_trips_through_json():
    result = diff_reports(bench_report(wall=1.0), bench_report(wall=2.0))
    doc = json.loads(json.dumps(result.to_json()))
    assert doc["regressions"] == len(result.regressions)
    flagged = [line for line in doc["lines"] if line["regression"]]
    assert any(line["metric"] == "wall_seconds" for line in flagged)
