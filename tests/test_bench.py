"""Smoke tests for the pinned benchmark harness."""

import json

import pytest

from repro import bench
from repro.errors import ConfigurationError

#: a micro scale so the suite runs in seconds under pytest
_MICRO = {
    "hot_length": 3_000,
    "sim_length": 600,
    "alphabet": 300,
    "capacity": 32,
    "threads": 4,
    "alpha": 2.0,
    "seed": 7,
    "repeats": 1,
}


#: a micro mp scale: 2 workers, small stream, single repeat
_MICRO_MP = {
    "mp_length": 4_000,
    "alphabet": 500,
    "capacity": 64,
    "chunk_elements": 512,
    "workers": [1, 2],
    "alpha": 1.1,
    "seed": 7,
    "repeats": 1,
    "timeout": 60.0,
}


#: a micro scenario scale: one short stream per scenario, 2 workers
_MICRO_SCENARIOS = {
    "length": 1_200,
    "alphabet": 200,
    "capacity": 32,
    "k": 8,
    "threads": 2,
    "workers": 2,
    "seed": 7,
}


#: a micro sketch scale: short stream, small table, 2 workers max
_MICRO_SKETCH = {
    "length": 4_000,
    "alphabet": 400,
    "alpha": 1.1,
    "capacity": 48,
    "chunk_elements": 512,
    "workers": [1, 2],
    "epsilon": 0.01,
    "delta": 0.05,
    "sketch_seed": 13,
    "seed": 7,
    "repeats": 1,
    "timeout": 60.0,
}


@pytest.fixture
def micro_scale(monkeypatch):
    monkeypatch.setitem(bench.SCALES, "tiny", _MICRO)


@pytest.fixture
def micro_mp_scale(monkeypatch):
    monkeypatch.setitem(bench.MP_SCALES, "tiny", _MICRO_MP)


@pytest.fixture
def micro_scenario_scale(monkeypatch):
    monkeypatch.setitem(bench.SCENARIO_SCALES, "tiny", _MICRO_SCENARIOS)


@pytest.fixture
def micro_sketch_scale(monkeypatch):
    monkeypatch.setitem(bench.SKETCH_SCALES, "tiny", _MICRO_SKETCH)


def test_run_suite_rejects_unknown_scale():
    with pytest.raises(ConfigurationError):
        bench.run_suite("huge")


def test_run_suite_rejects_unknown_suite():
    with pytest.raises(ConfigurationError):
        bench.run_suite("tiny", suite="gpu")


def test_suite_report_shape_and_results(micro_scale, tmp_path):
    report = bench.run_suite("tiny")
    assert report["schema_version"] == bench.SCHEMA_VERSION
    assert report["suite"] == "core"
    assert report["scale"] == "tiny"
    names = [entry["name"] for entry in report["results"]]
    assert names == [
        "sequential-hot-path-per-element",
        "sequential-hot-path-batched",
        "sequential",
        "sequential-batched",
        "shared-mutex",
        "shared-spin",
        "independent-serial",
        "hybrid",
        "cots",
        "cots-preagg",
    ]
    batched = report["results"][1]
    assert batched["identical_results"] is True
    assert batched["speedup_vs_per_element"] > 0
    for entry in report["results"]:
        assert entry["wall_seconds"] > 0
        assert entry["peak_rss_kb"] > 0
        if entry["kind"] == "simulated":
            assert entry["sim_cycles"] > 0
            assert entry["sim_throughput_eps"] > 0
            assert entry["wall_throughput_eps"] > 0

    out = tmp_path / "BENCH_core.json"
    bench.write_report(report, out)
    parsed = json.loads(out.read_text())
    assert parsed["results"][0]["name"] == "sequential-hot-path-per-element"

    text = bench.format_report(report)
    assert "sequential-hot-path-batched" in text
    assert "cots-preagg" in text


def test_core_suite_entries_embed_metrics(micro_scale):
    report = bench.run_suite("tiny")
    for entry in report["results"]:
        snap = entry["metrics"]
        assert set(snap) == {"counters", "gauges", "histograms"}
        assert snap["counters"] or snap["gauges"] or snap["histograms"]
    by_name = {entry["name"]: entry["metrics"] for entry in report["results"]}
    # the hot-path and sequential entries carry the Space Saving op mix,
    # with real traffic on the increment and overwrite counters
    for name in (
        "sequential-hot-path-per-element",
        "sequential-hot-path-batched",
        "sequential",
        "sequential-batched",
    ):
        counters = by_name[name]["counters"]
        assert counters["core.spacesaving.increments"] > 0
    # the hot-path stream overflows its capacity, so evictions must show
    for name in (
        "sequential-hot-path-per-element",
        "sequential-hot-path-batched",
    ):
        assert by_name[name]["counters"]["core.spacesaving.overwrites"] > 0
    # both hot-path lanes agree on the semantic (lane-independent) ops
    per_element = by_name["sequential-hot-path-per-element"]["counters"]
    batched = by_name["sequential-hot-path-batched"]["counters"]
    for key in (
        "core.spacesaving.occurrences",
        "core.spacesaving.inserts",
        "core.spacesaving.overwrites",
    ):
        assert per_element[key] == batched[key]
    # simulated entries carry the simulator accounts; CoTS adds protocol
    for name in ("cots", "cots-preagg"):
        snap = by_name[name]
        assert snap["gauges"]["sim.makespan_cycles"] > 0
        assert snap["counters"]["cots.stats.delegations"] >= 0
        assert any(
            key.startswith("sim.busy_cycles.") for key in snap["counters"]
        )


def test_report_command_reads_bench_output(micro_scale, tmp_path, capsys):
    from repro.cli import main

    out = tmp_path / "BENCH_core.json"
    bench.write_report(bench.run_suite("tiny"), out)
    assert main(["report", str(out), "--entry", "hot-path"]) == 0
    text = capsys.readouterr().out
    assert "core.spacesaving.increments" in text
    assert main(["report", str(out), "--json"]) == 0
    machine = json.loads(capsys.readouterr().out)
    original = json.loads(out.read_text())
    assert [e["metrics"] for e in machine["entries"]] == [
        e["metrics"] for e in original["results"]
    ]


def test_cli_bench_writes_report(micro_scale, tmp_path, capsys):
    from repro.cli import main

    out = tmp_path / "bench.json"
    assert main(["bench", "--scale", "tiny", "--output", str(out)]) == 0
    parsed = json.loads(out.read_text())
    assert parsed["suite"] == "core"
    captured = capsys.readouterr()
    assert "wrote" in captured.out


def test_mp_suite_report_shape(micro_mp_scale):
    report = bench.run_suite("tiny", suite="mp")
    assert report["suite"] == "mp"
    assert report["host_cores"] >= 1
    names = [entry["name"] for entry in report["results"]]
    assert names == [
        "mp-sequential-batched",
        "mp-sharded-1w",
        "mp-sharded-2w",
    ]
    baseline = report["results"][0]
    assert baseline["kind"] == "wallclock"
    assert baseline["peak_rss_kb"] > 0
    for entry in report["results"][1:]:
        assert entry["kind"] == "mp"
        assert entry["workers"] in (1, 2)
        assert entry["wall_seconds"] > 0
        assert entry["startup_seconds"] > 0
        assert entry["speedup_vs_sequential"] > 0
        assert entry["equivalent"] is True
        assert entry["peak_rss_kb"] > 0

    text = bench.format_report(report)
    assert "mp-sharded-2w" in text
    assert "host_cores" in text
    assert "equivalent=True" in text


def test_mp_suite_entries_embed_metrics(micro_mp_scale):
    report = bench.run_suite("tiny", suite="mp")
    by_name = {entry["name"]: entry["metrics"] for entry in report["results"]}
    baseline = by_name["mp-sequential-batched"]["counters"]
    assert baseline["core.spacesaving.increments"] > 0
    assert baseline["core.spacesaving.occurrences"] == _MICRO_MP["mp_length"]
    for workers in (1, 2):
        snap = by_name[f"mp-sharded-{workers}w"]
        counters = snap["counters"]
        assert counters["mp.dispatched.items"] == _MICRO_MP["mp_length"]
        assert counters["mp.dispatched.batches"] > 0
        assert snap["histograms"]["mp.merge.seconds"]["count"] == 1
        assert any(
            name.endswith(".items_per_sec") for name in snap["gauges"]
        )


def test_scenario_suite_report_shape(micro_scenario_scale):
    from repro.backend import BACKEND_NAMES
    from repro.scenarios import SCENARIOS

    report = bench.run_suite("tiny", suite="scenarios")
    assert report["suite"] == "scenarios"
    assert report["schema_version"] == bench.SCHEMA_VERSION
    expected = [
        f"{name}-{backend}"
        for name in SCENARIOS
        for backend in BACKEND_NAMES
    ]
    assert [e["name"] for e in report["results"]] == expected
    assert len({e["scenario"] for e in report["results"]}) >= 5
    assert len({e["backend"] for e in report["results"]}) >= 3
    for entry in report["results"]:
        assert entry["kind"] == "scenario"
        assert entry["elements"] == _MICRO_SCENARIOS["length"]
        assert entry["k"] == _MICRO_SCENARIOS["k"]
        assert 0.0 <= entry["recall_at_k"] <= 1.0
        assert entry["max_overestimate"] <= entry["error_bound"] + 1e-9
        assert entry["guarantee_violations"] == 0
        assert entry["bound_excess"] == 0.0
        assert entry["wall_seconds"] > 0
        assert entry["throughput_eps"] > 0
        assert entry["metrics"]["gauges"][
            "scenario.accuracy.recall_at_k"
        ] == entry["recall_at_k"]

    text = bench.format_report(report)
    assert "eviction-poison-sequential" in text
    assert f"recall@{_MICRO_SCENARIOS['k']}=" in text


def test_scenario_smoke_scale_is_registered():
    # the CI lane runs --scale smoke; it must resolve for all suites
    for scales in (bench.SCALES, bench.MP_SCALES, bench.SCENARIO_SCALES,
                   bench.SKETCH_SCALES):
        assert "smoke" in scales


def test_sketch_suite_report_shape(micro_sketch_scale):
    report = bench.run_suite("tiny", suite="sketch")
    assert report["suite"] == "sketch"
    assert report["host_cores"] >= 1
    names = [entry["name"] for entry in report["results"]]
    assert names == [
        "sketch-cm-scalar-per-element",
        "sketch-cm-scalar-preagg",
        "sketch-cm-vectorized",
        "sketch-one-table-w1",
        "sketch-one-table-w2",
    ]
    by_name = {entry["name"]: entry for entry in report["results"]}
    for lane in ("sketch-cm-scalar-preagg", "sketch-cm-vectorized"):
        entry = by_name[lane]
        assert entry["kind"] == "wallclock"
        assert entry["identical_results"] is True
        assert entry["speedup_vs_per_element"] > 0
    for entry in report["results"]:
        assert entry["wall_seconds"] > 0
        assert entry["peak_rss_kb"] > 0
    rungs = [e for e in report["results"] if e["kind"] == "sketch-mp"]
    assert [e["workers"] for e in rungs] == [1, 2]
    for rung in rungs:
        assert rung["bound_compliant"] is True
        assert rung["max_underestimate"] == 0
        assert rung["snapshot_seconds"] > 0
        assert rung["peek_seconds"] > 0
        assert rung["sharded_merge_seconds"] > 0
        assert rung["snapshot_ratio_vs_sharded"] > 0
        assert rung["max_band_bound"] >= 0
        counters = rung["metrics"]["counters"]
        assert counters["sketch.updates"] > 0
        # one shared table: w-1 private tables never shipped or folded
        if rung["workers"] > 1:
            assert counters["backend.merge_avoided.bytes"] > 0

    text = bench.format_report(report)
    assert "sketch-one-table-w2" in text
    assert "bound_compliant=True" in text


def test_sketch_vectorized_entry_embeds_sketch_metrics(micro_sketch_scale):
    report = bench.run_suite("tiny", suite="sketch")
    by_name = {e["name"]: e["metrics"] for e in report["results"]}
    snap = by_name["sketch-cm-vectorized"]
    # updates are pre-aggregated: distinct keys per batch, not occurrences
    assert 0 < snap["counters"]["sketch.updates"] <= _MICRO_SKETCH["length"]
    assert snap["counters"]["backend.ingest.items"] == _MICRO_SKETCH["length"]
    assert 0.0 < snap["gauges"]["sketch.table.occupancy"] <= 1.0


def test_cli_bench_scenarios_default_output(
    micro_scenario_scale, tmp_path, capsys, monkeypatch
):
    from repro.cli import main

    monkeypatch.chdir(tmp_path)
    assert main(["bench", "--suite", "scenarios", "--scale", "tiny"]) == 0
    parsed = json.loads((tmp_path / "BENCH_scenarios.json").read_text())
    assert parsed["suite"] == "scenarios"
    assert all(
        entry["guarantee_violations"] == 0 for entry in parsed["results"]
    )
    captured = capsys.readouterr()
    assert "BENCH_scenarios.json" in captured.out


def test_cli_bench_mp_suite_default_output(micro_mp_scale, tmp_path, capsys, monkeypatch):
    from repro.cli import main

    monkeypatch.chdir(tmp_path)
    assert main(["bench", "--suite", "mp", "--scale", "tiny"]) == 0
    parsed = json.loads((tmp_path / "BENCH_mp.json").read_text())
    assert parsed["suite"] == "mp"
    assert all(
        entry["equivalent"]
        for entry in parsed["results"]
        if entry["kind"] == "mp"
    )
    captured = capsys.readouterr()
    assert "BENCH_mp.json" in captured.out
