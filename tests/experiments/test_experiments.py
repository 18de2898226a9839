"""Tests for the experiment drivers, config and reporting (tiny scale)."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments import (
    ALL_EXPERIMENTS,
    CLAIMS,
    ExperimentScale,
    StreamCache,
    format_series,
    format_table,
    run_all,
)
from repro.experiments.runner import ExperimentResult


@pytest.fixture(scope="module")
def tiny():
    return ExperimentScale.tiny()


@pytest.fixture(scope="module")
def tiny_results(tiny):
    """Every experiment regenerated once at tiny scale."""
    return run_all(tiny)


def test_scale_presets_valid():
    for preset in (ExperimentScale.tiny, ExperimentScale.default,
                   ExperimentScale.large):
        scale = preset()
        assert scale.capacity > 0
        assert scale.query_interval(10_000) == 100


def test_scale_validation():
    with pytest.raises(ConfigurationError):
        ExperimentScale(
            name="bad",
            profile_stream=0,
            sweep_base=1,
            fig11_stream=1,
            table2_stream=1,
            capacity=1,
            naive_threads=(1,),
            cots_threads=(4,),
        )
    with pytest.raises(ConfigurationError):
        ExperimentScale(
            name="bad",
            profile_stream=10,
            sweep_base=1,
            fig11_stream=1,
            table2_stream=1,
            capacity=1,
            naive_threads=(1,),
            cots_threads=(4,),
            query_fraction=0.0,
        )


def test_stream_cache_reuses_lists():
    cache = StreamCache()
    a = cache.get(100, 50, 2.0, seed=1)
    b = cache.get(100, 50, 2.0, seed=1)
    assert a is b
    cache.clear()
    c = cache.get(100, 50, 2.0, seed=1)
    assert c is not a
    assert c == a


def test_all_experiments_registry_is_complete():
    assert set(ALL_EXPERIMENTS) == {
        "fig3a", "fig3b", "fig4", "fig5", "fig6", "fig7",
        "fig11", "fig12", "table2", "lean_camp",
    }


def test_every_claim_names_a_registered_experiment():
    assert {c.experiment_id for c in CLAIMS} == set(ALL_EXPERIMENTS)
    assert len(CLAIMS) == 27
    assert sum(c.strict_only for c in CLAIMS) == 5
    assert len({c.name for c in CLAIMS}) == len(CLAIMS)


def test_non_strict_claims_hold_at_tiny(tiny, tiny_results):
    verdicts = {
        c.name: c.verdict(tiny_results[c.experiment_id], tiny)
        for c in CLAIMS
    }
    failed = [name for name, verdict in verdicts.items() if verdict == "fail"]
    assert not failed
    skipped = {name for name, verdict in verdicts.items() if verdict == "skip"}
    assert skipped == {c.name for c in CLAIMS if c.strict_only}


def test_lean_camp_supplement(tiny_results):
    result = tiny_results["lean_camp"]
    machines = set(result.column_values("machine"))
    assert len(machines) == 2
    # every row carries positive throughput on both machines
    assert all(row["throughput_meps"] > 0 for row in result.rows)


def test_fig3a_rows_structure(tiny, tiny_results):
    result = tiny_results["fig3a"]
    assert result.experiment_id == "fig3a"
    assert set(result.columns) <= set(result.rows[0])
    expected_rows = len(tiny.alphas_naive) * len(tiny.naive_threads)
    assert len(result.rows) == expected_rows
    # the 1-thread speedup is 1.0 by definition
    for alpha in tiny.alphas_naive:
        first = result.filtered(alpha=alpha, threads=tiny.naive_threads[0])
        assert first[0]["speedup"] == pytest.approx(1.0)


def test_fig11_baseline_is_four_threads(tiny, tiny_results):
    result = tiny_results["fig11"]
    for alpha in tiny.alphas_cots:
        base = result.filtered(alpha=alpha, threads=tiny.cots_threads[0])
        assert base[0]["speedup"] == pytest.approx(1.0)
    assert all(row["throughput_meps"] > 0 for row in result.rows)


def test_table2_columns(tiny, tiny_results):
    result = tiny_results["table2"]
    assert len(result.rows) == len(tiny.alphas_naive)
    for row in result.rows:
        assert row["sequential_s"] > 0
        assert row["shared_s"] > row["sequential_s"]
        assert row["cots_threads"] in tiny.cots_threads


def test_result_filtering_helpers():
    result = ExperimentResult(
        experiment_id="x",
        title="t",
        columns=["a", "b"],
        rows=[{"a": 1, "b": 2}, {"a": 1, "b": 3}, {"a": 2, "b": 4}],
    )
    assert result.column_values("b") == [2, 3, 4]
    assert result.filtered(a=1) == [{"a": 1, "b": 2}, {"a": 1, "b": 3}]
    assert result.filtered(a=1, b=3) == [{"a": 1, "b": 3}]


def test_format_table_and_series():
    result = ExperimentResult(
        experiment_id="demo",
        title="Demo table",
        columns=["alpha", "threads", "speedup"],
        rows=[
            {"alpha": 2.0, "threads": 1, "speedup": 1.0},
            {"alpha": 2.0, "threads": 2, "speedup": 1.9},
        ],
        notes="a note",
    )
    table = format_table(result)
    assert "Demo table" in table
    assert "speedup" in table
    assert "note: a note" in table
    series = format_series(result, "threads", "speedup")
    assert "alpha=2.0" in series
    assert "1.9" in series
