"""The scenario runner: registered engines, metrics folding, validation."""

import pytest

from repro.errors import ConfigurationError
from repro.obs.registry import MetricsRegistry
from repro.scenarios import ScenarioParams, run_scenario

_PARAMS = ScenarioParams(length=1_500, alphabet=250, capacity=32, seed=3)


@pytest.mark.parametrize("backend", ["sequential", "cots-sim"])
def test_in_process_backends_run_every_scenario_kind(backend):
    for name in ("stationary-zipf", "eviction-poison"):
        run = run_scenario(name, backend, _PARAMS, k=8, threads=2)
        assert run.backend == backend
        assert run.elements == _PARAMS.length
        assert run.accuracy.guarantee_violations == 0
        assert run.counter.processed == _PARAMS.length
        assert run.wall_seconds > 0


@pytest.mark.parametrize("backend", ["mp-shm"])
def test_mp_backends_score_with_merged_tolerance(backend):
    run = run_scenario(
        "hot-key-flood", backend, _PARAMS, k=8, workers=2
    )
    assert run.accuracy.guarantee_violations == 0
    assert run.accuracy.max_underestimate == 0
    assert run.counter.processed == _PARAMS.length


def test_sequential_and_cots_agree_on_the_summary():
    """Both in-process backends consume the identical stream; CoTS's
    merged summary must stay within Space Saving equivalence of the
    sequential one."""
    from repro.mp.driver import summaries_equivalent

    sequential = run_scenario("skew-drift", "sequential", _PARAMS, k=8)
    cots = run_scenario("skew-drift", "cots-sim", _PARAMS, k=8, threads=4)
    assert summaries_equivalent(
        sequential.counter, cots.counter, k=8
    )


def test_metrics_fold_into_the_scenario_section():
    registry = MetricsRegistry()
    run = run_scenario(
        "flash-crowd", "sequential", _PARAMS, k=8, metrics=registry
    )
    snapshot = run.metrics
    assert snapshot["counters"]["scenario.stream.elements"] == (
        _PARAMS.length
    )
    assert snapshot["gauges"]["scenario.stream.distinct"] == run.distinct
    assert snapshot["gauges"]["scenario.accuracy.recall_at_k"] == (
        run.accuracy.recall_at_k
    )
    # the backend's own layer rides along in the same registry
    assert snapshot["counters"]["backend.ingest.items"] == _PARAMS.length


def test_metrics_disabled_by_default():
    run = run_scenario("flash-crowd", "sequential", _PARAMS, k=8)
    assert run.metrics == {}


def test_unknown_backend_rejected():
    with pytest.raises(ConfigurationError, match="unknown backend"):
        run_scenario("stationary-zipf", "gpu", _PARAMS)


def test_unknown_scenario_rejected():
    with pytest.raises(ConfigurationError, match="unknown scenario"):
        run_scenario("nope", "sequential", _PARAMS)


def test_throughput_property():
    run = run_scenario("stationary-zipf", "sequential", _PARAMS, k=8)
    assert run.throughput_eps == pytest.approx(
        run.elements / run.wall_seconds
    )
