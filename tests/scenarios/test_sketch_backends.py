"""The adversary suite against the sketch-backed engines.

Sketch backends answer from Count-Min table reads, so the auditor
switches contracts: overestimates must stay inside each entry's widened
ε·N bound and estimates must never dip below truth — while Space
Saving's recall guarantee is reported, not enforced (the candidate
identifier is best-effort by design).  The eviction-poison adversary,
built to poison Space Saving's eviction order, is the load-bearing row:
it must not translate into a bound violation on the sketch path.
"""

import pytest

from repro.backend import BACKEND_NAMES, SKETCH_BACKENDS
from repro.scenarios import ScenarioParams, run_scenario
from repro.scenarios.audit import score_sketch_accuracy
from repro.schedcheck.auditor import exact_counts

PARAMS = ScenarioParams(length=6000, alphabet=600, capacity=64, seed=7)


def test_sketch_backends_are_registered():
    for name in SKETCH_BACKENDS:
        assert name in BACKEND_NAMES


@pytest.mark.parametrize("backend", SKETCH_BACKENDS)
def test_eviction_poison_scored_on_cm_bounds(backend):
    run = run_scenario("eviction-poison", backend, PARAMS, k=10,
                       workers=2)
    accuracy = run.accuracy
    assert accuracy.ok
    assert accuracy.max_underestimate == 0     # CM never under-estimates
    assert accuracy.max_overestimate <= accuracy.error_bound
    assert accuracy.processed == run.elements


@pytest.mark.parametrize("backend", SKETCH_BACKENDS)
def test_drift_scenario_stays_within_bounds(backend):
    run = run_scenario("skew-drift", backend, PARAMS, k=10, workers=2)
    assert run.accuracy.ok
    assert run.accuracy.max_underestimate == 0


def test_sketch_scoring_flags_underestimates():
    """The sketch lane must still catch a broken (underestimating) table."""
    from repro.core.counters import CounterEntry
    from repro.core.space_saving import SpaceSaving

    truth = {"a": 100, "b": 10}
    lying = SpaceSaving.from_entries(
        8, [CounterEntry("a", 60, 5), CounterEntry("b", 10, 5)], 110
    )
    report = score_sketch_accuracy(lying, truth, k=2)
    assert not report.ok
    assert report.max_underestimate == 40


def test_sketch_scoring_flags_bound_excess():
    from repro.core.counters import CounterEntry
    from repro.core.space_saving import SpaceSaving

    truth = {"a": 10}
    inflated = SpaceSaving.from_entries(
        8, [CounterEntry("a", 30, 5)], 30
    )
    report = score_sketch_accuracy(inflated, truth, k=1)
    assert not report.ok
    assert report.bound_excess > 0


def test_sketch_scoring_does_not_punish_missing_hitters():
    """A heavy hitter absent from the candidate set is not a violation."""
    from repro.core.counters import CounterEntry
    from repro.core.space_saving import SpaceSaving

    truth = {"a": 100, "b": 90}
    partial = SpaceSaving.from_entries(
        8, [CounterEntry("a", 100, 0)], 190
    )
    report = score_sketch_accuracy(partial, truth, k=2)
    assert report.ok
    assert report.recall_at_k == 0.5
