"""Differential tests: the batched fast lanes must be observationally
identical to per-element processing, across every workload shape."""

import random

import pytest

from repro.core.space_saving import SpaceSaving
from repro.errors import ConfigurationError
from repro.workloads.generators import (
    bursty_stream,
    churn_stream,
    interleave,
    uniform_stream,
)
from repro.workloads.zipf import zipf_stream


def _state(counter):
    """Canonical queryable state: sorted (element, count, error)."""
    return sorted((e.element, e.count, e.error) for e in counter.entries())


def _streams():
    return {
        "zipf": zipf_stream(4000, 500, 2.0, seed=3),
        "uniform": uniform_stream(4000, 300, seed=4),
        "churn": churn_stream(3000),
        "bursty": bursty_stream(4000, 200, burst_length=250, seed=5),
        # adversarial: skew interleaved with all-distinct churn, so hot
        # increments and forced evictions alternate element by element
        "adversarial": interleave(
            [zipf_stream(2000, 50, 2.5, seed=6), churn_stream(2000)]
        ),
    }


@pytest.mark.parametrize("name", sorted(_streams()))
@pytest.mark.parametrize("capacity", [1, 7, 64, 500])
def test_process_many_matches_per_element(name, capacity):
    stream = _streams()[name]
    base = SpaceSaving(capacity=capacity)
    for element in stream:
        base.process(element)
    fast = SpaceSaving(capacity=capacity)
    fast.process_many(stream)
    fast.summary.check_invariants()
    assert fast.processed == base.processed
    assert _state(fast) == _state(base)


def test_process_many_small_chunks_cross_boundaries():
    """Chunk boundaries must not change results (forced tiny chunks)."""
    stream = zipf_stream(2000, 300, 1.5, seed=9)
    base = SpaceSaving(capacity=16)
    for element in stream:
        base.process(element)
    fast = SpaceSaving(capacity=16)
    fast.BATCH_CHUNK = 17  # instance override: exercise many boundaries
    fast.process_many(stream)
    fast.summary.check_invariants()
    assert _state(fast) == _state(base)


def test_process_many_accepts_generators():
    fast = SpaceSaving(capacity=8)
    fast.process_many(x % 5 for x in range(100))
    assert fast.processed == 100
    assert fast.estimate(0) == 20


def test_from_entries_truncation_is_order_independent():
    """Tie truncation must not depend on the input permutation."""
    entries = SpaceSaving(capacity=50)
    stream = zipf_stream(1000, 60, 1.2, seed=11)
    entries.process_many(stream)
    pool = entries.entries()
    rng = random.Random(13)
    baseline = None
    for _ in range(10):
        shuffled = list(pool)
        rng.shuffle(shuffled)
        truncated = SpaceSaving.from_entries(10, shuffled, entries.processed)
        state = _state(truncated)
        if baseline is None:
            baseline = state
        assert state == baseline


def test_from_entries_without_truncation_preserves_caller_order():
    counter = SpaceSaving(capacity=8)
    counter.process_many(["a", "a", "b", "c", "c", "c"])
    rebuilt = SpaceSaving.from_entries(8, counter.entries(), counter.processed)
    assert [e.element for e in rebuilt.entries()] == [
        e.element for e in counter.entries()
    ]


def test_is_frequent_uses_phi_fraction():
    counter = SpaceSaving(capacity=10)
    counter.process_many(["hot"] * 60 + ["cold"] * 10 + ["warm"] * 30)
    # hot holds 60% of 100 elements
    assert counter.is_frequent("hot", 0.5)
    assert not counter.is_frequent("cold", 0.5)
    assert not counter.is_frequent("warm", 0.5)
    assert counter.is_frequent("warm", 0.2)
    # matches the query-layer definition: estimate > phi * processed
    from repro.core.queries import PointFrequentQuery, answer

    for element in ("hot", "cold", "warm"):
        for phi in (0.05, 0.25, 0.5):
            assert counter.is_frequent(element, phi) == answer(
                PointFrequentQuery(element=element, phi=phi), counter
            )


def test_is_frequent_validates_phi():
    counter = SpaceSaving(capacity=4)
    counter.process("x")
    for phi in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ConfigurationError):
            counter.is_frequent("x", phi)


def test_exceeds_count_keeps_absolute_semantics():
    counter = SpaceSaving(capacity=10)
    counter.process_many(["hot"] * 60 + ["cold"] * 10)
    assert counter.exceeds_count("hot", 59)
    assert not counter.exceeds_count("hot", 60)
    assert not counter.exceeds_count("missing", 0)
