"""Unit tests for the Count-Min sketch baseline."""

import pytest

from repro.core.sketches import CountMinSketch
from repro.errors import ConfigurationError


def test_cms_dimensions_from_eps_delta():
    sketch = CountMinSketch(epsilon=0.01, delta=0.01, seed=0)
    assert sketch.width >= 100
    assert sketch.depth >= 4


@pytest.mark.parametrize(
    "kwargs",
    [
        {"epsilon": 0.0},
        {"epsilon": 1.0},
        {"delta": 0.0},
        {"track_candidates": -1},
    ],
)
def test_cms_invalid_parameters(kwargs):
    with pytest.raises(ConfigurationError):
        CountMinSketch(**kwargs)


def test_cms_never_underestimates(mild_stream, exact_mild):
    sketch = CountMinSketch(epsilon=0.002, delta=0.01, seed=7)
    sketch.process_many(mild_stream)
    for element, truth in exact_mild.counts().items():
        assert sketch.estimate(element) >= truth


def test_cms_error_bound_mostly_holds(mild_stream, exact_mild):
    epsilon = 0.01
    sketch = CountMinSketch(epsilon=epsilon, delta=0.01, seed=7)
    sketch.process_many(mild_stream)
    bound = epsilon * len(mild_stream)
    violations = sum(
        1
        for element, truth in exact_mild.counts().items()
        if sketch.estimate(element) - truth > bound
    )
    # the bound holds with probability 1 - delta per query
    assert violations <= 0.05 * len(exact_mild)


def test_cms_conservative_update_tightens(mild_stream, exact_mild):
    plain = CountMinSketch(epsilon=0.02, delta=0.05, seed=9)
    conservative = CountMinSketch(
        epsilon=0.02, delta=0.05, conservative=True, seed=9
    )
    plain.process_many(mild_stream)
    conservative.process_many(mild_stream)
    for element in list(exact_mild.counts())[:50]:
        assert conservative.estimate(element) <= plain.estimate(element)
        assert conservative.estimate(element) >= exact_mild.estimate(element)


def test_cms_candidate_tracking_finds_heavy_hitters(skewed_stream, exact_skewed):
    sketch = CountMinSketch(
        epsilon=0.005, delta=0.01, track_candidates=10, seed=3
    )
    sketch.process_many(skewed_stream)
    top = [entry.element for entry in sketch.top_k(3)]
    expected = [element for element, _ in exact_skewed.top_k(3)]
    assert top == expected


def test_cms_without_tracking_has_no_entries(skewed_stream):
    sketch = CountMinSketch(epsilon=0.01, delta=0.1, seed=1)
    sketch.process_many(skewed_stream)
    assert sketch.entries() == []


def test_cms_update_validates_count():
    with pytest.raises(ConfigurationError):
        CountMinSketch(seed=0).update("a", 0)
