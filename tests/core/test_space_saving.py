"""Unit tests for sequential Space Saving."""

import pytest

from repro.core.counters import CounterEntry, ExactCounter
from repro.core.space_saving import SpaceSaving
from repro.errors import ConfigurationError
from repro.obs.registry import MetricsRegistry


def test_construct_with_capacity_or_epsilon():
    assert SpaceSaving(capacity=10).capacity == 10
    assert SpaceSaving(epsilon=0.1).capacity == 10
    assert SpaceSaving(epsilon=0.3).capacity == 4  # ceil(1/0.3)


@pytest.mark.parametrize(
    "kwargs",
    [
        {},
        {"capacity": 10, "epsilon": 0.1},
        {"capacity": 0},
        {"epsilon": 0.0},
        {"epsilon": 1.0},
    ],
)
def test_invalid_construction(kwargs):
    with pytest.raises(ConfigurationError):
        SpaceSaving(**kwargs)


def test_exact_when_alphabet_fits():
    counter = SpaceSaving(capacity=10)
    stream = ["a", "b", "a", "c", "a", "b"]
    counter.process_many(stream)
    assert counter.estimate("a") == 3
    assert counter.estimate("b") == 2
    assert counter.estimate("c") == 1
    assert counter.error("a") == 0
    assert counter.processed == 6


def test_overwrite_takes_min_plus_one():
    counter = SpaceSaving(capacity=2)
    counter.process_many(["a", "a", "b"])
    counter.process("c")  # evicts b (count 1): c gets count 2, error 1
    assert "b" not in counter
    assert counter.estimate("c") == 2
    assert counter.error("c") == 1
    assert len(counter) == 2


def test_monitored_never_exceeds_capacity(skewed_stream):
    counter = SpaceSaving(capacity=25)
    counter.process_many(skewed_stream)
    assert len(counter) <= 25
    counter.summary.check_invariants()


def test_total_count_equals_stream_length(skewed_stream):
    counter = SpaceSaving(capacity=25)
    counter.process_many(skewed_stream)
    assert counter.summary.total_count == len(skewed_stream)


def test_overestimation_bounds(mild_stream, exact_mild):
    counter = SpaceSaving(capacity=50)
    counter.process_many(mild_stream)
    for element, truth in exact_mild.counts().items():
        estimate = counter.estimate(element)
        if estimate:
            assert estimate >= truth
            assert estimate - counter.error(element) <= truth


def test_min_freq_bounded_by_n_over_m(mild_stream):
    counter = SpaceSaving(capacity=40)
    counter.process_many(mild_stream)
    assert counter.max_error() <= len(mild_stream) / 40


def test_no_false_negatives_for_frequent(mild_stream, exact_mild):
    phi = 0.05
    counter = SpaceSaving(capacity=50)
    counter.process_many(mild_stream)
    answered = {entry.element for entry in counter.frequent(phi)}
    threshold = phi * len(mild_stream)
    for element, truth in exact_mild.counts().items():
        if truth > threshold:
            assert element in answered


def test_guaranteed_frequent_has_no_false_positives(mild_stream, exact_mild):
    phi = 0.02
    counter = SpaceSaving(capacity=80)
    counter.process_many(mild_stream)
    threshold = phi * len(mild_stream)
    for entry in counter.guaranteed_frequent(phi):
        assert exact_mild.estimate(entry.element) > threshold


def test_top_k_matches_exact_on_skewed(skewed_stream, exact_skewed):
    counter = SpaceSaving(capacity=60)
    counter.process_many(skewed_stream)
    got = [entry.element for entry in counter.top_k(5)]
    expected = [element for element, _ in exact_skewed.top_k(5)]
    assert got == expected


def test_kth_frequency_and_top_k_membership(skewed_stream):
    counter = SpaceSaving(capacity=60)
    counter.process_many(skewed_stream)
    kth = counter.kth_frequency(3)
    top3 = counter.top_k(3)
    assert top3[-1].count == kth
    assert counter.is_in_top_k(top3[0].element, 3)


def test_kth_frequency_with_too_few_elements():
    counter = SpaceSaving(capacity=5)
    counter.process("only")
    assert counter.kth_frequency(3) == 0


def test_bulk_equals_repeated_singles():
    bulk = SpaceSaving(capacity=4)
    single = SpaceSaving(capacity=4)
    updates = [("a", 3), ("b", 1), ("a", 2), ("c", 4), ("d", 2)]
    for element, count in updates:
        bulk.process_bulk(element, count)
        for _ in range(count):
            single.process(element)
    assert bulk.counts() == single.counts()
    assert bulk.processed == single.processed


def test_process_bulk_rejects_nonpositive():
    with pytest.raises(ConfigurationError):
        SpaceSaving(capacity=4).process_bulk("a", 0)


def test_process_weighted_checks_every_weight_before_any_pair_lands():
    counter = SpaceSaving(capacity=4)
    with pytest.raises(ConfigurationError, match="got 0 for 'b'"):
        counter.process_weighted([("a", 2), ("b", 0), ("c", -1)])
    assert counter.estimate("a") == 0
    assert counter.summary.total_count == counter.processed == 0


def _accounting(counter, registry):
    occurrences = registry.snapshot()["counters"].get(
        "core.spacesaving.occurrences", 0
    )
    return counter.processed, occurrences, counter.summary.total_count


def test_process_many_counts_what_landed_before_an_element_raises():
    """The elements before an unhashable one land; ``processed``, the
    occurrences counter and the summary's total say so alike."""
    registry = MetricsRegistry()
    counter = SpaceSaving(capacity=2, metrics=registry)
    counter.process_many(["a", "b"])
    with pytest.raises(TypeError):
        counter.process_many(["c", "a", ["x"], "d"])
    assert _accounting(counter, registry) == (4, 4, 4)
    counter.summary.check_invariants()
    assert "d" not in counter


def test_process_weighted_counts_what_landed_before_an_element_raises():
    registry = MetricsRegistry()
    counter = SpaceSaving(capacity=2, metrics=registry)
    with pytest.raises(TypeError):
        counter.process_weighted([("a", 2), (["x"], 1), ("b", 1)])
    assert _accounting(counter, registry) == (2, 2, 2)
    counter.summary.check_invariants()


def test_frequent_validates_phi():
    counter = SpaceSaving(capacity=4)
    with pytest.raises(ConfigurationError):
        counter.frequent(0.0)
    with pytest.raises(ConfigurationError):
        counter.frequent(1.0)


def test_top_k_validates_k():
    with pytest.raises(ConfigurationError):
        SpaceSaving(capacity=4).top_k(0)


def test_from_entries_roundtrip():
    entries = [
        CounterEntry("a", 10, 1),
        CounterEntry("b", 7, 0),
        CounterEntry("c", 2, 2),
    ]
    counter = SpaceSaving.from_entries(3, entries, processed=19)
    assert counter.estimate("a") == 10
    assert counter.error("a") == 1
    assert counter.processed == 19
    counter.summary.check_invariants()


def test_from_entries_truncates_to_capacity():
    entries = [CounterEntry(i, 10 - i) for i in range(10)]
    counter = SpaceSaving.from_entries(3, entries, processed=100)
    assert len(counter) == 3
    assert [e.element for e in counter.top_k(3)] == [0, 1, 2]


def test_epsilon_property():
    assert SpaceSaving(capacity=20).epsilon == pytest.approx(0.05)
