"""Unit tests for the sequential Stream Summary structure."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend import create_backend
from repro.core.counters import CounterEntry
from repro.core.space_saving import SpaceSaving
from repro.core.stream_summary import StreamSummary
from repro.errors import ReproError


def test_insert_and_count():
    summary = StreamSummary()
    summary.insert("a")
    assert summary.count("a") == 1
    assert "a" in summary
    assert len(summary) == 1
    summary.check_invariants()


def test_insert_duplicate_raises():
    summary = StreamSummary()
    summary.insert("a")
    with pytest.raises(ReproError):
        summary.insert("a")


def test_insert_with_count_and_error():
    summary = StreamSummary()
    node = summary.insert("a", count=5, error=2)
    assert node.count == 5
    assert node.error == 2
    assert summary.total_count == 5


def test_increment_moves_between_buckets():
    summary = StreamSummary()
    summary.insert("a")
    summary.insert("b")
    summary.increment("a")
    assert summary.count("a") == 2
    assert summary.count("b") == 1
    assert summary.frequencies() == [(1, 1), (2, 1)]
    summary.check_invariants()


def test_increment_reuses_existing_bucket():
    summary = StreamSummary()
    summary.insert("a")
    summary.insert("b")
    summary.increment("a")
    summary.increment("b")
    assert summary.frequencies() == [(2, 2)]
    summary.check_invariants()


def test_increment_unknown_element_raises():
    summary = StreamSummary()
    with pytest.raises(ReproError):
        summary.increment("missing")


def test_bulk_increment_skips_buckets():
    summary = StreamSummary()
    for name in "abc":
        summary.insert(name)
    summary.increment("b", by=2)
    summary.increment("c", by=7)
    assert summary.count("b") == 3
    assert summary.count("c") == 8
    assert summary.min_freq == 1
    assert summary.max_freq == 8
    summary.check_invariants()


def test_figure2_example_stream():
    """The paper's Figure 2: stream <e1, e3, e3, e2, e2>."""
    summary = StreamSummary()
    for element in ["e1", "e3", "e3", "e2", "e2"]:
        if element in summary:
            summary.increment(element)
        else:
            summary.insert(element)
    assert summary.count("e1") == 1
    assert summary.count("e2") == 2
    assert summary.count("e3") == 2
    assert summary.frequencies() == [(1, 1), (2, 2)]
    summary.check_invariants()


def test_min_and_max_tracking():
    summary = StreamSummary()
    summary.insert("a", count=3)
    summary.insert("b", count=1)
    summary.insert("c", count=9)
    assert summary.min_freq == 1
    assert summary.max_freq == 9
    assert summary.min_node().element == "b"


def test_evict_min_removes_a_minimum_element():
    summary = StreamSummary()
    summary.insert("low")
    summary.insert("high", count=10)
    victim = summary.evict_min()
    assert victim.element == "low"
    assert "low" not in summary
    assert summary.total_count == 10
    summary.check_invariants()


def test_evict_from_empty_raises():
    with pytest.raises(ReproError):
        StreamSummary().evict_min()


def test_remove_specific_element():
    summary = StreamSummary()
    summary.insert("a")
    summary.insert("b", count=4)
    summary.remove("b")
    assert "b" not in summary
    assert summary.total_count == 1
    with pytest.raises(ReproError):
        summary.remove("b")
    summary.check_invariants()


def test_entries_sorted_descending():
    summary = StreamSummary()
    summary.insert("a", count=2)
    summary.insert("b", count=7)
    summary.insert("c", count=5)
    entries = summary.entries()
    assert [e.element for e in entries] == ["b", "c", "a"]
    assert [e.count for e in entries] == [7, 5, 2]


def test_buckets_iterate_both_directions():
    summary = StreamSummary()
    for count, name in [(1, "a"), (5, "b"), (3, "c")]:
        summary.insert(name, count=count)
    ascending = [b.freq for b in summary.buckets()]
    descending = [b.freq for b in summary.buckets_desc()]
    assert ascending == [1, 3, 5]
    assert descending == [5, 3, 1]


def test_empty_summary_properties():
    summary = StreamSummary()
    assert summary.min_freq == 0
    assert summary.max_freq == 0
    assert summary.total_count == 0
    assert summary.count("anything") == 0
    assert summary.entries() == []
    assert summary.min_node() is None
    summary.check_invariants()


def test_insert_below_current_minimum():
    summary = StreamSummary()
    summary.insert("big", count=10)
    summary.insert("small", count=2)
    assert summary.min_freq == 2
    assert [b.freq for b in summary.buckets()] == [2, 10]
    summary.check_invariants()


def test_increment_rejects_nonpositive():
    summary = StreamSummary()
    summary.insert("a")
    with pytest.raises(ReproError):
        summary.increment("a", by=0)


def test_insert_rejects_nonpositive_count():
    with pytest.raises(ReproError):
        StreamSummary().insert("a", count=0)


# ----------------------------------------------------------------------
# Bounded reads: the walk from the max bucket stops at its answer
# ----------------------------------------------------------------------
def _full_walk(summary):
    """Every monitored element by descending count, bucket by bucket
    (the rows the bounded reads must be prefixes of)."""
    return [
        CounterEntry(node.element, bucket.freq, node.error)
        for bucket in summary.buckets_desc()
        for node in bucket.nodes()
    ]


def test_descending_bounds():
    summary = StreamSummary()
    for name, count in [("a", 1), ("b", 4), ("c", 4), ("d", 2)]:
        summary.insert(name, count=count)
    assert [e.element for e in summary.descending(limit=1)] == ["b"]
    assert [e.element for e in summary.descending(limit=3)] == ["b", "c", "d"]
    assert [e.element for e in summary.descending(above=2)] == ["b", "c"]
    assert [e.element for e in summary.descending(above=1.5)] == [
        "b", "c", "d"]
    assert summary.descending(limit=2, above=4) == []
    assert summary.descending(limit=0) == []
    assert StreamSummary().descending(limit=3) == []
    assert summary.descending() == summary.entries() == _full_walk(summary)


# small alphabets against small capacities: overwrites on most streams,
# and equal counts (several elements per bucket) on nearly all of them
_streams = st.lists(
    st.integers(min_value=0, max_value=12), min_size=0, max_size=300
)
_runs = st.lists(
    st.tuples(st.integers(min_value=0, max_value=12),
              st.integers(min_value=1, max_value=5)),
    max_size=40,
)


@given(
    stream=_streams,
    runs=_runs,
    capacity=st.integers(min_value=1, max_value=8),
    phis=st.lists(
        st.floats(min_value=0.001, max_value=0.999), min_size=1, max_size=4
    ),
)
@settings(max_examples=200, deadline=None)
def test_bounded_reads_equal_the_full_walk(stream, runs, capacity, phis):
    counter = SpaceSaving(capacity=capacity)
    counter.process_many(stream)
    for element, count in runs:
        counter.process_bulk(element, count)
    full = _full_walk(counter.summary)
    assert counter.entries() == full
    for k in range(1, capacity + 3):
        assert counter.top_k(k) == full[:k]
        kth = full[k - 1].count if len(full) >= k else 0
        assert counter.kth_frequency(k) == kth
        for element in range(13):
            estimate = counter.estimate(element)
            assert counter.is_in_top_k(element, k) == (
                estimate > 0 and estimate >= kth
            )
    for phi in phis:
        threshold = phi * counter.processed
        frequent = [e for e in full if e.count > threshold]
        assert counter.frequent(phi) == frequent
        assert counter.guaranteed_frequent(phi) == [
            e for e in frequent if e.guaranteed > threshold
        ]
        for k in range(capacity + 3):
            assert counter.summary.descending(limit=k, above=threshold) == (
                frequent[:k]
            )


def test_reads_do_not_build_every_entry(monkeypatch):
    """Top-k, frequent, k-th and membership reads and ``sequential``'s
    ``query`` answer from the bounded walk, never the full entry list."""
    stream = [i % 11 for i in range(400)] + [3] * 50 + [7] * 30
    counter = SpaceSaving(capacity=8)
    counter.process_many(stream)
    backend = create_backend("sequential", capacity=8)
    backend.ingest(stream)
    full = counter.entries()
    expected_query = backend.snapshot().top_k(5)

    def refuse(self):
        raise AssertionError("a bounded read built every entry")

    monkeypatch.setattr(StreamSummary, "entries", refuse)
    assert counter.top_k(3) == full[:3]
    assert counter.frequent(0.1) == [
        e for e in full if e.count > 0.1 * len(stream)
    ]
    assert counter.kth_frequency(2) == full[1].count
    assert counter.is_in_top_k(3, 1)
    assert not counter.is_in_top_k(7, 1)
    assert backend.query(5) == expected_query
    assert backend.query(10) == full
    backend.close()
