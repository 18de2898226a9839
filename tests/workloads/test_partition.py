"""Unit and property tests for stream partitioning."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StreamError
from repro.workloads.partition import block_partition, chunked

_streams = st.lists(st.integers(min_value=0, max_value=9), max_size=100)
_parts = st.integers(min_value=1, max_value=8)


def test_block_partition_contiguous():
    assert block_partition([1, 2, 3, 4, 5], 2) == [[1, 2, 3], [4, 5]]


def test_block_partition_sizes_nearly_equal():
    parts = block_partition(list(range(10)), 3)
    assert [len(p) for p in parts] == [4, 3, 3]


def test_zero_parts_rejected():
    with pytest.raises(StreamError):
        block_partition([1], 0)


@given(stream=_streams, parts=_parts)
@settings(max_examples=100, deadline=None)
def test_property_partitions_preserve_multiset(stream, parts):
    pieces = block_partition(stream, parts)
    assert len(pieces) == parts
    combined = Counter()
    for piece in pieces:
        combined.update(piece)
    assert combined == Counter(stream)


@given(stream=_streams, parts=_parts)
@settings(max_examples=100, deadline=None)
def test_property_block_sizes_balanced(stream, parts):
    sizes = [len(p) for p in block_partition(stream, parts)]
    assert max(sizes) - min(sizes) <= 1
    assert sum(sizes) == len(stream)


# ----------------------------------------------------------------------
# Edge cases: more parts than elements, empty streams
# ----------------------------------------------------------------------
def test_more_parts_than_elements():
    pieces = block_partition([1, 2], 5)
    assert len(pieces) == 5
    combined = Counter()
    for piece in pieces:
        combined.update(piece)
    assert combined == Counter([1, 2])
    assert sum(len(piece) == 0 for piece in pieces) >= 3


def test_empty_stream_yields_empty_parts():
    assert block_partition([], 3) == [[], [], []]


def test_block_partition_parts_are_independent_lists():
    stream = [1, 2, 3, 4]
    pieces = block_partition(stream, 2)
    pieces[0].append(99)
    assert stream == [1, 2, 3, 4]
    # non-list sequences still come back as lists
    assert block_partition((1, 2, 3), 2) == [[1, 2], [3]]


# ----------------------------------------------------------------------
# chunked(): the streaming-dispatch helper
# ----------------------------------------------------------------------
def test_chunked_splits_and_preserves_order():
    assert list(chunked(range(7), 3)) == [[0, 1, 2], [3, 4, 5], [6]]
    assert list(chunked([], 3)) == []
    assert list(chunked([1], 5)) == [[1]]


def test_chunked_is_lazy():
    def gen():
        yield from range(4)
        raise AssertionError("must not be pulled past the first chunk")

    iterator = chunked(gen(), 2)
    assert next(iterator) == [0, 1]


def test_chunked_rejects_bad_size():
    with pytest.raises(StreamError):
        list(chunked([1, 2], 0))
