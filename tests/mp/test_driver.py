"""The run_mp driver and the result-equivalence predicate."""

import pytest

from repro.core.counters import CounterEntry
from repro.core.space_saving import SpaceSaving
from repro.errors import WorkerCrashError
from repro.mp import MPConfig, run_mp, summaries_equivalent
from repro.workloads import zipf_stream


@pytest.fixture
def stream():
    return zipf_stream(15_000, 1_500, 1.3, seed=5)


def test_run_mp_result_shape(stream):
    result = run_mp(stream, MPConfig(workers=2, capacity=128))
    assert result.scheme == "mp-sharded"
    assert result.workers == 2
    assert result.elements == len(stream)
    assert result.wall_seconds > 0
    assert result.startup_seconds > 0
    assert result.seconds == result.wall_seconds
    assert result.throughput > 0
    assert result.counter.processed == len(stream)
    assert result.extras["capacity"] == 128


def test_run_mp_equivalent_to_sequential(stream):
    sequential = SpaceSaving(capacity=128)
    sequential.process_many(stream)
    result = run_mp(stream, MPConfig(workers=4, capacity=128))
    assert summaries_equivalent(sequential, result.counter, k=10)


def test_run_mp_default_config(stream):
    result = run_mp(stream)
    assert result.workers == MPConfig().workers
    assert result.counter.processed == len(stream)


def test_run_mp_closes_pool_on_crash():
    with pytest.raises(WorkerCrashError):
        run_mp(range(5_000), MPConfig(workers=2, capacity=32, fault="raise"))


def _summary(triples, processed, capacity=8):
    return SpaceSaving.from_entries(
        capacity, [CounterEntry(e, c, err) for e, c, err in triples], processed
    )


def test_summaries_equivalent_accepts_itself():
    summary = _summary([("a", 10, 0), ("b", 5, 1)], 15)
    assert summaries_equivalent(summary, summary)


def test_summaries_equivalent_rejects_processed_mismatch():
    a = _summary([("a", 10, 0)], 10)
    b = _summary([("a", 10, 0)], 11)
    assert not summaries_equivalent(a, b)


def test_summaries_equivalent_rejects_disjoint_counts():
    a = _summary([("a", 100, 0)], 100)
    b = _summary([("a", 10, 0)], 100)
    assert not summaries_equivalent(a, b)


def test_summaries_equivalent_overlapping_error_windows():
    # [8, 10] vs [9, 12] overlap: both can bound the same true count
    a = _summary([("a", 10, 2)], 10)
    b = _summary([("a", 12, 3)], 10)
    assert summaries_equivalent(a, b)


def test_summaries_equivalent_missing_element():
    # "b" is guaranteed >= 4 in the reference but absent from a
    # candidate whose max error is 0: impossible for the same stream.
    a = _summary([("a", 10, 0), ("b", 5, 1)], 15)
    b = _summary([("a", 10, 0)], 15)
    assert not summaries_equivalent(a, b)
