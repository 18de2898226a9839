"""The multiprocess sharded pool: counting, queries, failure modes.

The crash/timeout tests use the config's fault-injection hook so the
typed error paths run against *real* dying processes, not mocks; every
test asserts the pool is closed and all workers joined afterwards — the
"no hung pools" guarantee.
"""

import pytest

from repro.core.space_saving import SpaceSaving
from repro.errors import (
    BackendError,
    ConfigurationError,
    WorkerCrashError,
    WorkerTimeoutError,
)
from repro.mp import MPConfig, ShardedProcessPool, summaries_equivalent
from repro.mp.shm import StreamCodec
from repro.workloads import zipf_stream


def _canonical(counter):
    return sorted(
        (str(e.element), e.count, e.error) for e in counter.entries()
    )


def _assert_joined(pool):
    assert pool.closed
    assert all(code is not None for code in pool.worker_exitcodes())


@pytest.fixture
def stream():
    return zipf_stream(20_000, 2_000, 1.2, seed=11)


def test_count_and_merge_matches_heavy_hitters(stream):
    sequential = SpaceSaving(capacity=128)
    sequential.process_many(stream)
    with ShardedProcessPool(
        MPConfig(workers=3, capacity=128, chunk_elements=4_096)
    ) as pool:
        assert pool.count(stream) == len(stream)
        assert pool.processed == len(stream)
        merged = pool.merged()
    _assert_joined(pool)
    assert merged.processed == len(stream)
    assert summaries_equivalent(sequential, merged, k=10)
    # hash sharding keeps each element whole on one shard, so the top
    # elements come out in the same order as the sequential answer
    top_seq = [e.element for e in sequential.top_k(5)]
    top_mp = [e.element for e in merged.top_k(5)]
    assert top_seq == top_mp


_DISJOINT_STREAMS = {
    "zipf-int": lambda: zipf_stream(20_000, 2_000, 1.2, seed=11),
    "str-evicting": lambda: [
        f"key-{x}" for x in zipf_stream(20_000, 5_000, 0.9, seed=5)
    ],
}


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("kind", sorted(_DISJOINT_STREAMS))
def test_shards_are_key_disjoint(kind, workers):
    """Hash routing gives every key one home shard, even as shards evict."""
    data = _DISJOINT_STREAMS[kind]()
    with ShardedProcessPool(
        MPConfig(workers=workers, capacity=64, chunk_elements=4_096)
    ) as pool:
        pool.count(data)
        shards = pool.snapshot()
    _assert_joined(pool)
    keys = [{e.element for e in shard.entries()} for shard in shards]
    assert all(len(k) == 64 for k in keys)  # every shard evicted
    for i in range(workers):
        for j in range(i + 1, workers):
            assert not keys[i] & keys[j]
    assert sum(shard.processed for shard in shards) == len(data)


def test_single_worker_is_identical_to_sequential(stream):
    """With one worker every chunk lands on the same shard in dispatch
    order, so the merged result must equal the in-process coded lane
    exactly: each ``chunk_elements`` chunk encoded, applied through
    ``process_weighted``, and the entries decoded at the end."""
    codec = StreamCodec()
    reference = SpaceSaving(capacity=64)
    for start in range(0, len(stream), 1_000):
        codes, weights = codec.encode_chunk(stream[start:start + 1_000])
        reference.process_weighted(zip(codes.tolist(), weights.tolist()))
    with ShardedProcessPool(
        MPConfig(workers=1, capacity=64, chunk_elements=1_000)
    ) as pool:
        pool.count(stream)
        merged = pool.merged()
    expected = sorted(
        (str(codec.decode(e.element)), e.count, e.error)
        for e in reference.entries()
    )
    assert _canonical(merged) == expected
    assert merged.processed == reference.processed


def test_incremental_counting_between_queries(stream):
    half = len(stream) // 2
    with ShardedProcessPool(MPConfig(workers=2, capacity=128)) as pool:
        pool.count(stream[:half])
        first = pool.merged()
        pool.count(stream[half:])
        second = pool.merged()
    assert first.processed == half
    assert second.processed == len(stream)


def test_count_accepts_iterators():
    with ShardedProcessPool(
        MPConfig(workers=2, capacity=32, chunk_elements=100)
    ) as pool:
        sent = pool.count(iter(range(1_000)))
        merged = pool.merged()
    assert sent == 1_000
    assert merged.processed == 1_000


def test_merged_capacity_override(stream):
    with ShardedProcessPool(MPConfig(workers=2, capacity=64)) as pool:
        pool.count(stream)
        merged = pool.merged(capacity=5)
    assert len(merged) <= 5


def test_snapshot_shards_partition_processed(stream):
    with ShardedProcessPool(MPConfig(workers=4, capacity=64)) as pool:
        pool.count(stream)
        shards = pool.snapshot()
    assert len(shards) == 4
    assert sum(shard.processed for shard in shards) == len(stream)


def test_worker_raise_propagates_typed_crash():
    pool = ShardedProcessPool(
        MPConfig(workers=2, capacity=32, chunk_elements=64, fault="raise")
    )
    with pytest.raises(WorkerCrashError) as excinfo:
        pool.count(range(2_000))
        pool.merged()
    assert "injected fault" in str(excinfo.value)
    assert excinfo.value.worker in (0, 1)
    _assert_joined(pool)


def test_worker_hard_exit_propagates_typed_crash():
    pool = ShardedProcessPool(
        MPConfig(workers=2, capacity=32, chunk_elements=64, fault="exit")
    )
    with pytest.raises(WorkerCrashError) as excinfo:
        pool.count(range(2_000))
        pool.merged()
    assert excinfo.value.exitcode is not None
    _assert_joined(pool)


def test_hung_worker_propagates_typed_timeout():
    pool = ShardedProcessPool(
        MPConfig(
            workers=1,
            capacity=32,
            chunk_elements=4,
            fault="hang",
            timeout=0.4,
        )
    )
    with pytest.raises(WorkerTimeoutError) as excinfo:
        pool.count(range(400))
        pool.merged()
    assert excinfo.value.timeout == pytest.approx(0.4)
    assert excinfo.value.where in ("dispatch", "snapshot")
    _assert_joined(pool)


def test_closed_pool_rejects_use():
    pool = ShardedProcessPool(MPConfig(workers=1, capacity=8))
    pool.close()
    _assert_joined(pool)
    with pytest.raises(BackendError):
        pool.count([1, 2, 3])
    with pytest.raises(BackendError):
        pool.snapshot()
    pool.close()  # idempotent


def test_config_validation():
    for bad in (
        dict(workers=0),
        dict(capacity=0),
        dict(chunk_elements=0),
        dict(timeout=0),
        dict(fault="explode"),
    ):
        with pytest.raises(ConfigurationError):
            MPConfig(**bad)

