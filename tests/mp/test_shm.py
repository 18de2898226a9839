"""The shared-memory data plane: codec, rings, and exact-count parity.

Three layers of confidence:

* unit tests on the pieces (``StreamCodec`` roundtrips, ``route_coded``
  invariants, ``ShmRing`` fill/read/free protocol);
* differential tests pinning the plane against exact counts at ample
  capacity (no eviction ever happens, so pre-aggregation's reordering
  latitude cannot show) across several seeds;
* regression tests for the shutdown/clock bugs this plane shipped with:
  clean runs must leave every worker at exit code 0, and driver spans
  must use the tracer's (rebindable) clock for both edges.
"""

import collections
import time

import numpy as np
import pytest

from repro.errors import StreamError, WorkerCrashError
from repro.mp import MPConfig, ShardedProcessPool, run_mp
from repro.mp.shm import (
    SEG_BUSY,
    SEG_FREE,
    ShmRing,
    ShmRingReader,
    StreamCodec,
    route_coded,
)
from repro.obs.registry import MetricsRegistry
from repro.obs.tracing import Span, Tracer
from repro.workloads import zipf_stream


# ----------------------------------------------------------------------
# StreamCodec
# ----------------------------------------------------------------------
def _decode_pairs(codec, codes, weights):
    return {codec.decode(int(c)): int(w) for c, w in zip(codes, weights)}


def test_codec_int_fast_lane_roundtrip():
    codec = StreamCodec()
    chunk = [5, -3, 5, 0, 5, -3, 2**40]
    codes, weights = codec.encode_chunk(chunk)
    assert codes.dtype == np.int64 and weights.dtype == np.int64
    assert _decode_pairs(codec, codes, weights) == {
        5: 3, -3: 2, 0: 1, 2**40: 1,
    }
    # int keys are identity-coded: no vocabulary entries needed
    assert codec.vocab_size == 0


def test_codec_string_and_mixed_chunks_roundtrip():
    codec = StreamCodec()
    chunk = ["a", "b", "a", 7, ("t", 1), 7, "a"]
    codes, weights = codec.encode_chunk(chunk)
    assert _decode_pairs(codec, codes, weights) == {
        "a": 3, "b": 1, 7: 2, ("t", 1): 1,
    }
    # codes are stable across chunks (the vocabulary is shared state)
    again, _ = codec.encode_chunk(["b", "b"])
    b_code = next(
        int(c) for c, w in zip(codes, weights)
        if codec.decode(int(c)) == "b"
    )
    assert int(again[0]) == b_code


def test_codec_huge_and_boundary_ints_fall_back_safely():
    codec = StreamCodec()
    huge = 2**70           # overflows int64: must take the vocab lane
    edge = 2**62           # survives int64 but not the << 1 coding
    chunk = [huge, edge, 1, huge]
    codes, weights = codec.encode_chunk(chunk)
    assert _decode_pairs(codec, codes, weights) == {huge: 2, edge: 1, 1: 1}
    assert codec.vocab_size == 2   # huge + edge; 1 is identity-coded


def test_codec_int_equal_keys_take_the_int_code():
    """``1.0``, ``True`` and ``numpy.int64(1)`` are dict-equal to ``1``:
    every lane must give them ``1``'s identity code, never a vocabulary
    slot — even when ``1`` itself went through the numpy fast lane and
    never touched the dictionary."""
    codec = StreamCodec()
    ints, _ = codec.encode_chunk([1, 1, 2])
    mixed, weights = codec.encode_chunk([1.0, True, np.int64(1), "a", 2.5])
    assert _decode_pairs(codec, mixed, weights) == {1: 3, "a": 1, 2.5: 1}
    assert int(mixed[0]) == int(ints[0])
    assert codec.vocab_size == 2   # "a" and 2.5 only
    assert codec.peek(1.0) == codec.encode_one(True) == int(ints[0])
    assert StreamCodec().peek(np.int64(1)) == int(ints[0])
    # keys equal to no int, or to an int outside the coding range,
    # still take the vocabulary lane
    assert codec.peek(float("nan")) is None
    assert codec.encode_one(2.0**70) & 1


def test_codec_empty_chunk():
    codes, weights = StreamCodec().encode_chunk([])
    assert len(codes) == 0 and len(weights) == 0


def test_codec_decode_entries():
    codec = StreamCodec()
    codes, weights = codec.encode_chunk(["x", 9, "x"])
    triples = [(int(c), int(w), 0) for c, w in zip(codes, weights)]
    decoded = dict(
        (element, count) for element, count, _ in codec.decode_entries(triples)
    )
    assert decoded == {"x": 2, 9: 1}


# ----------------------------------------------------------------------
# route_coded
# ----------------------------------------------------------------------
def test_route_coded_partitions_weights_exactly():
    codec = StreamCodec()
    codes, weights = codec.encode_chunk(list(range(100)) * 3)
    routed = route_coded(codes, weights, 4)
    assert len(routed) == 4
    total = sum(int(w.sum()) for _, w in routed)
    assert total == 300
    # every shard gets something from 100 distinct elements
    assert all(len(c) > 0 for c, _ in routed)


def test_route_coded_hash_uses_all_shards_for_identity_codes():
    """Identity codes are all even; routing on the raw code would starve
    every odd shard.  The router must hash the decoded value."""
    codec = StreamCodec()
    codes, weights = codec.encode_chunk(list(range(64)))
    routed = route_coded(codes, weights, 2, "hash")
    assert all(len(c) > 0 for c, _ in routed)


def test_route_coded_is_sticky_per_element():
    codec = StreamCodec()
    first, w1 = codec.encode_chunk([1, 2, 3, 4, 5])
    second, w2 = codec.encode_chunk([5, 4, 3, 2, 1])
    homes = {}
    for codes, weights in ((first, w1), (second, w2)):
        for shard, (shard_codes, _) in enumerate(
            route_coded(codes, weights, 3, "hash")
        ):
            for code in shard_codes:
                element = codec.decode(int(code))
                assert homes.setdefault(element, shard) == shard


def test_route_coded_single_part_and_validation():
    codes = np.array([2, 4], dtype=np.int64)
    weights = np.array([1, 1], dtype=np.int64)
    (only, w), = route_coded(codes, weights, 1, "hash")
    assert list(only) == [2, 4]
    with pytest.raises(StreamError):
        route_coded(codes, weights, 0, "hash")
    for how in ("bogus", "round_robin", "block"):
        with pytest.raises(StreamError):
            route_coded(codes, weights, 2, how)


# ----------------------------------------------------------------------
# ShmRing protocol
# ----------------------------------------------------------------------
def test_ring_fill_read_free_cycle():
    ring = ShmRing(slots=8, segments=2)
    try:
        reader = ShmRingReader(ring.name, 8, 2)
        codes = np.array([10, 20, 30], dtype=np.int64)
        weights = np.array([1, 2, 3], dtype=np.int64)
        assert ring.is_free(0) and ring.is_free(1)
        nbytes = ring.fill(0, codes, weights)
        assert nbytes == 3 * 16
        assert not ring.is_free(0)
        assert ring.busy_segments() == 1
        got_codes, got_weights = reader.read(0, 3)
        assert got_codes == [10, 20, 30]
        assert got_weights == [1, 2, 3]
        # the reader freed the segment before "counting": double buffering
        assert ring.is_free(0)
        assert ring.busy_segments() == 0
        reader.close()
    finally:
        ring.close()
        ring.close()  # idempotent


def test_ring_rejects_oversized_batches_and_bad_shapes():
    with pytest.raises(StreamError):
        ShmRing(slots=0, segments=2)
    with pytest.raises(StreamError):
        ShmRing(slots=4, segments=0)
    ring = ShmRing(slots=4, segments=1)
    try:
        too_big = np.arange(5, dtype=np.int64)
        with pytest.raises(StreamError):
            ring.fill(0, too_big, too_big)
    finally:
        ring.close()


def test_ring_status_flags_are_plain_bytes():
    # the one-byte flags ARE the protocol: pin their values
    assert SEG_FREE == 0 and SEG_BUSY == 1


# ----------------------------------------------------------------------
# Exact-count differential
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [3, 11])
def test_shm_matches_exact_counts_at_ample_capacity(seed):
    """With capacity above the alphabet size no eviction ever happens,
    so the merged summary must hold exactly the stream's counts with
    zero error, whatever the plane's within-chunk reordering."""
    stream = zipf_stream(6_000, 150, 1.1, seed=seed)
    config = MPConfig(workers=3, capacity=512, chunk_elements=700)
    result = run_mp(stream, config)
    counts = {e.element: (e.count, e.error) for e in result.counter.entries()}
    assert counts == {
        element: (count, 0)
        for element, count in collections.Counter(stream).items()
    }
    assert result.elements == len(stream)


def test_shm_handles_string_streams():
    stream = [f"key-{i % 37}" for i in range(5_000)]
    result = run_mp(
        stream, MPConfig(workers=2, capacity=64, chunk_elements=512)
    )
    assert result.counter.processed == 5_000
    assert result.counter.estimate("key-0") == len(stream) // 37 + 1


# ----------------------------------------------------------------------
# Shutdown and clock regressions
# ----------------------------------------------------------------------
def test_clean_run_leaves_all_workers_at_exit_code_zero():
    """A normal run must never produce a crash exit: the stop ack used
    to race queue teardown and turn clean shutdowns into exit code 17."""
    stream = zipf_stream(8_000, 500, 1.1, seed=5)
    pool = ShardedProcessPool(MPConfig(workers=4, capacity=64))
    pool.count(stream)
    pool.merged()
    pool.close()
    assert pool.worker_exitcodes() == [0, 0, 0, 0]


def test_driver_spans_use_the_tracer_clock_for_both_edges():
    """Driver spans must take start AND end from the tracer's clock.
    The regression: starts came from ``time.perf_counter()`` while ends
    came from ``tracer.now()`` — invisible while the tracer's clock *is*
    perf_counter, garbage the moment it is rebound."""
    base = 1e12
    ticks = iter(range(1, 100_000))
    tracer = Tracer(clock=lambda: base + next(ticks))
    stream = zipf_stream(4_000, 300, 1.1, seed=2)
    run_mp(stream, MPConfig(workers=2, capacity=64), tracer=tracer)
    driver_spans = [
        r for r in tracer.records()
        if isinstance(r, Span) and r.track == "driver"
    ]
    names = {s.name for s in driver_spans}
    assert {"dispatch", "snapshot", "merge"} <= names
    for span in driver_spans:
        assert span.start >= base, f"{span.name} start off the tracer clock"
        assert span.end >= span.start


def test_stale_replies_are_counted_and_surfaced():
    """Non-error replies crossing an error sweep must be metered (not
    silently swallowed) and mentioned in the crash detail."""
    registry = MetricsRegistry()
    pool = ShardedProcessPool(
        MPConfig(workers=1, capacity=16), metrics=registry
    )
    try:
        # a stale snapshot reply from an abandoned query, then an error
        pool._replies.put((0, "snapshot", 99, [], 0, 16))
        pool._replies.put((0, "error", "boom"))
        deadline = time.monotonic() + 5.0
        with pytest.raises(WorkerCrashError) as excinfo:
            # put() hands to a feeder thread; poll until both messages
            # have actually crossed the pipe
            while time.monotonic() < deadline:
                pool._poll_for_errors()
                time.sleep(0.01)
        assert "boom" in str(excinfo.value)
        assert "snapshot" in str(excinfo.value)
        assert registry.snapshot()["counters"]["mp.replies.discarded"] == 1
    finally:
        pool.close()


def test_shm_run_emits_plane_metrics():
    registry = MetricsRegistry()
    stream = zipf_stream(6_000, 400, 1.1, seed=9)
    result = run_mp(
        stream,
        MPConfig(workers=2, capacity=64, chunk_elements=1_000),
        metrics=registry,
    )
    counters = result.extras["metrics"]["counters"]
    assert counters["mp.shm.bytes"] > 0
    assert counters["mp.dispatched.items"] == len(stream)
    # occupancy was sampled once per shipped batch
    occupancy = result.extras["metrics"]["histograms"][
        "mp.shm.ring_occupancy"
    ]
    assert occupancy["count"] == counters["mp.dispatched.batches"]
