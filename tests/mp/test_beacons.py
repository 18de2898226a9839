"""Worker telemetry beacons: the mp pool's live occupancy feed.

Beacons are advisory (`mp.beacon.<i>.*` snapshots shipped on the reply
queue every N batches) — these tests pin that they arrive, fold
latest-wins per worker, merge into one registry-shaped snapshot, and
surface through the Backend ``telemetry()`` hook the serve tier
feature-detects.  They must never change counting results or keep a
pool from joining cleanly.
"""

from repro.backend import create_backend
from repro.core.space_saving import SpaceSaving
from repro.mp import MPConfig, ShardedProcessPool
from repro.mp.shm import StreamCodec, route_coded
from repro.mp.worker import BEACON_EVERY
from repro.obs.registry import MetricsRegistry
from repro.workloads import zipf_stream

#: 79 chunks of 512: both workers drain every chunk's batch, so each
#: ships at least two beacons at BEACON_EVERY = 32
STREAM = zipf_stream(40_000, 2_000, 1.2, seed=11)
CHUNK = 512


def _assert_joined(pool):
    assert pool.closed
    assert all(code is not None for code in pool.worker_exitcodes())


def _canonical(entries):
    return sorted((str(element), count, error)
                  for element, count, error in entries)


def test_pool_collects_per_worker_beacons():
    metrics = MetricsRegistry()
    with ShardedProcessPool(
        MPConfig(workers=2, capacity=128, chunk_elements=CHUNK),
        metrics=metrics,
    ) as pool:
        assert pool.count(STREAM) == len(STREAM)
        # snapshot replies queue behind each worker's earlier beacons,
        # so a query folds every beacon shipped during the count
        pool.merged()
        beacons = pool.poll_beacons()
        assert set(beacons) == {0, 1}
        total = 0
        for index, snap in beacons.items():
            prefix = f"mp.beacon.{index}"
            counters = snap["counters"]
            assert counters[f"{prefix}.batches"] >= 2 * BEACON_EVERY
            assert counters[f"{prefix}.processed"] > 0
            total += counters[f"{prefix}.processed"]
            assert f"{prefix}.ring_busy" in snap["gauges"]
        # beacons lag by up to BEACON_EVERY batches but never overcount
        assert 0 < total <= len(STREAM)

        merged = pool.beacon_snapshot()
        assert merged["counters"]["mp.beacon.0.processed"] == (
            beacons[0]["counters"]["mp.beacon.0.processed"]
        )
        assert merged["counters"]["mp.beacon.1.batches"] == (
            beacons[1]["counters"]["mp.beacon.1.batches"]
        )
    _assert_joined(pool)
    counters = metrics.snapshot()["counters"]
    assert counters["mp.beacons.received"] >= 4
    # beacons ride the reply queue but are folded, never "discarded"
    assert counters.get("mp.replies.discarded", 0) == 0


def test_beacons_do_not_change_counts():
    """Shards that shipped beacons hold exactly the in-process coded
    lane's state: each chunk encoded, hash-routed and applied through
    ``process_weighted`` on that worker's shard."""
    codec = StreamCodec()
    reference = [SpaceSaving(capacity=128) for _ in range(2)]
    for start in range(0, len(STREAM), CHUNK):
        codes, weights = codec.encode_chunk(STREAM[start:start + CHUNK])
        for shard, (shard_codes, shard_weights) in zip(
            reference, route_coded(codes, weights, 2)
        ):
            shard.process_weighted(
                zip(shard_codes.tolist(), shard_weights.tolist())
            )
    with ShardedProcessPool(
        MPConfig(workers=2, capacity=128, chunk_elements=CHUNK)
    ) as pool:
        pool.count(STREAM)
        shards = pool.snapshot()
        assert set(pool.poll_beacons()) == {0, 1}
    _assert_joined(pool)
    for shard, expected in zip(shards, reference):
        assert shard.processed == expected.processed
        assert _canonical(
            (e.element, e.count, e.error) for e in shard.entries()
        ) == _canonical(
            codec.decode_entries(
                [(e.element, e.count, e.error) for e in expected.entries()]
            )
        )


def test_backend_telemetry_merges_worker_beacons():
    stream = zipf_stream(40_000, 500, 1.2, seed=3)
    backend = create_backend("mp-shm", capacity=128, workers=2)
    try:
        # one batch per 256-element ingest call and worker: ~156 calls
        # put each worker well past BEACON_EVERY (32 batches)
        for start in range(0, len(stream), 256):
            backend.ingest(stream[start:start + 256])
        telemetry = backend.telemetry()
        counters = telemetry["counters"]
        beacon_names = [n for n in counters if n.startswith("mp.beacon.")]
        assert beacon_names, "no beacons surfaced through telemetry()"
        assert any(n.endswith(".processed") for n in beacon_names)
        assert any(
            n.startswith("mp.beacon.") for n in telemetry["gauges"]
        )
        # telemetry is read-only: counting is unaffected
        assert backend.snapshot().processed == len(stream)
    finally:
        backend.close()
