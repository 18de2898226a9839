"""One-table mode: a single shared Count-Min table under all workers.

The load-bearing properties pinned here:

* **W=1 bit-equality** — with one worker the shared table must equal a
  sequential vectorized :class:`CountMinSketch` fed the same chunks
  (same seed, same geometry), the strongest differential available.
* **Bound compliance** — estimates never drop below true counts, and
  ``count - error`` never exceeds them, at every worker count even
  though nobody synchronizes on the table.
* **Flush / staleness** — ``flush()`` quiesces the pipeline (staleness
  0 afterwards); live ``peek`` widens its error by the staleness slack.
* **Fault paths** — the typed crash/timeout errors of the sharded pool
  survive unchanged in one-table mode; workers never hang the parent.
"""

from collections import Counter

import numpy as np
import pytest

from repro.backend import create_backend
from repro.core.sketches.count_min import CountMinSketch
from repro.errors import (
    BackendError,
    WorkerCrashError,
    WorkerTimeoutError,
)
from repro.mp import MPConfig, OneTablePool
from repro.workloads import zipf_stream


def _config(workers, **overrides):
    base = dict(
        workers=workers,
        capacity=64,
        chunk_elements=512,
        sketch_epsilon=0.005,
        sketch_delta=0.05,
        sketch_seed=13,
        timeout=60.0,
    )
    base.update(overrides)
    return MPConfig(**base)


def _assert_joined(pool):
    assert pool.closed
    assert all(code is not None for code in pool.worker_exitcodes())


@pytest.fixture
def stream():
    return zipf_stream(20_000, 2_000, 1.3, seed=19)


def test_single_worker_table_matches_sequential_sketch(stream):
    reference = CountMinSketch(epsilon=0.005, delta=0.05, seed=13)
    with OneTablePool(_config(1)) as pool:
        pool.count(stream)
        pool.flush()
        for start in range(0, len(stream), 512):
            chunk = stream[start:start + 512]
            codes, weights = reference.codec.encode_chunk(chunk)
            reference.process_weighted(codes, weights)
        # one worker -> the band spans the whole (possibly rounded-up)
        # width; compare on the reference geometry.  Copy before close:
        # a live view would pin the shm buffer open.
        shared = pool._table.table[:, :reference.width].copy()
    assert np.array_equal(shared, reference.table)


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_bound_compliance_at_every_worker_count(stream, workers):
    truth = Counter(stream)
    with OneTablePool(_config(workers)) as pool:
        pool.count(stream)
        merged = pool.merged()
    assert merged.processed == len(stream)
    for entry in merged.entries():
        true_count = truth[entry.element]
        assert entry.count >= true_count          # CM never under
        assert entry.count - entry.error <= true_count
    top_element, top_count = truth.most_common(1)[0]
    assert merged.estimate(top_element) >= top_count


def test_top_k_matches_peek_prefix(stream):
    truth = Counter(stream)
    with OneTablePool(_config(2)) as pool:
        pool.count(stream)
        pool.flush()
        top = pool.top_k(10, strict=True)
        summary = pool.peek(strict=True)
    assert len(top) == 10
    counts = [entry.count for entry in top]
    assert counts == sorted(counts, reverse=True)
    # the zero-materialization path returns the same estimates as the
    # full SpaceSaving materialization for the shared candidate set
    by_element = {entry.element: entry.count for entry in summary.entries()}
    for entry in top:
        assert entry.count == by_element[entry.element]
        assert entry.count >= truth[entry.element]  # CM never under
        assert entry.count - entry.error <= truth[entry.element]


def test_top_k_live_widens_by_staleness(stream):
    with OneTablePool(_config(2)) as pool:
        pool.count(stream)
        live = pool.top_k(5)          # no flush: staleness slack added
        pool.flush()
        strict = pool.top_k(5, strict=True)
    assert len(live) == 5 and len(strict) == 5
    strict_counts = {entry.element: entry.count for entry in strict}
    for entry in live:
        if entry.element in strict_counts:
            assert entry.count >= strict_counts[entry.element]


def test_flush_quiesces_and_staleness_is_bounded(stream):
    with OneTablePool(_config(2)) as pool:
        pool.count(stream)
        assert pool.staleness() >= 0
        applied = pool.flush()
        assert applied == len(stream)
        assert pool.staleness() == 0


def test_live_peek_widens_by_staleness(stream):
    truth = Counter(stream)
    with OneTablePool(_config(2)) as pool:
        pool.count(stream)
        live = pool.peek()           # no flush: staleness slack added
        pool.flush()
        strict = pool.peek(strict=True)
    top_element, top_count = truth.most_common(1)[0]
    live_entry = {e.element: e for e in live.entries()}.get(top_element)
    strict_entry = {e.element: e for e in strict.entries()}[top_element]
    assert strict_entry.count >= top_count
    if live_entry is not None:
        # the widened live estimate still upper-bounds truth and its
        # interval still contains it
        assert live_entry.count >= strict_entry.count - 0  # slack >= 0
        assert live_entry.count - live_entry.error <= top_count


def test_snapshot_api_is_redirected():
    with OneTablePool(_config(2)) as pool:
        pool.count(range(1000))
        with pytest.raises(BackendError):
            pool.snapshot()


def test_detached_sketch_survives_pool_close(stream):
    truth = Counter(stream)
    pool = OneTablePool(_config(2))
    try:
        pool.count(stream)
        pool.flush()
        sketch = pool.sketch()
    finally:
        pool.close()
    _assert_joined(pool)
    top_element, top_count = truth.most_common(1)[0]
    assert sketch.estimate(top_element) >= top_count
    assert sketch.estimate("never-seen-key") == 0
    assert sketch.error_bound() >= 0


def test_band_bounds_cover_dispatched_traffic(stream):
    with OneTablePool(_config(4)) as pool:
        pool.count(stream)
        pool.flush()
        bounds = pool.band_bounds()
    assert bounds.shape == (4,)
    assert (bounds >= 0).all()


def test_backend_error_bound_covers_every_entry():
    """The snapshot's bound is the widest band bound its entries carry.

    Space Saving's min-count rule would report only the smallest
    candidate's table read, which some entries overestimate by more.
    """
    stream = zipf_stream(200_000, 20_000, 1.1, seed=3)
    truth = Counter(stream)
    backend = create_backend("mp-one-table", capacity=256, workers=2)
    try:
        for start in range(0, len(stream), 8192):
            backend.ingest(stream[start:start + 8192])
        snap = backend.snapshot()
    finally:
        backend.close()
    assert snap.entries
    for entry in snap.entries:
        assert entry.count - truth[entry.element] <= snap.error_bound


def test_worker_raise_propagates_typed_crash():
    pool = OneTablePool(_config(2, chunk_elements=64, fault="raise"))
    with pytest.raises(WorkerCrashError) as excinfo:
        pool.count(range(2_000))
        pool.merged()
    assert "injected fault" in str(excinfo.value)
    _assert_joined(pool)


def test_worker_hard_exit_propagates_typed_crash():
    pool = OneTablePool(_config(2, chunk_elements=64, fault="exit"))
    with pytest.raises(WorkerCrashError) as excinfo:
        pool.count(range(2_000))
        pool.merged()
    assert excinfo.value.exitcode is not None
    _assert_joined(pool)


def test_hung_worker_propagates_typed_timeout():
    pool = OneTablePool(
        _config(1, chunk_elements=4, fault="hang", timeout=0.4)
    )
    with pytest.raises(WorkerTimeoutError):
        pool.count(range(400))
        pool.merged()
    _assert_joined(pool)


def test_closed_pool_rejects_use():
    pool = OneTablePool(_config(1))
    pool.close()
    _assert_joined(pool)
    with pytest.raises(BackendError):
        pool.count([1, 2, 3])
    pool.close()  # idempotent
