"""One conformance suite, every backend in the registry.

The backend protocol's acceptance gate: the sequential, simulated-CoTS,
both multiprocess modes and the sketch engines all pass the *same*
protocol contract — incremental ingest, snapshot completeness,
estimate/error-bound semantics, idempotent close.  Anything added to
``repro.backend.registry`` is tested here automatically.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.backend import (
    BACKEND_NAMES,
    SKETCH_BACKENDS,
    Snapshot,
    create_backend,
)
from repro.errors import BackendError, ConfigurationError
from repro.workloads import zipf_stream


@pytest.fixture(scope="module")
def conformance_stream():
    return zipf_stream(6000, 3000, 1.6, seed=23)


@pytest.fixture(scope="module")
def conformance_truth(conformance_stream):
    return Counter(conformance_stream)


CAPACITY = 96


def _make(name, workers=2):
    return create_backend(name, capacity=CAPACITY, threads=2, workers=workers)


@pytest.fixture(params=BACKEND_NAMES)
def driven(request, conformance_stream):
    """A backend of every registered kind, fed the stream in batches."""
    backend = _make(request.param)
    try:
        for index in range(0, len(conformance_stream), 1000):
            batch = conformance_stream[index:index + 1000]
            assert backend.ingest(batch) == len(batch)
        yield request.param, backend
    finally:
        backend.close()


class TestProtocolConformance:
    def test_snapshot_reflects_every_ingest(self, driven,
                                            conformance_stream):
        name, backend = driven
        snap = backend.snapshot()
        assert isinstance(snap, Snapshot)
        assert snap.scheme == name
        assert snap.processed == len(conformance_stream)
        assert snap.error_bound >= 0

    def test_entries_sorted_and_bounded(self, driven):
        _, backend = driven
        snap = backend.snapshot()
        counts = [entry.count for entry in snap.entries]
        assert counts == sorted(counts, reverse=True)
        assert len(snap.entries) <= CAPACITY

    def test_query_is_topk_prefix(self, driven):
        _, backend = driven
        snap = backend.snapshot()
        assert backend.query(5) == snap.top_k(5) == snap.entries[:5]
        for k in (1, 5, CAPACITY, CAPACITY + 1):
            assert backend.query(k) == backend.snapshot().top_k(k)

    def test_query_rejects_k_below_one(self, driven):
        _, backend = driven
        for k in (0, -1):
            with pytest.raises(ConfigurationError):
                backend.query(k)
            with pytest.raises(ConfigurationError):
                backend.snapshot().top_k(k)

    def test_estimates_upper_bound_truth(self, driven,
                                         conformance_truth):
        _, backend = driven
        snap = backend.snapshot()
        heavy = [e for e, _ in conformance_truth.most_common(10)]
        for element in heavy:
            estimate = backend.estimate(element)
            truth = conformance_truth[element]
            assert estimate >= truth
            assert estimate - truth <= snap.error_bound

    def test_count_minus_error_lower_bounds_truth(self, driven,
                                                  conformance_truth):
        _, backend = driven
        for entry in backend.snapshot().entries:
            assert (entry.count - entry.error
                    <= conformance_truth[entry.element])

    def test_heavy_hitter_recalled(self, driven, conformance_truth):
        _, backend = driven
        top_element, _ = conformance_truth.most_common(1)[0]
        reported = [entry.element for entry in backend.query(10)]
        assert top_element in reported

    def test_close_is_idempotent_and_final(self, driven):
        _, backend = driven
        backend.close()
        backend.close()
        with pytest.raises(BackendError):
            backend.ingest([1, 2, 3])


class TestIncrementalSnapshots:
    """Snapshots between ingests must already reflect prior batches."""

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_processed_grows_with_each_batch(self, name):
        backend = _make(name)
        try:
            seen = 0
            for batch in ([1] * 40 + [2] * 20, ["x"] * 30, [3, "x", 3]):
                backend.ingest(batch)
                seen += len(batch)
                assert backend.snapshot().processed == seen
        finally:
            backend.close()

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_int_equal_keys_are_one_key(self, name):
        """``1.0``, ``True`` and ``numpy.int64(1)`` compare and hash
        equal to ``1``, so they are key ``1`` — as in a dict — on every
        engine, whichever coding lane saw the int first.  One worker
        puts both spellings on the same shard."""
        backend = _make(name, workers=1)
        try:
            backend.ingest([1, 1, 2, 3])
            assert backend.estimate(1.0) == backend.estimate(1) >= 2
            backend.ingest([1.0, 1.0, True, "a"])
            snap = backend.snapshot()
            assert snap.processed == 8
            assert [e.element for e in snap.entries].count(1) == 1
            estimate = backend.estimate(1)
            assert estimate == backend.estimate(1.0)
            assert estimate == backend.estimate(np.int64(1))
            assert estimate >= 5
        finally:
            backend.close()

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_point_estimate_tracks_batches(self, name):
        backend = _make(name)
        try:
            backend.ingest(["hh"] * 50 + ["noise", "other"])
            assert backend.estimate("hh") >= 50
            backend.ingest(["hh"] * 25)
            assert backend.estimate("hh") >= 75
        finally:
            backend.close()


def test_registry_rejects_unknown_names():
    from repro.errors import ConfigurationError

    with pytest.raises(ConfigurationError):
        create_backend("no-such-backend")


def test_sketch_names_are_registered():
    for name in SKETCH_BACKENDS:
        assert name in BACKEND_NAMES
