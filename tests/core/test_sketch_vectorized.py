"""Differential tests: vectorized sketch kernels vs the scalar paths.

The vectorized lanes must be *bit-exact* against the scalar reference —
same hash cells, same table, same estimates — so every test here
compares full tables, not just top-k answers.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys

import numpy as np
import pytest

from repro.core.sketches.count_min import CountMinSketch, _UniversalHash
from repro.core.sketches.kernels import (
    MERSENNE_PRIME,
    collision_free_groups,
    row_hashes,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))


def _random_codes(rng, n):
    """Codes spanning the full int64 coding range, both parities."""
    small = rng.integers(-(1 << 20), 1 << 20, size=n // 2)
    big = rng.integers(-(1 << 62), 1 << 62, size=n - n // 2)
    codes = np.concatenate([small, big])
    rng.shuffle(codes)
    return codes.astype(np.int64)


class TestRowHashKernel:
    def test_matches_scalar_universal_hash(self):
        rng = np.random.default_rng(5)
        codes = _random_codes(rng, 500)
        width = 1237
        hashes = [_UniversalHash(random.Random(900 + row), width)
                  for row in range(4)]
        a = np.array([h.a for h in hashes], dtype=np.uint64)
        b = np.array([h.b for h in hashes], dtype=np.uint64)
        cells = row_hashes(codes, a, b, width)
        for row, h in enumerate(hashes):
            expected = [h(int(code)) for code in codes]
            assert cells[row].tolist() == expected

    def test_boundary_codes(self):
        h = _UniversalHash(random.Random(3), 97)
        a = np.array([h.a], dtype=np.uint64)
        b = np.array([h.b], dtype=np.uint64)
        edge = np.array(
            [0, 1, -1, MERSENNE_PRIME - 1, MERSENNE_PRIME,
             MERSENNE_PRIME + 1, (1 << 62) - 1, -(1 << 62)],
            dtype=np.int64,
        )
        cells = row_hashes(edge, a, b, 97)
        assert cells[0].tolist() == [h(int(code)) for code in edge]


class TestCollisionFreeGroups:
    def test_groups_partition_the_batch(self):
        rng = np.random.default_rng(9)
        cells = rng.integers(0, 7, size=(3, 64)).astype(np.intp)
        spans = list(collision_free_groups(cells))
        assert spans[0][0] == 0
        assert spans[-1][1] == 64
        for (_, stop), (nxt, _) in zip(spans, spans[1:]):
            assert stop == nxt

    def test_no_duplicate_cell_within_group(self):
        rng = np.random.default_rng(10)
        cells = rng.integers(0, 5, size=(4, 80)).astype(np.intp)
        for start, stop in collision_free_groups(cells):
            for row in cells:
                segment = row[start:stop].tolist()
                assert len(segment) == len(set(segment))

    def test_collision_free_batch_is_one_group(self):
        cells = np.arange(24, dtype=np.intp).reshape(2, 12) % 101
        assert list(collision_free_groups(cells)) == [(0, 12)]


def _chunked(stream, size=257):
    for index in range(0, len(stream), size):
        yield stream[index:index + size]


class TestCountMinDifferential:
    @pytest.mark.parametrize("conservative", [False, True])
    def test_vectorized_table_matches_scalar(self, mild_stream,
                                             conservative):
        scalar = CountMinSketch(epsilon=0.005, delta=0.05, seed=21,
                                conservative=conservative)
        vector = CountMinSketch(epsilon=0.005, delta=0.05, seed=21,
                                conservative=conservative)
        for chunk in _chunked(mild_stream):
            codes, weights = vector.codec.encode_chunk(chunk)
            vector.process_weighted(codes, weights)
            # same coded order is the scalar reference semantics
            scalar_codes = [scalar.codec.encode_one(e) for e in chunk]
            assert sorted(set(scalar_codes)) == sorted(codes.tolist())
            for code, weight in zip(codes.tolist(), weights.tolist()):
                scalar.update_code(code, weight)
        assert np.array_equal(scalar.table, vector.table)
        assert scalar.processed == vector.processed == len(mild_stream)
        for element in set(mild_stream[:200]):
            assert scalar.estimate(element) == vector.estimate(element)

    def test_process_many_preaggregates(self, mild_stream):
        """Satellite: one update per distinct element, same table."""
        per_element = CountMinSketch(epsilon=0.01, delta=0.05, seed=4)
        preagg = CountMinSketch(epsilon=0.01, delta=0.05, seed=4)
        for element in mild_stream:
            per_element.update(element, 1)
        preagg.process_many(mild_stream)
        assert np.array_equal(per_element.table, preagg.table)
        assert per_element.processed == preagg.processed

    def test_estimates_never_underestimate(self, mild_stream,
                                           exact_mild):
        sketch = CountMinSketch(epsilon=0.002, delta=0.01, seed=2)
        codes, weights = sketch.codec.encode_chunk(mild_stream)
        sketch.process_weighted(codes, weights)
        for element, truth in exact_mild.counts().items():
            assert sketch.estimate(element) >= truth
            assert sketch.estimate(element) <= truth + sketch.error_bound()


_DETERMINISM_SNIPPET = """
import json, sys
from repro.core.sketches.count_min import CountMinSketch
sketch = CountMinSketch(epsilon=0.01, delta=0.05, seed=77)
stream = [f"key-{i % 53}" for i in range(4000)] + [("t", i % 7) for i in range(500)]
sketch.process_many(stream)
table = sketch.table.ravel().tolist()
estimates = [sketch.estimate(f"key-{i}") for i in range(53)]
json.dump({"table": table, "estimates": estimates}, sys.stdout)
"""


class TestHashSeedIndependence:
    """Satellite: sketches no longer depend on builtin ``hash()``.

    The same string-keyed stream must produce the *identical* table in
    subprocesses launched with different ``PYTHONHASHSEED`` values —
    the historical bug made cross-process merges silently meaningless.
    """

    def _run(self, hash_seed):
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = hash_seed
        env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
        result = subprocess.run(
            [sys.executable, "-c", _DETERMINISM_SNIPPET],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        return result.stdout

    def test_table_identical_across_hash_seeds(self):
        first = self._run("0")
        second = self._run("12345")
        third = self._run("random")
        assert first == second == third
