"""Cross-scheme integration tests: every design, one stream, one truth.

The deepest consistency check in the repository: the sequential
baseline, both naive parallel schemes, the hybrid and the CoTS
framework all process the *same* stream, and all of their answers must
agree with the exact ground truth on the questions Space Saving
guarantees (heavy hitters, upper bounds, count conservation).
"""

import pytest

from repro.core.counters import ExactCounter
from repro.cots.framework import CoTSRunConfig, run_cots
from repro.parallel import (
    SchemeConfig,
    run_hybrid,
    run_independent,
    run_sequential,
    run_shared,
)
from repro.workloads import zipf_stream

CAPACITY = 64


@pytest.fixture(scope="module")
def stream():
    return zipf_stream(3000, 3000, 2.2, seed=77)


@pytest.fixture(scope="module")
def exact(stream):
    counter = ExactCounter()
    counter.process_many(stream)
    return counter


@pytest.fixture(scope="module")
def all_results(stream):
    config = lambda threads: SchemeConfig(threads=threads, capacity=CAPACITY)
    return {
        "sequential": run_sequential(stream, config(1)),
        "independent": run_independent(stream, config(4), merge_every=300),
        "shared": run_shared(stream, config(4)),
        "hybrid": run_hybrid(stream, config(4)),
        "cots": run_cots(
            stream, CoTSRunConfig(threads=16, capacity=CAPACITY)
        ),
    }


def test_every_scheme_identifies_the_same_top3(all_results, exact):
    expected = [element for element, _ in exact.top_k(3)]
    for name, result in all_results.items():
        got = [entry.element for entry in result.counter.top_k(3)]
        assert got == expected, f"{name} disagreed on the top-3"


def test_every_scheme_upper_bounds_heavy_hitters(all_results, exact):
    for name, result in all_results.items():
        for element, truth in exact.top_k(10):
            assert result.counter.estimate(element) >= truth, (
                f"{name} underestimated {element}"
            )


def test_single_structure_schemes_conserve_counts(all_results, stream):
    for name in ("sequential", "shared", "hybrid", "cots"):
        result = all_results[name]
        assert result.counter.summary.total_count == len(stream), name


def test_every_scheme_respects_capacity(all_results):
    for name, result in all_results.items():
        assert len(result.counter) <= CAPACITY, name


def test_performance_ordering_matches_the_paper(all_results):
    """At 4 threads on skewed data: shared is the slowest design."""
    shared = all_results["shared"].seconds
    sequential = all_results["sequential"].seconds
    assert shared > sequential
    assert all_results["hybrid"].seconds < shared
