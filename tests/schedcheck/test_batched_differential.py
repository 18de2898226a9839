"""Batched fast lanes vs per-element processing under perturbed schedules.

The batched lanes (``SpaceSaving.process_many`` and the CoTS
pre-aggregated bulk delegations) are pure optimizations: under any
schedule the perturber can produce, their answers must stay equivalent
to the per-element paths — exactly equal for the sequential structure,
within the paper's error bounds for the concurrent framework.
"""

import itertools

import pytest

from repro.core.space_saving import SpaceSaving
from repro.obs.registry import MetricsRegistry
from repro.schedcheck.adapters import HarnessParams, get_scheme
from repro.schedcheck.auditor import EXACT, audit_counts, audit_differential
from repro.schedcheck.explorer import ExploreConfig, run_schedule
from repro.schedcheck.perturb import SchedulePerturber, jittered_costs
from repro.simcore.engine import Engine
from repro.workloads import hot_set_churn_stream, zipf_stream

_CONFIG = ExploreConfig(
    schedules=1, seed=0, length=500, alphabet=100, threads=4, capacity=32,
    cores=2, check_every=256,
)


def _perturbed_result(scheme, stream, seed_key):
    """One perturbed run of ``scheme``, returning the driver result."""
    spec = get_scheme(scheme)
    costs = jittered_costs(_CONFIG.costs, seed_key, _CONFIG.jitter)
    perturber = SchedulePerturber(
        seed_key, _CONFIG.reorder_p, _CONFIG.preempt_p
    )
    params = HarnessParams(
        threads=_CONFIG.threads,
        capacity=_CONFIG.capacity,
        machine=_CONFIG.machine(),
        costs=costs,
        engine_factory=lambda machine, costs_: Engine(
            machine=machine, costs=costs_, sched_policy=perturber
        ),
    )
    return spec.run(stream, params)


@pytest.mark.parametrize("index", [0, 1, 2])
def test_preaggregated_cots_matches_per_element(index):
    """Same perturbed seed, batched vs per-element delegation lanes."""
    stream = _CONFIG.make_stream()
    seed_key = f"batchdiff:{index}"
    plain = _perturbed_result("cots", stream, seed_key)
    batched = _perturbed_result("cots-pre", stream, seed_key)
    # both lanes conserve and obey the exact-tolerance bounds...
    audit_counts(plain.counter, stream, "cots", EXACT)
    audit_counts(batched.counter, stream, "cots-pre", EXACT)
    # ...and they differ from *each other* by at most the two over-
    # estimation budgets (differential with the sibling as reference)
    audit_differential(
        batched.counter, stream, "cots-pre", EXACT,
        reference=plain.counter,
    )


@pytest.mark.parametrize("index", [0, 1])
def test_preaggregated_cots_passes_full_schedcheck(index):
    """The cots-pre lane survives the complete audited run_schedule."""
    stream = _CONFIG.make_stream()
    outcome = run_schedule(
        get_scheme("cots-pre"), stream, _CONFIG,
        _CONFIG.sub_seed("cots-pre", index), index=index,
    )
    assert outcome.ok, outcome.error
    assert outcome.decisions  # the schedule really was perturbed


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_process_many_identical_to_per_element(seed):
    """The structure-level bulk lane is bit-identical to the loop."""
    stream = zipf_stream(2000, 300, 1.4, seed=seed)
    loop = SpaceSaving(capacity=48)
    for element in stream:
        loop.process(element)
    bulk = SpaceSaving(capacity=48)
    bulk.process_many(stream)
    assert bulk.processed == loop.processed
    state = lambda c: sorted(
        (e.element, e.count, e.error) for e in c.entries()
    )
    assert state(bulk) == state(loop)


def test_process_many_chunking_is_invariant():
    """Feeding the same stream in odd-sized chunks changes nothing."""
    stream = zipf_stream(1500, 200, 2.0, seed=9)
    whole = SpaceSaving(capacity=32)
    whole.process_many(stream)
    chunked = SpaceSaving(capacity=32)
    i = 0
    for size in [1, 7, 64, 501, 13]:
        while i < len(stream):
            chunked.process_many(stream[i : i + size])
            i += size
    assert sorted(
        (e.element, e.count, e.error) for e in whole.entries()
    ) == sorted((e.element, e.count, e.error) for e in chunked.entries())


# ----------------------------------------------------------------------
# ordered equality: bucket-internal order decides later eviction victims
# ----------------------------------------------------------------------
def _ordered(counter):
    """Entries in query order, element types included: the order inside
    a bucket decides which key the next overwrite evicts."""
    return [
        (type(e.element), e.element, e.count, e.error)
        for e in counter.entries()
    ]


def _loop(stream, capacity, metrics=None):
    counter = SpaceSaving(capacity=capacity, metrics=metrics)
    for element in stream:
        counter.process(element)
    return counter


def _batched(stream, capacity):
    counter = SpaceSaving(capacity=capacity)
    start = 0
    for size in itertools.cycle([1, 7, 64, 501, 13, 4097, 3]):
        if start >= len(stream):
            return counter
        counter.process_many(stream[start:start + size])
        start += size


def _weighted(stream, capacity):
    counter = SpaceSaving(capacity=capacity)
    counter.process_weighted(
        (element, len(list(run))) for element, run in itertools.groupby(stream)
    )
    return counter


_ORDERED_CASES = [
    pytest.param(
        hot_set_churn_stream(
            12_000, alphabet=3_000, hot_fraction=0.15, rotate_every=1_500,
            seed=3,
        ),
        16,
        id="churn-cap16",
    ),
    pytest.param(
        hot_set_churn_stream(12_000, alphabet=3_000, seed=4), 48,
        id="hot-churn-cap48",
    ),
    pytest.param(zipf_stream(40_000, 5_000, 1.2, seed=6), 2048, id="zipf-s6"),
    pytest.param(zipf_stream(9_000, 600, 2.0, seed=1), 64, id="zipf-a2.0"),
    pytest.param(zipf_stream(9_000, 2_000, 0.8, seed=2), 128, id="zipf-a0.8"),
    pytest.param(zipf_stream(9_000, 500, 1.4, seed=5), 400, id="zipf-fits"),
]


@pytest.mark.parametrize("stream, capacity", _ORDERED_CASES)
@pytest.mark.parametrize("lane", ["whole", "batches", "weighted"])
def test_batched_lanes_match_the_loop_in_order(stream, capacity, lane):
    """``process_many`` (whole or in odd-sized batches) and
    ``process_weighted`` fed the stream's runs end in the per-element
    loop's exact ordered state, overwrite-heavy streams included."""
    loop = _loop(stream, capacity)
    if lane == "whole":
        fast = SpaceSaving(capacity=capacity)
        fast.process_many(stream)
    elif lane == "batches":
        fast = _batched(stream, capacity)
    else:
        fast = _weighted(stream, capacity)
    fast.summary.check_invariants()
    assert fast.processed == loop.processed == len(stream)
    assert _ordered(fast) == _ordered(loop)


def test_preaggregated_lane_keeps_the_loops_eviction_victim():
    """Bulk updates applied in first-occurrence order used to reorder a
    bucket, so a later overwrite evicted a different key: this stream
    once ended one ``(element, count, error)`` triple away from the
    loop, as a *set*."""
    stream = zipf_stream(40_000, 5_000, 1.2, seed=6)
    fast = SpaceSaving(capacity=2048)
    fast.process_many(stream)
    assert set(_ordered(fast)) == set(_ordered(_loop(stream, 2048)))


def test_preaggregated_lane_inserts_the_first_occurrence():
    """Equal keys of different types (``1``, ``1.0``, ``True``) are one
    counter; the bulk lane monitors it under the first occurrence, as
    the loop does."""
    stream = [1.0, 2, 1, True, 3, 2.0, 1, 3.0, 5] * 3
    fast = SpaceSaving(capacity=10)
    fast.process_many(stream)
    assert _ordered(fast) == _ordered(_loop(stream, 10))
    assert type(fast.entries()[0].element) is float


def test_fused_lane_counts_operations_like_the_loop():
    """Without equal neighbours every run is one element, so the fused
    lane's Algorithm 1 operation counters match the per-element loop's
    (the in-place overwrite counts as one overwrite, not an evict plus
    an insert)."""
    raw = hot_set_churn_stream(
        10_000, alphabet=4_000, hot_fraction=0.3, rotate_every=800, seed=2
    )
    stream = [element for element, _ in itertools.groupby(raw)]
    assert len(stream) < len(raw)  # the stream did have runs to drop
    loop_metrics, fast_metrics = MetricsRegistry(), MetricsRegistry()
    loop = _loop(stream, 24, metrics=loop_metrics)
    fast = SpaceSaving(capacity=24, metrics=fast_metrics)
    fast.process_many(stream)
    names = ("increments", "inserts", "overwrites", "min_bucket_hits",
             "occurrences")
    counters = lambda registry: {  # noqa: E731
        name: registry.snapshot()["counters"][f"core.spacesaving.{name}"]
        for name in names
    }
    assert counters(fast_metrics) == counters(loop_metrics)
    assert counters(fast_metrics)["overwrites"] > len(stream) // 2
    assert _ordered(fast) == _ordered(loop)
