"""The shm data plane against sequential Space Saving under adversaries.

Extends ``tests/mp/test_shm.py``'s ample-capacity parity matrix beyond
uniform zipf: the two adversarial streams (hot-key flood, eviction
poisoning) are exactly the shapes that stress the plane's chunk
pre-aggregation — near-distinct singleton floods produce almost no
within-chunk dedup, attack bursts produce extreme dedup — so the merged
shard summaries must still agree with sequential Space Saving:

* **exactly** (same multiset of exact counts) when capacity is ample,
  because then no eviction ever happens and within-chunk reordering
  cannot show;
* **within the documented Space Saving equivalence bounds** at the
  adversary's targeted tight capacity, where eviction runs hot; and the
  merged summary must pass the accuracy audit with zero guarantee
  violations.
"""

import collections

import pytest

from repro.core.space_saving import SpaceSaving
from repro.mp import MPConfig, run_mp, summaries_equivalent
from repro.scenarios import SCENARIOS, ScenarioParams, score_accuracy
from repro.testing import seed_matrix

ADVERSARIAL = sorted(
    name for name, s in SCENARIOS.items() if s.kind == "adversarial"
)

_PARAMS = ScenarioParams(length=2_500, alphabet=300, capacity=32, seed=7)


def _canonical(counter):
    return sorted(
        (str(e.element), e.count, e.error) for e in counter.entries()
    )


def _run(stream, capacity):
    return run_mp(
        stream, MPConfig(workers=3, capacity=capacity, chunk_elements=512)
    )


def _sequential(stream, capacity):
    counter = SpaceSaving(capacity=capacity)
    counter.process_many(stream)
    return counter


def test_adversarial_matrix_is_nonempty():
    assert ADVERSARIAL == ["eviction-poison", "hot-key-flood"]


@pytest.mark.parametrize("name", ADVERSARIAL)
def test_transports_match_exactly_at_ample_capacity(name):
    """Capacity above the distinct-key count: the shm plane and
    sequential Space Saving must produce the identical multiset of
    exact counts, even though the poison stream is ~95% singletons
    (worst case for chunk dedup)."""
    stream = SCENARIOS[name].build(_PARAMS)
    ample = len(set(stream)) + 16
    shm = _run(stream, ample)
    sequential = _sequential(stream, ample)
    assert _canonical(shm.counter) == _canonical(sequential)
    assert shm.elements == sequential.processed == len(stream)
    # ample capacity means exact counts: zero error against truth
    truth = collections.Counter(stream)
    assert all(
        e.count == truth[e.element] for e in shm.counter.entries()
    )


@pytest.mark.parametrize("name", ADVERSARIAL)
@pytest.mark.parametrize("seed", seed_matrix(7, 31))
def test_transports_equivalent_at_the_attacked_capacity(name, seed):
    """At the adversary's own target capacity eviction churns hard; the
    shm plane may order differently inside chunks but must stay within
    the documented equivalence bounds of the sequential reference —
    with a clean accuracy audit."""
    params = ScenarioParams(
        length=_PARAMS.length,
        alphabet=_PARAMS.alphabet,
        capacity=_PARAMS.capacity,
        seed=seed,
    )
    stream = SCENARIOS[name].build(params)
    sequential = _sequential(stream, params.capacity)
    truth = collections.Counter(stream)
    merged = _run(stream, params.capacity).counter
    report = score_accuracy(merged, truth, k=10, merged=True)
    assert report.guarantee_violations == 0, name
    assert report.max_underestimate == 0, name
    assert summaries_equivalent(sequential, merged, k=10)
    assert merged.processed == sequential.processed
