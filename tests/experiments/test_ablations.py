"""Ablations of the design choices and CoTS mechanism knobs.

Not part of the paper's evaluation — these probe the robustness of the
reproduced shapes and isolate the causal levers behind them:

* **lock kind** — §4.3 notes spin locks performed *worse* than mutexes
  for the shared design, because waiters also burn CPU;
* **hybrid** — §4.4 argues the local+global hybrid degenerates toward a
  parent design at either end of the skew spectrum;
* **merge strategy** — §4.1/4.3: hierarchical merge does not beat serial
  merge in practice because of the per-level barriers;
* **cost-model sensitivity** — scaling every cost constant together must
  not change any ordering (the shapes come from structure, not from the
  calibration);
* **search structure** — §5.2.1: open addressing pays tombstone rehashes
  under eviction churn that the chained table never needs;
* **lean camp** — a 64-context UltraSPARC-T2-like machine (the paper's
  future work) runs the CoTS framework without protocol issues;
* **sync latency** — the per-element off-core overhead is what
  oversubscription hides; with it removed, thread counts beyond the
  core count stop helping (the growth mechanism disappears);
* **cursor batch** — claiming one element per atomic fetch-add turns the
  shared stream cursor into a serialized hot line; batching amortizes it;
* **counter capacity** — a tighter budget means more Overwrite traffic
  through the minimum bucket, the structure's documented hotspot.
"""

from repro.cots.framework import CoTSRunConfig, run_cots
from repro.experiments import ExperimentScale
from repro.parallel import (
    SchemeConfig,
    run_hybrid,
    run_independent,
    run_sequential,
    run_shared,
)
from repro.simcore import CostModel, MachineSpec
from repro.workloads import churn_stream, zipf_stream

TINY = ExperimentScale.tiny()


def _zipf(length: int, alpha: float, scale: ExperimentScale = TINY):
    return zipf_stream(length, scale.alphabet, alpha, seed=scale.seed)


def test_ablation_spin_locks_burn_cpu():
    """Spin waiters contend for the CPU (§4.3's complaint about spin).

    The paper observed spin locks performing *worse* overall on its
    saturated 4-core box; in the simulator's scaled runs the short
    critical sections let spin win on wall time (the classic
    short-section trade-off), but the paper's underlying mechanism is
    still visible and asserted here: spinning burns strictly more
    aggregate CPU than blocking for the same work.  See EXPERIMENTS.md
    for the recorded deviation.
    """
    stream = _zipf(TINY.profile_stream, 2.5)
    config = SchemeConfig(threads=8, capacity=TINY.capacity)
    mutex = run_shared(stream, config, lock_kind="mutex")
    config = SchemeConfig(threads=8, capacity=TINY.capacity)
    spin = run_shared(stream, config, lock_kind="spin")

    def busy(result):
        return sum(t.busy_cycles for t in result.execution.threads.values())

    retries = sum(t.spin_retries for t in spin.execution.threads.values())
    assert retries > 0
    assert busy(spin) > busy(mutex)


def test_ablation_hybrid_between_parents():
    """The hybrid sits near a parent at both skew extremes (§4.4)."""
    for alpha in (1.2, 3.0):
        stream = _zipf(TINY.profile_stream, alpha)
        hybrid = run_hybrid(
            stream, SchemeConfig(threads=4, capacity=TINY.capacity)
        )
        shared = run_shared(
            stream, SchemeConfig(threads=4, capacity=TINY.capacity)
        )
        # the local cache can only help; it must never be dramatically
        # worse than the lock-based parent
        assert hybrid.seconds < shared.seconds * 1.5


def test_ablation_hierarchical_merge_no_better():
    """Hierarchical merge does not beat serial merge (barrier overhead)."""
    stream = _zipf(TINY.profile_stream, 2.5)
    interval = TINY.query_interval(len(stream))
    serial = run_independent(
        stream,
        SchemeConfig(threads=8, capacity=TINY.capacity),
        merge_every=interval,
        strategy="serial",
    )
    hierarchical = run_independent(
        stream,
        SchemeConfig(threads=8, capacity=TINY.capacity),
        merge_every=interval,
        strategy="hierarchical",
    )
    assert hierarchical.seconds > serial.seconds * 0.6
    # both merges answer identically
    assert [e.element for e in serial.counter.top_k(5)] == [
        e.element for e in hierarchical.counter.top_k(5)
    ]


def test_ablation_cost_scaling_preserves_ordering():
    """Scaling every cost by 2x must not flip who wins at high skew.

    Runs at the default scale: the tiny stream is too short for CoTS to
    beat Sequential at all, so only there is the verdict meaningful.
    """
    scale = ExperimentScale.default()
    stream = _zipf(scale.fig11_stream, 3.0, scale)

    def compare(costs: CostModel):
        seq = run_sequential(
            stream, SchemeConfig(capacity=scale.capacity, costs=costs)
        )
        cots = run_cots(
            stream,
            CoTSRunConfig(
                threads=max(scale.cots_threads),
                capacity=scale.capacity,
                costs=costs,
            ),
        )
        return seq.seconds / cots.seconds

    base_win = compare(CostModel())
    scaled_win = compare(CostModel().scaled(2.0))
    assert base_win > 1.0
    assert scaled_win > 1.0
    # the verdict must be stable under uniform cost scaling
    assert 0.5 <= scaled_win / base_win <= 2.0


def test_ablation_open_addressing_suffers_under_churn():
    """§5.2.1's argument, measured: with constant eviction churn, the
    open-addressing search structure accumulates tombstones and pays
    stop-the-world rehashes that the chained table never needs."""
    from repro.cots.open_table import OpenAddressingTable

    stream = churn_stream(TINY.profile_stream)
    chained = run_cots(stream, CoTSRunConfig(threads=8, capacity=16))
    open_run = run_cots(
        stream,
        CoTSRunConfig(threads=8, capacity=16, table_size=64),
        table_cls=OpenAddressingTable,
    )
    table = open_run.extras["framework"].table
    # the chained table needs no rehash, ever; the open table pays
    # stop-the-world rebuilds whose cost shows directly in its telemetry
    assert table.rehashes > 0
    assert table.rehash_cycles > 0
    # wall-time penalty is visible whenever the search structure is on the
    # critical path; when the minimum-bucket overwrite chain dominates
    # instead, the two come out close — the open design must never win
    # meaningfully
    assert open_run.seconds > chained.seconds * 0.95


def test_ablation_lean_camp_machine():
    """CoTS on a 64-context 'lean camp' machine stays correct."""
    stream = _zipf(TINY.fig11_stream, 2.5)
    result = run_cots(
        stream,
        CoTSRunConfig(
            threads=128,
            capacity=TINY.capacity,
            machine=MachineSpec.lean_camp(),
        ),
    )
    assert result.counter.summary.total_count == len(stream)


def test_ablation_latency_drives_oversubscription_gains():
    stream = _zipf(TINY.fig11_stream, 2.5)

    def speedup(latency: int) -> float:
        costs = CostModel().replace(sync_latency=latency)
        few = run_cots(
            stream,
            CoTSRunConfig(threads=4, capacity=TINY.capacity, costs=costs),
        )
        many = run_cots(
            stream,
            CoTSRunConfig(threads=128, capacity=TINY.capacity, costs=costs),
        )
        return few.seconds / many.seconds

    with_latency = speedup(CostModel().sync_latency)
    without_latency = speedup(0)
    # hiding latency is the growth mechanism: removing it must collapse
    # the oversubscription benefit
    assert with_latency > 2.0
    assert without_latency < with_latency / 2


def test_ablation_cursor_batching():
    stream = _zipf(TINY.fig11_stream, 2.5)
    results = {
        batch: run_cots(
            stream,
            CoTSRunConfig(threads=64, capacity=TINY.capacity, batch=batch),
        )
        for batch in (1, 32, 256)
    }
    events = {batch: r.execution.events for batch, r in results.items()}
    # per-element claiming costs one serialized cursor RMW per element:
    # strictly more engine events than batched claiming, at identical
    # results.  (Over-batching is its own problem — fewer active threads
    # mean fewer delegations and more full-cost crossings — so only the
    # 1-vs-32 comparison is asserted.)
    assert events[1] > events[32]
    top = {b: [e.element for e in r.counter.top_k(3)] for b, r in results.items()}
    assert top[1] == top[32] == top[256]


def test_ablation_capacity_pressure():
    """A tight counter budget forces min-bucket overwrite traffic."""
    stream = _zipf(TINY.fig11_stream, 1.5)
    tight = run_cots(stream, CoTSRunConfig(threads=32, capacity=16))
    roomy = run_cots(
        stream, CoTSRunConfig(threads=32, capacity=TINY.capacity * 4)
    )
    tight_ovw = tight.extras["stats"].get("overwrites", 0)
    roomy_ovw = roomy.extras["stats"].get("overwrites", 0)
    assert tight_ovw > roomy_ovw
    # both runs stay correct regardless of pressure
    assert tight.counter.summary.total_count == len(stream)
    assert roomy.counter.summary.total_count == len(stream)
