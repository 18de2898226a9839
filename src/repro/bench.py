"""Reproducible performance harness: ``python -m repro bench``.

Runs a pinned suite of benchmarks and writes the results to a JSON file
so performance can be tracked *across PRs* — each run records enough
environment detail (python version, platform, workload parameters, peak
RSS) to make trajectory comparisons honest.

Three suites (``--suite``):

* ``core`` (→ ``BENCH_core.json``) — the original families:

  * **Wall-clock hot path** — the raw Python Space Saving loop,
    per-element (``process`` in a loop, the seed implementation's only
    lane) versus the batched fast lane (``process_many``).  Both consume
    the identical pinned zipf stream; the harness asserts the final
    summaries are identical (same (element, count, error) triples and
    processed count) and reports the speedup.
  * **Simulated schemes** — every parallelization design of the paper
    run on the simulated CMP: sequential, shared (mutex and spin),
    independent (serial merge), hybrid, CoTS, and CoTS with the
    pre-aggregated batch claim.  For each we record the simulated
    makespan/throughput *and* the host wall-clock cost of simulating it.

* ``mp`` (→ ``BENCH_mp.json``) — the *real-parallelism* scaling curve:
  the multiprocess sharded backend (:mod:`repro.mp`) at a pinned ladder
  of worker counts versus the sequential batched baseline, recording
  wall seconds, throughput, speedup, startup cost, and a
  result-equivalence check (merged top-k within the documented Space
  Saving merge error bounds of the sequential answer).  Unlike the
  simulated numbers these genuinely depend on the host's core count,
  which the report records as ``host_cores``.

* ``scenarios`` (→ ``BENCH_scenarios.json``) — the *accuracy* matrix:
  every scenario in :mod:`repro.scenarios` (drift, flash crowds, hot-set
  churn, and the two adversaries) counted by every engine of the
  backend registry, scored against exact ground truth.  Gated on zero
  guarantee violations, never on timing;
  see docs/scenarios.md.

Every result entry also records ``peak_rss_kb`` — the process-tree
high-water RSS (``resource.getrusage``, self + children) at the moment
the measurement finished — so memory scaling is tracked alongside
throughput.

The suites are deterministic apart from the timing numbers: streams are
seeded, thread/worker counts pinned, and every recorded counter state is
a pure function of the inputs.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import resource
import sys
import time
from typing import Any, Dict, List, Sequence

from repro.core.space_saving import SpaceSaving
from repro.errors import ConfigurationError
from repro.obs.registry import MetricsRegistry, merge_snapshots

#: bump when the JSON layout changes incompatibly
SCHEMA_VERSION = 1

#: suites runnable by ``run_suite`` and their default report files
SUITES = ("core", "mp", "scenarios", "sketch")

#: pinned workload parameters per scale preset
SCALES: Dict[str, Dict[str, int | float]] = {
    "tiny": {
        "hot_length": 50_000,
        "sim_length": 3_000,
        "alphabet": 2_000,
        "capacity": 64,
        "threads": 8,
        "alpha": 2.0,
        "seed": 7,
        "repeats": 3,
    },
    "default": {
        "hot_length": 500_000,
        "sim_length": 20_000,
        "alphabet": 20_000,
        "capacity": 256,
        "threads": 16,
        "alpha": 2.0,
        "seed": 7,
        "repeats": 3,
    },
    "large": {
        "hot_length": 2_000_000,
        "sim_length": 100_000,
        "alphabet": 100_000,
        "capacity": 1024,
        "threads": 32,
        "alpha": 2.0,
        "seed": 7,
        "repeats": 3,
    },
}


#: pinned workload parameters of the ``mp`` suite per scale preset.
#: ``alpha`` is milder than the core suite's 2.0 because hash sharding
#: sends all occurrences of one element to one worker: at alpha=2.0 the
#: top element alone is most of the stream, so one shard would carry
#: nearly all the work and no backend could scale (a real load-imbalance
#: limit of domain splitting, see docs/benchmarks.md).
#: ``chunk_elements`` doubles as the dedup window of the shm plane's
#: chunk pre-aggregation: bigger chunks repeat the hot elements more,
#: so fewer distinct (code, weight) pairs reach the workers per stream
#: element (it also sizes the ring segments at 16 bytes per slot).
MP_SCALES: Dict[str, Dict[str, Any]] = {
    "tiny": {
        "mp_length": 60_000,
        "alphabet": 4_000,
        "capacity": 128,
        "chunk_elements": 8_192,
        "workers": [1, 2],
        "alpha": 1.1,
        "seed": 7,
        "repeats": 1,
        "timeout": 120.0,
    },
    "default": {
        "mp_length": 2_000_000,
        "alphabet": 50_000,
        "capacity": 256,
        "chunk_elements": 524_288,
        "workers": [1, 2, 4, 8],
        "alpha": 1.1,
        "seed": 7,
        "repeats": 2,
        "timeout": 300.0,
    },
    "large": {
        "mp_length": 8_000_000,
        "alphabet": 200_000,
        "capacity": 1_024,
        "chunk_elements": 524_288,
        "workers": [1, 2, 4, 8, 16],
        "alpha": 1.1,
        "seed": 7,
        "repeats": 2,
        "timeout": 600.0,
    },
}


#: pinned parameters of the ``scenarios`` accuracy matrix per scale.
#: The ``smoke`` preset is the CI gate (every scenario on every backend
#: in well under a minute); the other presets deepen the streams.  The
#: gate is accuracy, never timing: guarantee violations must be zero on
#: every cell, benign or adversarial.
SCENARIO_SCALES: Dict[str, Dict[str, Any]] = {
    "smoke": {
        "length": 4_000,
        "alphabet": 500,
        "capacity": 64,
        "k": 10,
        "threads": 4,
        "workers": 2,
        "seed": 7,
    },
    "tiny": {
        "length": 4_000,
        "alphabet": 500,
        "capacity": 64,
        "k": 10,
        "threads": 4,
        "workers": 2,
        "seed": 7,
    },
    "default": {
        "length": 20_000,
        "alphabet": 2_000,
        "capacity": 128,
        "k": 10,
        "threads": 8,
        "workers": 2,
        "seed": 7,
    },
    "large": {
        "length": 100_000,
        "alphabet": 10_000,
        "capacity": 256,
        "k": 10,
        "threads": 8,
        "workers": 4,
        "seed": 7,
    },
}

#: pinned parameters of the ``sketch`` ladder per scale preset.  The
#: ladder climbs the PR 8 perf story: scalar Count-Min per element →
#: Counter pre-aggregation → the vectorized NumPy kernel (gated ≥ 3×
#: over per-element, tables bit-identical) → the one-table mp mode at
#: 1/2/4/8 workers, where the zero-merge snapshot read is gated at
#: ≤ 10% of the sharded pool's snapshot+merge path and every rung must
#: be bound-compliant (no estimate below truth, widened ε·N respected).
#: ``alpha`` matches the mp suite's 1.1 for the same load-balance
#: reason (hash routing sends all of one element's traffic to one
#: band's home worker).
SKETCH_SCALES: Dict[str, Dict[str, Any]] = {
    "tiny": {
        "length": 60_000,
        "alphabet": 4_000,
        "alpha": 1.1,
        "capacity": 128,
        "chunk_elements": 8_192,
        "workers": [1, 2],
        "epsilon": 0.005,
        "delta": 0.05,
        "sketch_seed": 13,
        "seed": 7,
        "repeats": 1,
        "timeout": 120.0,
    },
    "default": {
        "length": 1_000_000,
        "alphabet": 50_000,
        "alpha": 1.1,
        "capacity": 256,
        "chunk_elements": 65_536,
        "workers": [1, 2, 4, 8],
        "epsilon": 0.001,
        "delta": 0.01,
        "sketch_seed": 13,
        "seed": 7,
        "repeats": 2,
        "timeout": 300.0,
    },
    "large": {
        "length": 4_000_000,
        "alphabet": 200_000,
        "alpha": 1.1,
        "capacity": 1_024,
        "chunk_elements": 262_144,
        "workers": [1, 2, 4, 8],
        "epsilon": 0.0005,
        "delta": 0.01,
        "sketch_seed": 13,
        "seed": 7,
        "repeats": 2,
        "timeout": 600.0,
    },
}

# ``--scale smoke`` is the documented CI spelling for the scenarios
# suite; alias it on the other suites so the flag means "smallest rung"
# everywhere instead of failing on the other suites.
SCALES["smoke"] = SCALES["tiny"]
MP_SCALES["smoke"] = MP_SCALES["tiny"]
SKETCH_SCALES["smoke"] = SKETCH_SCALES["tiny"]


def _peak_rss_kb() -> int:
    """Process-tree peak RSS in KiB (self and reaped children).

    ``ru_maxrss`` is a high-water mark, so successive entries within one
    report are monotonically non-decreasing; compare entries *across*
    runs (same position, different PR), not within one report.
    """
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return int(max(self_kb, children_kb))


def _canonical_state(counter: SpaceSaving) -> List[tuple]:
    """Order-independent fingerprint of a summary's queryable state."""
    return sorted(
        (str(e.element), e.count, e.error) for e in counter.entries()
    )


def _best_of(repeats: int, fn) -> float:
    """Minimum wall-clock seconds over ``repeats`` runs of ``fn()``."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def _bench_hot_path(params: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Wall-clock: per-element loop versus the batched fast lane."""
    from repro.workloads.zipf import zipf_stream

    stream = zipf_stream(
        int(params["hot_length"]),
        int(params["alphabet"]),
        float(params["alpha"]),
        seed=int(params["seed"]),
    )
    capacity = int(params["capacity"])
    repeats = int(params["repeats"])

    per_element_holder: Dict[str, Any] = {}

    def run_per_element() -> None:
        registry = MetricsRegistry()
        counter = SpaceSaving(capacity=capacity, metrics=registry)
        process = counter.process
        for element in stream:
            process(element)
        per_element_holder["counter"] = counter
        per_element_holder["metrics"] = registry.snapshot()

    batched_holder: Dict[str, Any] = {}

    def run_batched() -> None:
        registry = MetricsRegistry()
        counter = SpaceSaving(capacity=capacity, metrics=registry)
        counter.process_many(stream)
        batched_holder["counter"] = counter
        batched_holder["metrics"] = registry.snapshot()

    per_element_secs = _best_of(repeats, run_per_element)
    per_element_rss = _peak_rss_kb()
    batched_secs = _best_of(repeats, run_batched)
    base = per_element_holder["counter"]
    fast = batched_holder["counter"]
    # ordered as well as canonical: the order inside a bucket decides
    # which key a later overwrite evicts, and a sorted state hides it
    identical = (
        _canonical_state(base) == _canonical_state(fast)
        and base.entries() == fast.entries()
        and base.processed == fast.processed
    )
    length = len(stream)
    return [
        {
            "name": "sequential-hot-path-per-element",
            "kind": "wallclock",
            "elements": length,
            "wall_seconds": per_element_secs,
            "throughput_eps": length / per_element_secs,
            "peak_rss_kb": per_element_rss,
            "metrics": per_element_holder["metrics"],
        },
        {
            "name": "sequential-hot-path-batched",
            "kind": "wallclock",
            "elements": length,
            "wall_seconds": batched_secs,
            "throughput_eps": length / batched_secs,
            "speedup_vs_per_element": per_element_secs / batched_secs,
            "identical_results": identical,
            "peak_rss_kb": _peak_rss_kb(),
            "metrics": batched_holder["metrics"],
        },
    ]


def _bench_simulated(params: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Every parallel design on the simulated CMP, plus wall cost.

    Each entry embeds a ``metrics`` block: the simulator's time
    accounting (``sim.*``, via :func:`repro.simcore.stats.
    execution_metrics`) merged with whatever the driver itself recorded
    (``core.spacesaving.*`` for sequential, ``cots.*`` for the CoTS
    lanes) — the same snapshot schema the mp suite's real runs emit.
    """
    from repro.cots import CoTSRunConfig, run_cots
    from repro.parallel import (
        SchemeConfig,
        run_hybrid,
        run_independent,
        run_sequential,
        run_shared,
    )
    from repro.simcore.stats import execution_metrics
    from repro.workloads.zipf import zipf_stream

    length = int(params["sim_length"])
    stream = zipf_stream(
        length,
        int(params["alphabet"]),
        float(params["alpha"]),
        seed=int(params["seed"]),
    )
    threads = int(params["threads"])
    capacity = int(params["capacity"])

    def scheme_config(registry: MetricsRegistry) -> SchemeConfig:
        return SchemeConfig(
            threads=threads, capacity=capacity, metrics=registry
        )

    def cots_config(
        preaggregate: bool, registry: MetricsRegistry
    ) -> CoTSRunConfig:
        return CoTSRunConfig(
            threads=threads,
            capacity=capacity,
            preaggregate=preaggregate,
            metrics=registry,
        )

    runs = [
        ("sequential", lambda reg: run_sequential(stream, scheme_config(reg))),
        (
            "sequential-batched",
            lambda reg: run_sequential(stream, scheme_config(reg), batch=64),
        ),
        (
            "shared-mutex",
            lambda reg: run_shared(
                stream, scheme_config(reg), lock_kind="mutex"
            ),
        ),
        (
            "shared-spin",
            lambda reg: run_shared(
                stream, scheme_config(reg), lock_kind="spin"
            ),
        ),
        (
            "independent-serial",
            lambda reg: run_independent(
                stream,
                scheme_config(reg),
                merge_every=max(1, length // 10),
                strategy="serial",
            ),
        ),
        ("hybrid", lambda reg: run_hybrid(stream, scheme_config(reg))),
        ("cots", lambda reg: run_cots(stream, cots_config(False, reg))),
        ("cots-preagg", lambda reg: run_cots(stream, cots_config(True, reg))),
    ]
    entries = []
    for name, runner in runs:
        registry = MetricsRegistry()
        started = time.perf_counter()
        result = runner(registry)
        wall = time.perf_counter() - started
        entries.append(
            {
                "name": name,
                "kind": "simulated",
                "elements": length,
                "threads": result.threads,
                "sim_cycles": result.cycles,
                "sim_seconds": result.seconds,
                "sim_throughput_eps": result.throughput,
                "wall_seconds": wall,
                "wall_throughput_eps": length / wall,
                "peak_rss_kb": _peak_rss_kb(),
                "metrics": merge_snapshots(
                    execution_metrics(result.execution),
                    result.extras.get("metrics") or {},
                ),
            }
        )
    return entries


def _bench_mp(params: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Real wall-clock scaling: the multiprocess backend worker ladder.

    Every worker count runs the identical pinned stream; ``equivalent``
    asserts the merged answer is within the documented Space Saving
    merge error bounds of the sequential batched baseline (see
    :func:`repro.mp.driver.summaries_equivalent`).
    """
    from repro.mp import MPConfig, run_mp, summaries_equivalent
    from repro.workloads.zipf import zipf_stream

    length = int(params["mp_length"])
    stream = zipf_stream(
        length,
        int(params["alphabet"]),
        float(params["alpha"]),
        seed=int(params["seed"]),
    )
    capacity = int(params["capacity"])
    repeats = int(params["repeats"])

    baseline_holder: Dict[str, Any] = {}

    def run_baseline() -> None:
        registry = MetricsRegistry()
        counter = SpaceSaving(capacity=capacity, metrics=registry)
        counter.process_many(stream)
        baseline_holder["counter"] = counter
        baseline_holder["metrics"] = registry.snapshot()

    baseline_secs = _best_of(repeats, run_baseline)
    baseline = baseline_holder["counter"]
    entries: List[Dict[str, Any]] = [
        {
            "name": "mp-sequential-batched",
            "kind": "wallclock",
            "elements": length,
            "wall_seconds": baseline_secs,
            "throughput_eps": length / baseline_secs,
            "peak_rss_kb": _peak_rss_kb(),
            "metrics": baseline_holder["metrics"],
        }
    ]
    for workers in params["workers"]:
        config = MPConfig(
            workers=int(workers),
            capacity=capacity,
            chunk_elements=int(params["chunk_elements"]),
            timeout=float(params["timeout"]),
        )
        best = None
        for _ in range(repeats):
            result = run_mp(stream, config, metrics=MetricsRegistry())
            if best is None or result.wall_seconds < best.wall_seconds:
                best = result
        entries.append(
            {
                "name": f"mp-sharded-{workers}w",
                "kind": "mp",
                "elements": length,
                "workers": int(workers),
                "wall_seconds": best.wall_seconds,
                "startup_seconds": best.startup_seconds,
                "throughput_eps": best.throughput,
                "speedup_vs_sequential": baseline_secs / best.wall_seconds,
                "equivalent": summaries_equivalent(
                    baseline, best.counter, k=10
                ),
                "peak_rss_kb": _peak_rss_kb(),
                "metrics": best.extras.get("metrics") or {},
            }
        )
    return entries


def _bench_scenarios(params: Dict[str, Any]) -> List[Dict[str, Any]]:
    """The accuracy matrix: every registered scenario on every backend.

    Unlike the other suites this one is gated on *accuracy*, not speed:
    each cell records recall/precision@k against exact ground truth, the
    worst over/under-estimate versus the ε·N bound, and the hard
    guarantee-violation count — which must be zero everywhere, including
    (especially) the adversarial rows, because the adversaries are built
    to saturate Space Saving's bounds, not to break them.
    """
    from repro.backend.registry import BACKEND_NAMES
    from repro.scenarios import SCENARIOS, ScenarioParams, run_scenario

    scenario_params = ScenarioParams(
        length=int(params["length"]),
        alphabet=int(params["alphabet"]),
        capacity=int(params["capacity"]),
        seed=int(params["seed"]),
    )
    k = int(params["k"])
    entries: List[Dict[str, Any]] = []
    for name in SCENARIOS:
        for backend in BACKEND_NAMES:
            run = run_scenario(
                name,
                backend,
                scenario_params,
                k=k,
                threads=int(params["threads"]),
                workers=int(params["workers"]),
                metrics=MetricsRegistry(),
            )
            accuracy = run.accuracy
            entries.append(
                {
                    "name": f"{name}-{backend}",
                    "kind": "scenario",
                    "scenario": name,
                    "scenario_kind": run.scenario_kind,
                    "backend": backend,
                    "elements": run.elements,
                    "distinct": run.distinct,
                    "k": k,
                    "recall_at_k": accuracy.recall_at_k,
                    "precision_at_k": accuracy.precision_at_k,
                    "max_overestimate": accuracy.max_overestimate,
                    "max_underestimate": accuracy.max_underestimate,
                    "error_bound": accuracy.error_bound,
                    "bound_excess": accuracy.bound_excess,
                    "guarantee_violations": accuracy.guarantee_violations,
                    "monitored": accuracy.monitored,
                    "wall_seconds": run.wall_seconds,
                    "throughput_eps": run.throughput_eps,
                    "peak_rss_kb": _peak_rss_kb(),
                    "metrics": run.metrics,
                }
            )
    return entries


def _bench_sketch(params: Dict[str, Any]) -> List[Dict[str, Any]]:
    """The sketch ladder: scalar → pre-agg → vectorized → one-table mp.

    The first three rungs are the kernel story (same seed, tables must
    stay bit-identical so the speedup is a pure implementation win);
    the mp rungs compare the one-table mode's zero-merge snapshot read
    against the sharded pool's snapshot+merge path at matched worker
    counts, with per-rung bound-compliance checked against exact ground
    truth (an underestimating Count-Min table is a correctness bug, not
    a perf trade).
    """
    import numpy as np

    from repro.backend.sketch import SketchCMVecBackend
    from repro.core.sketches.count_min import CountMinSketch
    from repro.mp.config import MPConfig
    from repro.mp.one_table import OneTablePool
    from repro.mp.pool import ShardedProcessPool
    from repro.schedcheck.auditor import exact_counts
    from repro.workloads.zipf import zipf_stream

    stream = zipf_stream(
        int(params["length"]),
        int(params["alphabet"]),
        float(params["alpha"]),
        seed=int(params["seed"]),
    )
    length = len(stream)
    capacity = int(params["capacity"])
    chunk = int(params["chunk_elements"])
    epsilon = float(params["epsilon"])
    delta = float(params["delta"])
    sketch_seed = int(params["sketch_seed"])
    repeats = int(params["repeats"])
    timeout = float(params["timeout"])
    entries: List[Dict[str, Any]] = []

    scalar_holder: Dict[str, Any] = {}

    def run_scalar_per_element() -> None:
        sketch = CountMinSketch(
            epsilon=epsilon, delta=delta, seed=sketch_seed
        )
        update = sketch.update
        for element in stream:
            update(element, 1)
        scalar_holder["sketch"] = sketch

    preagg_holder: Dict[str, Any] = {}

    def run_scalar_preagg() -> None:
        sketch = CountMinSketch(
            epsilon=epsilon, delta=delta, seed=sketch_seed
        )
        sketch.process_many(stream)
        preagg_holder["sketch"] = sketch

    vec_holder: Dict[str, Any] = {}

    def run_vectorized() -> None:
        registry = MetricsRegistry()
        backend = SketchCMVecBackend(
            capacity=capacity, epsilon=epsilon, delta=delta,
            seed=sketch_seed, metrics=registry,
        )
        try:
            for index in range(0, length, chunk):
                backend.ingest(stream[index:index + chunk])
            backend.snapshot()  # populates the occupancy gauge
            vec_holder["sketch"] = backend._sketch
            vec_holder["metrics"] = registry.snapshot()
        finally:
            backend.close()

    scalar_secs = _best_of(repeats, run_scalar_per_element)
    preagg_secs = _best_of(repeats, run_scalar_preagg)
    vec_secs = _best_of(repeats, run_vectorized)
    scalar_table = scalar_holder["sketch"].table
    identical_preagg = bool(
        np.array_equal(scalar_table, preagg_holder["sketch"].table)
    )
    identical_vec = bool(
        np.array_equal(scalar_table, vec_holder["sketch"].table)
    )
    entries.extend(
        [
            {
                "name": "sketch-cm-scalar-per-element",
                "kind": "wallclock",
                "elements": length,
                "wall_seconds": scalar_secs,
                "throughput_eps": length / scalar_secs,
                "peak_rss_kb": _peak_rss_kb(),
                "metrics": {},
            },
            {
                "name": "sketch-cm-scalar-preagg",
                "kind": "wallclock",
                "elements": length,
                "wall_seconds": preagg_secs,
                "throughput_eps": length / preagg_secs,
                "speedup_vs_per_element": scalar_secs / preagg_secs,
                "identical_results": identical_preagg,
                "peak_rss_kb": _peak_rss_kb(),
                "metrics": {},
            },
            {
                "name": "sketch-cm-vectorized",
                "kind": "wallclock",
                "elements": length,
                "wall_seconds": vec_secs,
                "throughput_eps": length / vec_secs,
                "speedup_vs_per_element": scalar_secs / vec_secs,
                "identical_results": identical_vec,
                "peak_rss_kb": _peak_rss_kb(),
                "metrics": vec_holder["metrics"],
            },
        ]
    )

    truth = exact_counts(stream)
    for workers in params["workers"]:
        workers = int(workers)
        with ShardedProcessPool(
            MPConfig(
                workers=workers,
                capacity=capacity,
                chunk_elements=chunk,
                timeout=timeout,
            )
        ) as pool:
            count_started = time.perf_counter()
            pool.count(stream)
            pool.merged()  # quiesce + warm the snapshot path
            sharded_count_secs = time.perf_counter() - count_started
            sharded_merge_secs = _best_of(
                repeats, lambda pool=pool: pool.merged()
            )
        registry = MetricsRegistry()
        with OneTablePool(
            MPConfig(
                workers=workers,
                capacity=capacity,
                chunk_elements=chunk,
                timeout=timeout,
                sketch_epsilon=epsilon,
                sketch_delta=delta,
                sketch_seed=sketch_seed,
            ),
            metrics=registry,
        ) as pool:
            count_started = time.perf_counter()
            pool.count(stream)
            merged = pool.merged()  # flush + strict read
            count_secs = time.perf_counter() - count_started
            # ingest is quiescent now: the zero-merge top-k read is the
            # mode's headline quantity (sharded must merge all shards to
            # answer the same query); the full-summary peek is secondary
            pool.top_k(10, strict=True)  # warm, like merged() above
            snapshot_secs = _best_of(
                repeats, lambda pool=pool: pool.top_k(10, strict=True)
            )
            peek_secs = _best_of(
                repeats, lambda pool=pool: pool.peek(strict=True)
            )
            band_bound = int(pool.band_bounds().max(initial=0))
        max_under = 0
        max_over = 0
        violations = 0
        for entry in merged.entries():
            true_count = truth.get(entry.element, 0)
            over = entry.count - true_count
            max_over = max(max_over, over)
            max_under = max(max_under, -over)
            if entry.count < true_count:
                violations += 1
            if entry.count - entry.error > true_count:
                violations += 1
            if over > entry.error:
                violations += 1
        entries.append(
            {
                "name": f"sketch-one-table-w{workers}",
                "kind": "sketch-mp",
                "workers": workers,
                "elements": length,
                "wall_seconds": count_secs,
                "throughput_eps": length / count_secs,
                "snapshot_seconds": snapshot_secs,
                "peek_seconds": peek_secs,
                "sharded_wall_seconds": sharded_count_secs,
                "sharded_merge_seconds": sharded_merge_secs,
                "snapshot_ratio_vs_sharded": (
                    snapshot_secs / sharded_merge_secs
                    if sharded_merge_secs > 0
                    else 0.0
                ),
                "max_band_bound": band_bound,
                "max_overestimate": max_over,
                "max_underestimate": max_under,
                "bound_compliant": violations == 0,
                "peak_rss_kb": _peak_rss_kb(),
                "metrics": registry.snapshot(),
            }
        )
    return entries


def default_output(suite: str) -> pathlib.Path:
    """The conventional report file for ``suite`` (BENCH_<suite>.json)."""
    return pathlib.Path(f"BENCH_{suite}.json")


def run_suite(scale: str = "tiny", suite: str = "core") -> Dict[str, Any]:
    """Run one pinned benchmark suite and return the report dict."""
    if suite not in SUITES:
        raise ConfigurationError(
            f"suite must be one of {sorted(SUITES)}, got {suite!r}"
        )
    scales = {
        "core": SCALES,
        "mp": MP_SCALES,
        "scenarios": SCENARIO_SCALES,
        "sketch": SKETCH_SCALES,
    }[suite]
    if scale not in scales:
        raise ConfigurationError(
            f"scale must be one of {sorted(scales)}, got {scale!r}"
        )
    params = dict(scales[scale])
    results: List[Dict[str, Any]] = []
    if suite == "core":
        results.extend(_bench_hot_path(params))
        results.extend(_bench_simulated(params))
    elif suite == "scenarios":
        results.extend(_bench_scenarios(params))
    elif suite == "sketch":
        results.extend(_bench_sketch(params))
    else:
        results.extend(_bench_mp(params))
    report = {
        "schema_version": SCHEMA_VERSION,
        "suite": suite,
        "scale": scale,
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "params": params,
        "results": results,
    }
    if suite in ("mp", "sketch"):
        # Real-parallelism numbers depend on the silicon: record it so
        # the speedup column is interpretable (a 1-core host cannot
        # show wall-clock scaling no matter what the code does).
        report["host_cores"] = os.cpu_count()
    return report


def write_report(report: Dict[str, Any], output: pathlib.Path) -> None:
    output.write_text(json.dumps(report, indent=2) + "\n")


def format_report(report: Dict[str, Any]) -> str:
    """Human-readable one-line-per-result summary of a report."""
    lines = [
        f"bench suite={report['suite']} scale={report['scale']} "
        f"python={report['python']}"
    ]
    if "host_cores" in report:
        lines[0] += f" host_cores={report['host_cores']}"
    for entry in report["results"]:
        if entry["kind"] == "wallclock":
            line = (
                f"  {entry['name']:32s} {entry['wall_seconds'] * 1e3:10.1f} ms"
                f"  {entry['throughput_eps'] / 1e6:8.2f} M el/s (wall)"
            )
            if "speedup_vs_per_element" in entry:
                line += (
                    f"  x{entry['speedup_vs_per_element']:.2f} vs per-element"
                    f"  identical={entry['identical_results']}"
                )
        elif entry["kind"] == "scenario":
            line = (
                f"  {entry['name']:32s} "
                f"recall@{entry['k']}={entry['recall_at_k']:.2f}"
                f"  max_over={entry['max_overestimate']}"
                f"/{entry['error_bound']:.0f}"
                f"  violations={entry['guarantee_violations']}"
                f"  [{entry['wall_seconds'] * 1e3:.0f} ms]"
            )
        elif entry["kind"] == "mp":
            line = (
                f"  {entry['name']:32s} {entry['wall_seconds'] * 1e3:10.1f} ms"
                f"  {entry['throughput_eps'] / 1e6:8.2f} M el/s (wall)"
                f"  x{entry['speedup_vs_sequential']:.2f} vs sequential"
                f"  equivalent={entry['equivalent']}"
            )
        elif entry["kind"] == "sketch-mp":
            line = (
                f"  {entry['name']:32s} {entry['wall_seconds'] * 1e3:10.1f} ms"
                f"  snapshot={entry['snapshot_seconds'] * 1e3:.2f} ms"
                f" ({entry['snapshot_ratio_vs_sharded'] * 100:.1f}% of "
                f"sharded merge)"
                f"  bound_compliant={entry['bound_compliant']}"
            )
        else:
            line = (
                f"  {entry['name']:32s} {entry['sim_cycles']:12d} cycles"
                f"  {entry['sim_throughput_eps'] / 1e6:8.2f} M el/s (sim)"
                f"  [{entry['wall_seconds']:.1f}s host]"
            )
        lines.append(line)
    return "\n".join(lines)
