"""The library workloads: count-int and count-str-churn, plus the mp-shm
lane that count-int's traced run measures.

Each pass feeds one seeded stream through a fresh ``create_backend``
engine in fixed 64k-event ``ingest`` batches (closed loop: the next
batch goes in when the previous call returns).  After every batch the
harness takes one ``snapshot`` -- the first answer that can reflect the
batch, so ack-to-visible time is measured directly -- followed by a
fixed burst of ``query(10)``/``estimate`` calls (see ``BURST``).  The
pass ends with a final snapshot audited against exact counts.  Passes
repeat until the run's time is used.

The traced run adds a span around every public call and then replays
each inner stage (coding, routing, the counting update, merge) in
isolation on the same batches, because those stages sit inside
``Backend.ingest`` or inside a worker process where the harness cannot
see them.
"""

from __future__ import annotations

import collections
import dataclasses
import gc
import heapq
import itertools
import time
import tracemalloc
from typing import Dict, List, Sequence

import numpy as np

from repro.backend import create_backend
from repro.core.coding import StreamCodec
from repro.core.merge import hierarchical_merge
from repro.core.space_saving import SpaceSaving
from repro.mp.shm import route_coded
from repro.obs.registry import MetricsRegistry
from repro.obs.tracing import NULL_TRACER, Tracer, coerce_tracer
from repro.workloads import ZipfStreamSpec, hot_set_churn_stream

from common import (
    CAPACITY,
    ZIPF_ALPHA,
    ZIPF_ALPHABET,
    audit_summary,
    dotted_quad,
    host_cores,
    median,
    now,
    percentile,
    repeated_keys,
    tail,
    tail_fraction,
)

BATCH_EVENTS = 65_536
#: the dispatch chunk the mp pool encodes (``MPConfig.chunk_elements``)
CHUNK_EVENTS = 32_768
TOP_K = 10
#: the query burst after each batch.  The top-10 reads follow the
#: repo's network-monitoring example (examples/network_monitoring.py
#: reads the top-10 once every 10k events: 64k / 10k, rounded up, is 7
#: per batch).  The two point estimates, one on a hot and one on a cold
#: key, are an assumption: no example in the repo fixes a point-query
#: rate, and one of each keeps the monitored and the unmonitored lookup
#: sampled while top-10 reads stay the bulk (and the median) of the mix.
BURST = ("top",) * 7 + ("hot", "cold")
#: ``create_backend`` timings taken before every pass, so the setup
#: samples spread over the run instead of one host moment
SETUP_REPEATS = 9
#: builds (and closes) per setup sample of an in-process engine
SETUP_BLOCK = 200
#: batches of the memory pass (the footprint settles within a few batches)
MEMORY_BATCHES = 8
MERGE_REPEATS = 50
ENTRIES_REPEATS = 50

#: count-str-churn keys: 8 hot addresses share 15% of the traffic and
#: one retires every 20k events; the rest is drawn uniformly from 262k
#: addresses (each seen ~3 times a pass), so ~80% of the events in a
#: chunk are first sightings and Space Saving overwrites on ~85%
STR_BACKGROUND = 1 << 18
STR_HOT_SIZE = 8
STR_HOT_FRACTION = 0.15
STR_ROTATE_EVERY = 20_000

TRACK = "bench"


@dataclasses.dataclass(frozen=True)
class CountSpec:
    backend: str
    keys: str           #: "int" (zipf) or "str" (rotating hot set)
    length: int         #: events per pass


WORKLOADS: Dict[str, CountSpec] = {
    "count-int": CountSpec("sequential", "int", 2_000_000),
    "count-str-churn": CountSpec("sequential", "str", 1_000_000),
}

#: the mp-shm lane count-int's traced run measures on the same batches
MP_LANE = CountSpec("mp-shm", "int", 2_000_000)


@dataclasses.dataclass
class Inputs:
    batches: List[list]
    truth: Dict
    hot: list           #: estimate targets: the hottest keys ...
    cold: list          #: ... and the coldest

    def __post_init__(self) -> None:
        self.repeated = repeated_keys(self.truth)

    @property
    def events(self) -> int:
        return sum(len(batch) for batch in self.batches)


def make_inputs(spec: CountSpec, seed: int, length: int = 0) -> Inputs:
    """The seeded stream of one workload, cut into ingest batches."""
    length = length or spec.length
    # one object per distinct key, as a parser interning its keys would
    # hand them over: the input then streams 8-byte references instead of
    # a fresh object per event, which keeps the harness's memory traffic
    # (and its exposure to other tenants' traffic) small
    if spec.keys == "int":
        stream = ZipfStreamSpec(
            length=length, alphabet=ZIPF_ALPHABET, alpha=ZIPF_ALPHA, seed=seed
        ).generate()
        values = np.arange(ZIPF_ALPHABET).astype(object)[stream].tolist()
    else:
        raw = hot_set_churn_stream(
            length,
            alphabet=STR_BACKGROUND,
            hot_size=STR_HOT_SIZE,
            hot_fraction=STR_HOT_FRACTION,
            rotate_every=STR_ROTATE_EVERY,
            seed=seed,
        )
        names = {key: dotted_quad(key) for key in set(raw)}
        values = [names[key] for key in raw]
    batches = [
        values[start:start + BATCH_EVENTS]
        for start in range(0, length, BATCH_EVENTS)
    ]
    truth = collections.Counter(values)
    order = lambda kv: (kv[1], str(kv[0]))  # noqa: E731
    hot = [key for key, _ in heapq.nlargest(4, truth.items(), key=order)]
    cold = [key for key, _ in heapq.nsmallest(4, truth.items(), key=order)]
    return Inputs(batches=batches, truth=truth, hot=hot, cold=cold)


def worker_count(spec: CountSpec) -> int:
    """mp workers: one fewer than the cores, so parent and workers fit."""
    return max(1, host_cores() - 1) if spec.backend.startswith("mp") else 0


def _create(spec: CountSpec, metrics=None):
    return create_backend(
        spec.backend, capacity=CAPACITY, workers=max(1, worker_count(spec)),
        metrics=metrics,
    )


@dataclasses.dataclass
class Pass:
    """Samples of one pass over the stream."""

    ack: List[float] = dataclasses.field(default_factory=list)
    fresh: List[float] = dataclasses.field(default_factory=list)
    query: List[float] = dataclasses.field(default_factory=list)
    cpu: List[float] = dataclasses.field(default_factory=list)  #: per batch
    setup: List[float] = dataclasses.field(default_factory=list)  #: before it
    wall: float = 0.0
    events: int = 0
    traced_peak: int = 0            #: tracemalloc peak before the audit

    @property
    def ingest_eps(self) -> float:
        return self.events / (sum(self.ack) + sum(self.fresh))


@dataclasses.dataclass
class Run:
    setup: List[float] = dataclasses.field(default_factory=list)
    passes: List[Pass] = dataclasses.field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    def fastest(self, series: str) -> List[float]:
        """Each position's fastest sample of ``series`` over the passes.

        Every pass replays the same batches and calls in the same order,
        so position ``i`` does the same work in every pass.  The host
        only ever adds time to it (other tenants share the cores and
        their caches), so the fastest of a position's repeats is its
        cost, and everything the stream's content does to the engine
        stays in.
        """
        columns = zip(*(getattr(one, series) for one in self.passes))
        return [min(column) for column in columns]


def _valid_top(entries: Sequence) -> bool:
    counts = [entry.count for entry in entries]
    return len(counts) <= TOP_K and counts == sorted(counts, reverse=True)


def run_pass(spec, inputs, run, tracer, metrics=None) -> Pass:
    """One full pass on a fresh backend, appended to ``run.passes``."""
    one = Pass()
    started = now()
    with tracer.span(TRACK, "backend.create", "backend"):
        backend = _create(spec, metrics)
    run.setup.append(now() - started)
    acked = 0
    try:
        pass_started = now()
        for number, batch in enumerate(inputs.batches):
            cpu_started = time.process_time()
            with tracer.span(TRACK, "backend.ingest", "backend"):
                t0 = now()
                backend.ingest(batch)
                t1 = now()
            acked += len(batch)
            with tracer.span(TRACK, "backend.snapshot", "backend"):
                visible = backend.snapshot()
                t2 = now()
            one.ack.append(t1 - t0)
            one.fresh.append(t2 - t1)
            run.attempted += 2
            run.failed += visible.processed != acked
            for op in BURST:
                if op == "top":
                    with tracer.span(TRACK, "backend.query", "backend"):
                        t0 = now()
                        top = backend.query(TOP_K)
                        t1 = now()
                    run.failed += not _valid_top(top)
                else:
                    keys = inputs.hot if op == "hot" else inputs.cold
                    probe = keys[number % len(keys)]
                    with tracer.span(TRACK, "backend.estimate", "backend"):
                        t0 = now()
                        estimate = backend.estimate(probe)
                        t1 = now()
                    run.failed += not 0 <= estimate <= acked
                one.query.append(t1 - t0)
                run.attempted += 1
            one.cpu.append(time.process_time() - cpu_started)
        one.wall = now() - pass_started
        one.events = acked
        final = backend.snapshot()
        if tracemalloc.is_tracing():
            one.traced_peak = tracemalloc.get_traced_memory()[1]
    finally:
        backend.close()
    run.attempted += 1
    run.failed += audit_summary(
        final.entries, final.processed, inputs.truth, inputs.repeated,
        acked, merged=spec.backend.startswith("mp"),
    )
    run.passes.append(one)
    return one


def end_to_end(run: Run, memory_mb: float) -> Dict[str, float]:
    """The run's figures over each batch's and each call's fastest repeat."""
    ack = run.fastest("ack")
    fresh = run.fastest("fresh")
    query = run.fastest("query")
    events = run.passes[0].events
    return {
        "setup_s": median(run.fastest("setup")),
        "ingest_eps": events / (sum(ack) + sum(fresh)),
        "query_p50_ms": percentile(query, 0.50) * 1e3,
        "query_p99_ms": tail(query) * 1e3,
        "ack_p50_ms": percentile(ack, 0.50) * 1e3,
        "ack_p99_ms": tail(ack) * 1e3,
        "freshness_p50_ms": percentile(fresh, 0.50) * 1e3,
        "freshness_p99_ms": tail(fresh) * 1e3,
        "cpu_us_per_event": sum(run.fastest("cpu")) / events * 1e6,
        "peak_rss_mb": memory_mb,
    }


def memory_pass(spec, inputs, run) -> float:
    """Peak memory growth (MiB) of one pass over the first batches.

    Measured with ``tracemalloc`` (peak traced allocations over the
    level at the start of the pass), because the process's RSS
    high-water mark is set by the generated inputs and hides the
    engine's working set.  The pass is audited like any other but not
    timed.
    """
    batches = inputs.batches[:MEMORY_BATCHES]
    prefix = Inputs(
        batches=batches,
        truth=collections.Counter(itertools.chain.from_iterable(batches)),
        hot=inputs.hot,
        cold=inputs.cold,
    )
    scratch = Run()
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        one = run_pass(spec, prefix, scratch, NULL_TRACER)
    finally:
        tracemalloc.stop()
    run.attempted += scratch.attempted
    run.failed += scratch.failed
    return (one.traced_peak - base) / 2**20


def measure(spec, inputs, seconds, tracer=None, passes=0, metrics=None) -> Run:
    """Passes, each after setup repeats, until ``seconds`` (or ``passes``)."""
    run = Run()
    deadline = now() + seconds
    # a sequential engine is built in microseconds, near the timer's own
    # jitter: each of its samples is the mean over a block of builds
    block = 1 if spec.backend.startswith("mp") else SETUP_BLOCK
    while True:
        setup = []
        for _ in range(SETUP_REPEATS):
            started = now()
            for _ in range(block):
                _create(spec).close()
            setup.append((now() - started) / block)
        run.setup += setup
        one = run_pass(spec, inputs, run, coerce_tracer(tracer), metrics)
        one.setup = setup
        if passes:
            if len(run.passes) == passes:
                return run
        elif now() + one.wall > deadline:
            return run          # the next pass would overrun the budget


# ----------------------------------------------------------------------
# Traced run: spans on the public calls + isolated stage replays
# ----------------------------------------------------------------------
def _timed(tracer, name, cat, fn, *args):
    with tracer.span("replay", name, cat):
        started = now()
        result = fn(*args)
        return result, now() - started


def replay_coding(inputs, tracer, layer) -> List:
    """``StreamCodec.encode_chunk`` on the mp pool's 32k dispatch chunks."""
    codec = StreamCodec()
    coded = []
    encode_s = 0.0
    for batch in inputs.batches:
        for start in range(0, len(batch), CHUNK_EVENTS):
            pair, seconds = _timed(
                tracer, "core.coding.encode_chunk", "core.coding",
                codec.encode_chunk, batch[start:start + CHUNK_EVENTS],
            )
            coded.append(pair)
            encode_s += seconds
    layer["core.coding.encode_chunk_s"] = encode_s
    layer["core.coding.distinct_ratio"] = (
        sum(len(codes) for codes, _ in coded) / inputs.events
    )
    layer["core.coding.vocab_size"] = float(codec.vocab_size)
    return coded


def replay_sequential(inputs, tracer, layer) -> None:
    """``SpaceSaving.process_many`` and ``entries`` as the backend runs them."""
    counter = SpaceSaving(capacity=CAPACITY)
    registry = MetricsRegistry()
    counted = SpaceSaving(capacity=CAPACITY, metrics=registry)
    total = 0.0
    for batch in inputs.batches:
        total += _timed(
            tracer, "core.space_saving.process_many", "core.space_saving",
            counter.process_many, batch,
        )[1]
        counted.process_many(batch)
    layer["core.space_saving.process_many_s"] = total
    counters = registry.snapshot()["counters"]
    layer["core.space_saving.overwrite_share"] = (
        counters.get("core.spacesaving.overwrites", 0)
        / max(1, counters.get("core.spacesaving.occurrences", 0))
    )
    layer["core.space_saving.entries_ms"] = median([
        _timed(
            tracer, "core.space_saving.entries", "core.space_saving",
            counter.entries,
        )[1]
        for _ in range(ENTRIES_REPEATS)
    ]) * 1e3


def replay_mp(coded, workers, tracer, layer) -> None:
    """Routing, the workers' weighted lane and the query-time merge."""
    routed = []
    route_s = 0.0
    for codes, weights in coded:
        parts, seconds = _timed(
            tracer, "mp.route_coded", "mp",
            route_coded, codes, weights, workers, "hash",
        )
        routed.append(parts)
        route_s += seconds
    layer["mp.route_coded_s"] = route_s
    shards = [SpaceSaving(capacity=CAPACITY) for _ in range(workers)]
    weighted_s = 0.0
    for parts in routed:
        for index, (codes, weights) in enumerate(parts):
            if len(codes):
                # the worker reads its ring segment as int lists first
                pairs = zip(codes.tolist(), weights.tolist())
                weighted_s += _timed(
                    tracer, "core.space_saving.process_weighted",
                    "core.space_saving", shards[index].process_weighted, pairs,
                )[1]
    layer["core.space_saving.process_weighted_s"] = weighted_s
    layer["core.merge.hierarchical_merge_ms_p50"] = median([
        _timed(
            tracer, "core.merge.hierarchical_merge", "core.merge",
            hierarchical_merge, shards, CAPACITY,
        )[1]
        for _ in range(MERGE_REPEATS)
    ]) * 1e3


def _span_seconds(records, prefix: str, track: str = TRACK) -> List[float]:
    return [
        record.end - record.start
        for record in records
        if getattr(record, "track", None) == track
        and record.name.startswith(prefix)
    ]


def traced_mp_lane(inputs, plain: Run, tracer, layer) -> None:
    """One traced ``mp-shm`` pass over count-int's batches (per-layer only).

    The pool's parent-side stages, its registry (ring stalls, snapshot
    latency) and the speedup over the sequential lane on the same
    batches and host.  Needs :func:`replay_mp`'s stage times first.
    """
    pool_metrics = MetricsRegistry()
    lane_tracer = Tracer()
    lane = measure(MP_LANE, inputs, 0, lane_tracer, passes=1,
                   metrics=pool_metrics)
    tracer.ingest(lane_tracer.serialize(), track_prefix="mp-shm/")
    plain.attempted += lane.attempted
    plain.failed += lane.failed
    snap = pool_metrics.snapshot()
    stalls = snap["histograms"].get("mp.shm.stall_seconds", {})
    snapshots = snap["histograms"].get("mp.snapshot.seconds", {})
    layer["mp.ring_stalls"] = float(
        snap["counters"].get("mp.shm.ring_stalls", 0)
    )
    layer["mp.stall_s"] = stalls.get("sum", 0.0)
    layer["mp.snapshot_ms_mean"] = (
        snapshots.get("sum", 0.0) / max(1, snapshots.get("count", 0)) * 1e3
    )
    layer["mp.dispatch_s"] = (
        sum(_span_seconds(lane_tracer.records(), "backend.ingest"))
        - layer["core.coding.encode_chunk_s"]
        - layer["mp.route_coded_s"]
    )
    layer["speedup_vs_best_single_process"] = (
        lane.passes[0].ingest_eps / plain.passes[0].ingest_eps
    )


def run(name: str, seed: int, seconds: float, trace: bool, length: int = 0):
    """One run of a count workload; returns the result dict for run.py."""
    spec = WORKLOADS[name]
    inputs = make_inputs(spec, seed, length)
    # the inputs are the harness's: collections must not rescan them
    gc.collect()
    gc.freeze()
    detail: Dict[str, object] = {"events_per_pass": inputs.events}
    if not trace:
        measured = measure(spec, inputs, seconds)
        memory_mb = memory_pass(spec, inputs, measured)
        passes = measured.passes
        detail.update(
            passes=len(passes),
            batch_positions=len(passes[0].ack),
            query_positions=len(passes[0].query),
            batch_tail_pct=100 * tail_fraction(len(passes[0].ack)),
            query_tail_pct=100 * tail_fraction(len(passes[0].query)),
            query_samples=sum(len(one.query) for one in passes),
            setup_samples=len(measured.setup),
        )
        return {
            "metrics": end_to_end(measured, memory_mb),
            "attempted": measured.attempted,
            "failed": measured.failed,
            "detail": detail,
        }

    # untraced reference pass, then the traced pass on identical batches
    plain = measure(spec, inputs, 0, passes=1)
    tracer = Tracer()
    traced = measure(spec, inputs, 0, tracer, passes=1)
    records = tracer.records()
    ingest_spans = _span_seconds(records, "backend.ingest")
    query_spans = (
        _span_seconds(records, "backend.query")
        + _span_seconds(records, "backend.estimate")
    )
    call_spans = ingest_spans + query_spans + _span_seconds(
        records, "backend.snapshot"
    )
    layer: Dict[str, float] = {
        "backend.create_s": median(traced.setup),
        "backend.ingest_s": sum(ingest_spans),
        "backend.query_ms_p50": median(query_spans) * 1e3,
        "stage_residual_share": 1.0 - sum(call_spans) / traced.passes[0].wall,
        "trace_overhead_share": (
            plain.passes[0].ingest_eps / traced.passes[0].ingest_eps - 1.0
        ),
    }
    coded = replay_coding(inputs, tracer, layer)
    replay_sequential(inputs, tracer, layer)
    result = {"metrics": layer, "detail": detail, "tracer": tracer}
    if spec.keys == "int":
        workers = worker_count(MP_LANE)
        replay_mp(coded, workers, tracer, layer)
        traced_mp_lane(inputs, plain, tracer, layer)
        result["workers"] = workers
    detail.update(
        query_samples=len(traced.passes[0].query), spans=len(tracer)
    )
    result["attempted"] = plain.attempted + traced.attempted
    result["failed"] = plain.failed + traced.failed
    return result
