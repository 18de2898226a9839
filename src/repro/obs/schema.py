"""The metric catalogue: every name the stack emits, with unit + layer.

This is documentation-as-data: ``repro report`` annotates known names
with their unit and owning layer, docs/observability.md renders from the
same table, and the tests assert that instrumented code only emits
names matching a spec (exactly or by the documented ``<i>``/``<tag>``
placeholders).

Naming convention: ``<layer>.<subsystem>.<metric>``.  Dynamic segments
(worker indices, simulator tags, CoTS stat keys) are written as
placeholders here; :func:`lookup` resolves a concrete name to its spec.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional


@dataclasses.dataclass(frozen=True)
class MetricSpec:
    """One documented metric: its kind, unit and owning layer.

    ``worse`` and ``tolerance`` drive the ``report --diff`` regression
    gate (:mod:`repro.obs.diff`): ``worse="up"`` means an increase is a
    regression, ``worse="down"`` means a decrease is, and ``None`` (the
    default) keeps the metric informational — its deltas are reported
    but never fail a comparison.  ``tolerance`` is the relative change
    allowed before a gated metric flags.
    """

    name: str       #: dotted name, may contain <i>/<tag>/<stat> placeholders
    kind: str       #: counter | gauge | histogram
    unit: str       #: what one unit of the value means
    layer: str      #: owning package (core, cots, mp, sim, bench)
    help: str       #: one-line description
    worse: Optional[str] = None   #: 'up' | 'down' | None (informational)
    tolerance: float = 0.25       #: relative slack before a gated flag


def _spec(
    name: str,
    kind: str,
    unit: str,
    layer: str,
    help: str,
    worse: Optional[str] = None,
    tolerance: float = 0.25,
) -> MetricSpec:
    return MetricSpec(
        name=name, kind=kind, unit=unit, layer=layer, help=help,
        worse=worse, tolerance=tolerance,
    )


#: every documented metric, keyed by (possibly placeholder) name
METRIC_SPECS: Dict[str, MetricSpec] = {
    spec.name: spec
    for spec in [
        # ------------------------------------------------------ core
        _spec("core.spacesaving.occurrences", "counter", "elements", "core",
              "stream occurrences consumed by this Space Saving instance"),
        _spec("core.spacesaving.increments", "counter", "ops", "core",
              "IncrementCounter operations (element already monitored)"),
        _spec("core.spacesaving.inserts", "counter", "ops", "core",
              "AddElementToBucket operations (free counter slot taken)"),
        _spec("core.spacesaving.overwrites", "counter", "ops", "core",
              "Overwrite operations (minimum-frequency victim evicted)"),
        _spec("core.spacesaving.min_bucket_hits", "counter", "ops", "core",
              "increments whose element sat in the minimum bucket — the "
              "bucket CoTS contends on"),
        # ------------------------------------------------------ cots
        _spec("cots.stats.<stat>", "counter", "events", "cots",
              "per-run CoTS protocol counter (delegations, overwrites, "
              "gc_buckets, bulk_increments, bulk_total, queue_transfers, "
              "relinquish_bulk, ... — every WorkerContext/summary stat)"),
        _spec("cots.queue.depth", "histogram", "requests", "cots",
              "delegation-queue length observed at each request delivery"),
        _spec("cots.scheduler.parks", "counter", "events", "cots",
              "workers put to sleep by the sigma threshold (5.2.3)"),
        _spec("cots.scheduler.wakes", "counter", "events", "cots",
              "workers/helpers woken by the rho threshold (5.2.3)"),
        _spec("cots.scheduler.helper_drains", "counter", "events", "cots",
              "congested buckets drained by woken pool helpers"),
        _spec("cots.scheduler.sigma", "gauge", "requests", "cots",
              "the sigma (sleep) queue-length threshold of this run"),
        _spec("cots.scheduler.rho", "gauge", "requests", "cots",
              "the rho (wake) queue-length threshold of this run"),
        # -------------------------------------------------------- mp
        _spec("mp.dispatched.items", "counter", "elements", "mp",
              "stream elements dispatched to the worker pool"),
        _spec("mp.dispatched.batches", "counter", "batches", "mp",
              "non-empty shm ring segments shipped to workers"),
        _spec("mp.worker.<i>.items", "counter", "elements", "mp",
              "stream elements routed to worker shard <i>"),
        _spec("mp.worker.<i>.items_per_sec", "gauge", "elements/s", "mp",
              "worker <i>'s share of the stream over the run's wall clock"),
        _spec("mp.queue.occupancy", "histogram", "batches", "mp",
              "task-queue depth sampled right before each dispatch put"),
        _spec("mp.snapshot.seconds", "histogram", "seconds", "mp",
              "wall-clock latency of one all-shard snapshot"),
        _spec("mp.merge.seconds", "histogram", "seconds", "mp",
              "wall-clock latency of one hierarchical merge of shards"),
        _spec("mp.replies.discarded", "counter", "messages", "mp",
              "stale non-error replies swallowed by error/shutdown "
              "sweeps of the reply queue (surfaced in crash details)"),
        _spec("mp.shm.bytes", "counter", "bytes", "mp",
              "payload bytes written into shared-memory ring segments"),
        _spec("mp.shm.ring_occupancy", "histogram", "segments", "mp",
              "busy ring segments observed right before each shm dispatch"),
        _spec("mp.shm.ring_stalls", "counter", "events", "mp",
              "dispatches that found their target ring segment still "
              "busy (shm backpressure from a slow worker)"),
        _spec("mp.shm.stall_seconds", "histogram", "seconds", "mp",
              "wall-clock time dispatch spent waiting for a busy ring "
              "segment to free"),
        # --------------------------------------------------- backend
        _spec("backend.ingest.items", "counter", "elements", "backend",
              "stream elements accepted through Backend.ingest"),
        _spec("backend.ingest.batches", "counter", "batches", "backend",
              "ingest calls (batches) accepted by the backend adapter"),
        _spec("backend.snapshot.seconds", "histogram", "seconds", "backend",
              "wall-clock latency of one Backend.snapshot materialization"),
        _spec("backend.merge_avoided.bytes", "counter", "bytes", "backend",
              "serialized summary bytes the one-table mode did NOT have "
              "to ship and merge (what the sharded path would move per "
              "snapshot)"),
        # ---------------------------------------------------- sketch
        _spec("sketch.updates", "counter", "updates", "sketch",
              "weighted updates applied to the sketch table (distinct "
              "keys per pre-aggregated batch, not raw occurrences)"),
        _spec("sketch.cells_touched", "counter", "cells", "sketch",
              "table cells written by sketch updates (depth rows per "
              "distinct key for plain update; masked subset under "
              "conservative update)"),
        _spec("sketch.table.occupancy", "gauge", "fraction", "sketch",
              "fraction of sketch table cells that are non-zero"),
        _spec("sketch.flush.seconds", "histogram", "seconds", "sketch",
              "wall-clock latency of one one-table flush barrier "
              "(token dispatch until every worker acknowledges)"),
        # -------------------------------------------------- scenario
        _spec("scenario.stream.elements", "counter", "elements", "scenario",
              "stream occurrences counted by the scenario run"),
        _spec("scenario.stream.distinct", "gauge", "elements", "scenario",
              "distinct elements in the scenario stream"),
        _spec("scenario.accuracy.recall_at_k", "gauge", "fraction",
              "scenario",
              "fraction of the exact top-k present in the reported top-k",
              worse="down", tolerance=0.25),
        _spec("scenario.accuracy.precision_at_k", "gauge", "fraction",
              "scenario",
              "fraction of the reported top-k that is exactly top-k",
              worse="down", tolerance=0.25),
        _spec("scenario.accuracy.max_overestimate", "gauge", "elements",
              "scenario",
              "worst (estimate - true count) over monitored elements"),
        _spec("scenario.accuracy.max_underestimate", "gauge", "elements",
              "scenario",
              "worst (true count - estimate); any value > 0 breaks the "
              "upper-bound guarantee"),
        _spec("scenario.accuracy.error_bound", "gauge", "elements",
              "scenario",
              "the promised eps*N over-estimation bound (N / capacity)"),
        _spec("scenario.accuracy.bound_excess", "gauge", "elements",
              "scenario",
              "how far the worst over-estimate exceeds the eps*N bound "
              "(must stay 0)"),
        _spec("scenario.accuracy.guarantee_violations", "counter",
              "violations", "scenario",
              "hard guarantee breaches found by the accuracy audit "
              "(under-estimates, floor breaches, bound excesses, "
              "unmonitored heavy hitters)",
              worse="up", tolerance=0.0),
        _spec("scenario.fuzz.compositions", "counter", "streams",
              "scenario",
              "composite streams generated by the scenario fuzzer"),
        _spec("scenario.fuzz.failures", "counter", "failures", "scenario",
              "fuzzed compositions whose differential or audit failed "
              "(each is shrunk to a minimal reproducer)",
              worse="up", tolerance=0.0),
        # ----------------------------------------------------- serve
        _spec("serve.connections.accepted", "counter", "connections",
              "serve",
              "TCP connections accepted by the serve tier"),
        _spec("serve.connections.active", "gauge", "connections", "serve",
              "currently open client connections"),
        _spec("serve.connections.dropped_slow", "counter", "connections",
              "serve",
              "subscribers disconnected because their socket write "
              "buffer exceeded max_buffer_bytes (slow-reader protection)"),
        _spec("serve.ingest.events", "counter", "elements", "serve",
              "stream events accepted off the wire (acked to clients)"),
        _spec("serve.ingest.frames", "counter", "frames", "serve",
              "accepted ingest frames"),
        _spec("serve.ingest.rejected", "counter", "elements", "serve",
              "events refused with the backpressure error code (the "
              "client retries; never silently dropped)"),
        _spec("serve.batch.fill", "histogram", "elements", "serve",
              "micro-batch sizes handed to the flusher (full batches at "
              "batch_events; partial batches when the flusher goes "
              "idle, and from flush)"),
        _spec("serve.batch.flush_seconds", "histogram", "seconds", "serve",
              "backend.ingest time of one micro-batch, timed on the "
              "backend thread (executor wait and the snapshot that "
              "follows are excluded)"),
        _spec("serve.batch.flush_failures", "counter", "batches", "serve",
              "micro-batches dropped because backend.ingest raised "
              "(the flusher survives; the batch's events are lost "
              "from the counts, so processed < accepted_events)",
              worse="up", tolerance=0.0),
        _spec("serve.queue.depth", "gauge", "batches", "serve",
              "pending micro-batches awaiting the flusher (bounded by "
              "max_pending_batches — the backpressure budget)"),
        _spec("serve.snapshot.refreshes", "counter", "refreshes", "serve",
              "query-view rebuilds: after flushed batches (skipped "
              "while snapshots would take over a tenth of the backend "
              "thread), on ticker catch-up, start and flush"),
        _spec("serve.snapshot.seconds", "histogram", "seconds", "serve",
              "backend.snapshot + index build of one query view, timed "
              "on the backend thread"),
        _spec("serve.snapshot.staleness_seconds", "histogram", "seconds",
              "serve",
              "view age reported with each query answer (an idle "
              "server's complete view ages too; the freshness histogram "
              "measures the promise)"),
        _spec("serve.freshness.ack_to_visible_seconds", "histogram",
              "seconds", "serve",
              "one ingest frame from its ack to the first installed view "
              "that covers it (1-2-5 buckets, 0.1 ms to 10 s); bounded "
              "by 2 x batch_interval while the flusher keeps up, plus "
              "queue depth x flush time under overload"),
        _spec("serve.query.requests", "counter", "queries", "serve",
              "one-shot queries answered (point/set/topk and the "
              "first answer of interval registrations)"),
        _spec("serve.query.seconds", "histogram", "seconds", "serve",
              "in-server evaluation latency of one query (excludes "
              "network and loop scheduling)"),
        _spec("serve.subscriptions.active", "gauge", "subscriptions",
              "serve",
              "live interval + continuous query registrations"),
        _spec("serve.subscriptions.pushes", "counter", "frames", "serve",
              "push frames sent to interval/continuous subscribers"),
        _spec("serve.protocol.errors", "counter", "errors", "serve",
              "malformed frames and failed requests (excludes "
              "backpressure, which is flow control)",
              worse="up", tolerance=0.0),
        _spec("serve.snapshot.staleness", "gauge", "seconds", "serve",
              "how long the oldest acked ingest frame has waited to "
              "become visible (0 when every acked frame is), sampled by "
              "the live-telemetry watchdog each tick"),
        _spec("serve.accuracy.tracked_keys", "gauge", "keys", "serve",
              "keys tracked by the shadow-truth accuracy probe (the "
              "first probe_keys distinct keys seen, so their true "
              "counts are exact from stream start)"),
        _spec("serve.accuracy.max_overestimate", "gauge", "elements",
              "serve",
              "worst (estimate - shadow truth) over probe keys at the "
              "last watchdog tick"),
        _spec("serve.accuracy.error_bound", "gauge", "elements", "serve",
              "the promised eps*N over-estimation bound at the last "
              "watchdog tick (N = processed events)"),
        _spec("serve.accuracy.bound_excess", "gauge", "elements", "serve",
              "how far the probe's worst over-estimate exceeds eps*N "
              "(must stay 0; drives the accuracy-drift alert)",
              worse="up", tolerance=0.0),
        _spec("serve.alerts.firing", "gauge", "alerts", "serve",
              "SLO watchdog rules currently in the firing state"),
        _spec("serve.alerts.transitions", "counter", "events", "serve",
              "firing/resolved alert transitions emitted as NDJSON "
              "events by the watchdog"),
        _spec("mp.beacon.<i>.processed", "counter", "elements", "mp",
              "elements worker <i> reports processed via its periodic "
              "telemetry beacon (worker-side truth, vs the parent-side "
              "mp.worker.<i>.items routing counter)"),
        _spec("mp.beacon.<i>.batches", "counter", "batches", "mp",
              "batches/segments worker <i> reports consumed via its "
              "telemetry beacon"),
        _spec("mp.beacon.<i>.ring_busy", "gauge", "segments", "mp",
              "busy segments worker <i> observed in its shm ring at "
              "beacon time (live occupancy)"),
        _spec("mp.beacons.received", "counter", "beacons", "mp",
              "worker telemetry beacons folded by the parent pool"),
        # ------------------------------------------------------- sim
        _spec("sim.makespan_cycles", "gauge", "cycles", "sim",
              "simulated makespan of the run",
              worse="up", tolerance=0.25),
        _spec("sim.seconds", "gauge", "seconds", "sim",
              "simulated wall-clock duration (makespan / clock_hz)",
              worse="up", tolerance=0.25),
        _spec("sim.events", "counter", "events", "sim",
              "engine events processed during the run"),
        _spec("sim.busy_cycles.<tag>", "counter", "cycles", "sim",
              "busy cycles attributed to one cost tag across all threads"),
        _spec("sim.wait_cycles.<tag>", "counter", "cycles", "sim",
              "waiting cycles attributed to one cost tag across all threads"),
        _spec("sim.core_utilization.<i>", "gauge", "fraction", "sim",
              "busy fraction of simulated core <i> over the makespan"),
    ]
}


@dataclasses.dataclass(frozen=True)
class AlertRule:
    """One declarative SLO rule, evaluated over a rolling window.

    ``kind`` selects the evaluation: ``"rate"`` (per-second counter
    rate over the trailing ``window`` seconds), ``"increase"`` (counter
    delta over the window) or ``"gauge"`` (latest sampled value;
    ``window`` is ignored).  The rule fires while the evaluated value
    exceeds ``threshold``.  Thresholds here are static defaults — the
    serve tier overrides per-deployment bounds (e.g. staleness) when it
    builds its :class:`~repro.obs.live.Watchdog`.
    """

    name: str        #: unique rule name (the alert's identity in events)
    metric: str      #: catalogue metric the rule evaluates
    kind: str        #: rate | increase | gauge
    threshold: float  #: fires while value > threshold
    window: float    #: trailing seconds consulted (rate/increase)
    severity: str    #: warning | critical
    help: str        #: one-line operator guidance


#: the SLO rulebook, co-located with the catalogue it refers to
ALERT_RULES: tuple = (
    AlertRule(
        name="serve-flush-failures",
        metric="serve.batch.flush_failures",
        kind="increase", threshold=0.0, window=30.0, severity="critical",
        help="backend.ingest raised and a micro-batch was dropped; "
             "processed counts are now behind accepted events",
    ),
    AlertRule(
        name="serve-backpressure",
        metric="serve.ingest.rejected",
        kind="rate", threshold=500.0, window=10.0, severity="warning",
        help="clients are being pushed back faster than 500 events/s; "
             "the flusher is not keeping up with offered load",
    ),
    AlertRule(
        name="serve-staleness",
        metric="serve.snapshot.staleness",
        kind="gauge", threshold=5.0, window=0.0, severity="critical",
        help="an acked ingest frame has stayed invisible longer than "
             "the deployment's staleness bound (serve sets this threshold "
             "to 2 x batch_interval; under overload serve.queue.depth "
             "shows the queue-drain term)",
    ),
    AlertRule(
        name="mp-ring-stalls",
        metric="mp.shm.ring_stalls",
        kind="rate", threshold=50.0, window=10.0, severity="warning",
        help="shm dispatch keeps finding ring segments busy; a worker "
             "is slow and the ring is backpressuring",
    ),
    AlertRule(
        name="serve-accuracy-drift",
        metric="serve.accuracy.bound_excess",
        kind="gauge", threshold=0.0, window=0.0, severity="critical",
        help="the shadow-truth probe found an over-estimate beyond the "
             "eps*N guarantee — the summary is violating its bound",
    ),
)


def lookup(name: str) -> Optional[MetricSpec]:
    """Resolve a concrete metric name to its (possibly templated) spec.

    ``mp.worker.3.items`` matches the ``mp.worker.<i>.items`` template;
    unknown names return ``None`` (the report renders them unannotated).
    """
    spec = METRIC_SPECS.get(name)
    if spec is not None:
        return spec
    parts = name.split(".")
    for candidate in METRIC_SPECS.values():
        template = candidate.name.split(".")
        if len(template) != len(parts):
            continue
        if all(
            t in ("<i>", "<tag>", "<stat>") or t == p
            for t, p in zip(template, parts)
        ):
            return candidate
    return None
