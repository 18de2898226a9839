#!/usr/bin/env python
"""Hold the metric catalogue (``repro.obs.schema``) against the code.

Metric names drift: an instrumented call site gets renamed, the
catalogue keeps the old spelling, and ``repro report`` starts printing
``?`` units while docs/observability.md documents a metric nobody emits.
This tool catches that from both ends:

1. **Static scan** — every ``.counter("...")`` / ``.gauge("...")`` /
   ``.histogram("...")`` string literal under ``src/repro/`` (f-string
   templates included: their ``{...}`` holes only ever sit in the
   catalogue's ``<i>``/``<tag>``/``<stat>`` placeholder segments) must
   resolve to a :data:`~repro.obs.schema.METRIC_SPECS` entry of the
   same kind.
2. **Recording smoke run** — tiny SpaceSaving / sequential-sim / CoTS /
   multiprocess / scenario-suite runs against real registries; every
   name in the resulting snapshots must resolve, with the recorded
   family matching the spec's kind.
3. **Alert-rule audit** — every :data:`~repro.obs.schema.ALERT_RULES`
   entry must name a catalogued metric whose kind its evaluation mode
   can read (``rate``/``increase`` need a counter, ``gauge`` needs a
   gauge), with unique rule names.
4. **Prometheus exposition audit** — the serve smoke snapshot is
   rendered through :func:`repro.obs.live.render_prometheus` and the
   output is held against the text-format grammar: HELP/TYPE per
   family, ``_total`` on counters, cumulative monotone ``_bucket``
   series ending in ``+Inf`` with matching ``_count``.
5. **Freshness audit** — the serve smoke observed
   ``serve.freshness.ack_to_visible_seconds`` once per acked ingest
   frame: its session ends behind a ``flush`` barrier and no batch
   fails, so every frame became visible.

Usage::

    PYTHONPATH=src python tools/check_metrics.py               # both passes
    PYTHONPATH=src python tools/check_metrics.py --static-only # no smoke run

Exit code 0 when every name resolves, 1 with a listing otherwise.  CI
runs this in the ``docs`` job (the catalogue is documentation-as-data).
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys
from typing import List, NamedTuple

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC_ROOT = REPO_ROOT / "src" / "repro"

#: a metric-recording call with an inline (possibly f-string) name.
#: ``\s*`` spans newlines, so multi-line call layouts match too.
CALL_RE = re.compile(
    r"\.(counter|gauge|histogram)\(\s*(f?)([\"'])([^\"']+)\3"
)

#: f-string holes; each must land where the catalogue has a placeholder
HOLE_RE = re.compile(r"\{[^{}]*\}")


class Emission(NamedTuple):
    """One metric name the code emits, and where it was seen."""

    name: str        # concrete or hole-substituted metric name
    kind: str        # counter | gauge | histogram
    where: str       # "path:line" for static hits, "runtime" for smoke


def scan_source() -> List[Emission]:
    """Every metric-name literal recorded anywhere under src/repro/."""
    emissions: List[Emission] = []
    for path in sorted(SRC_ROOT.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        for match in CALL_RE.finditer(text):
            kind, is_fstring, _, name = match.groups()
            if is_fstring:
                # any concrete stand-in resolves against a placeholder
                # segment; "0" keeps the dotted shape intact
                name = HOLE_RE.sub("0", name)
            line = text.count("\n", 0, match.start()) + 1
            shown = (
                path.relative_to(REPO_ROOT)
                if path.is_relative_to(REPO_ROOT) else path
            )
            where = f"{shown}:{line}"
            emissions.append(Emission(name, kind, where))
    return emissions


def smoke_run() -> "tuple[List[Emission], dict]":
    """Record from every layer into real registries.

    Returns the emitted names plus the serve run's snapshot (the
    Prometheus exposition audit renders that one — it spans serve,
    backend and alert series at once)."""
    from repro.core.space_saving import SpaceSaving
    from repro.cots import CoTSRunConfig, run_cots
    from repro.mp import MPConfig, run_mp
    from repro.obs import MetricsRegistry
    from repro.parallel import SchemeConfig, run_sequential
    from repro.workloads import zipf_stream

    stream = zipf_stream(2_000, 300, 1.3, seed=7)
    snapshots = []

    registry = MetricsRegistry()
    SpaceSaving(capacity=48, metrics=registry).process_many(stream)
    snapshots.append(("spacesaving", registry.snapshot()))

    registry = MetricsRegistry()
    run_sequential(stream, SchemeConfig(threads=1, capacity=48,
                                        metrics=registry))
    snapshots.append(("sequential", registry.snapshot()))

    registry = MetricsRegistry()
    run_cots(stream, CoTSRunConfig(threads=4, capacity=48,
                                   metrics=registry))
    snapshots.append(("cots", registry.snapshot()))

    registry = MetricsRegistry()
    run_mp(stream, MPConfig(workers=2, capacity=48, chunk_elements=512),
           metrics=registry)
    snapshots.append(("mp", registry.snapshot()))

    from repro.backend import create_backend

    registry = MetricsRegistry()
    backend = create_backend("sketch-cm-vec", epsilon=0.01, delta=0.05,
                             seed=13, metrics=registry)
    try:
        backend.ingest(stream)
        backend.snapshot()
    finally:
        backend.close()
    snapshots.append(("sketch-backend", registry.snapshot()))

    registry = MetricsRegistry()
    backend = create_backend("mp-one-table", capacity=48, workers=2,
                             epsilon=0.01, delta=0.05, seed=13,
                             metrics=registry)
    try:
        backend.ingest(stream)
        backend.snapshot()
    finally:
        backend.close()
    snapshots.append(("mp-one-table", registry.snapshot()))

    from repro.scenarios import ScenarioParams, fuzz, run_scenario

    registry = MetricsRegistry()
    run_scenario(
        "eviction-poison", "sequential",
        ScenarioParams(length=1_500, alphabet=200, capacity=32, seed=7),
        metrics=registry,
    )
    snapshots.append(("scenario", registry.snapshot()))

    registry = MetricsRegistry()
    fuzz(1, seed=0,
         params=ScenarioParams(length=400, alphabet=100, capacity=16),
         metrics=registry)
    snapshots.append(("scenario-fuzz", registry.snapshot()))

    serve_snapshot = _serve_smoke()
    snapshots.append(("serve", serve_snapshot))

    emissions: List[Emission] = []
    for run_name, snapshot in snapshots:
        for family, kind in (("counters", "counter"), ("gauges", "gauge"),
                             ("histograms", "histogram")):
            for name in snapshot.get(family, {}):
                emissions.append(
                    Emission(name, kind, f"runtime ({run_name} run)")
                )
    return emissions, serve_snapshot


def _serve_smoke() -> dict:
    """One tiny serve session (ingest, query, subscribe, reject, error)
    against a real registry, so every ``serve.*`` name is recorded."""
    import asyncio
    import json

    from repro.obs import MetricsRegistry
    from repro.backend import EngineSpec
    from repro.serve import ServeConfig, StreamServer

    registry = MetricsRegistry()

    async def session() -> None:
        config = ServeConfig(
            engine=EngineSpec("sequential", capacity=32), batch_events=4,
            batch_interval=0.01, max_pending_batches=1,
        )
        async with StreamServer(config, metrics=registry) as server:
            reader, writer = await asyncio.open_connection(
                config.host, server.port
            )

            async def request(payload: dict) -> dict:
                writer.write(json.dumps(payload).encode() + b"\n")
                await writer.drain()
                while True:
                    response = json.loads(await reader.readline())
                    if "push" not in response:
                        return response

            await request({"op": "ingest", "events": list(range(4))})
            await request({"op": "flush"})
            await request({"op": "query", "kind": "topk", "k": 3})
            await request({"op": "subscribe",
                           "inner": {"kind": "topk", "k": 1},
                           "period": 0.01})
            await asyncio.sleep(0.03)
            # one oversized frame (protocol error) and one rejected burst
            await request({"op": "nope"})
            await request({"op": "ingest", "events": list(range(64))})
            writer.close()
            await writer.wait_closed()

    asyncio.run(session())
    return registry.snapshot()


def check_alert_rules() -> List[str]:
    """Failure messages for alert rules that drifted from the catalogue."""
    from repro.obs.schema import ALERT_RULES, lookup

    readable_by = {"rate": "counter", "increase": "counter",
                   "gauge": "gauge"}
    failures: List[str] = []
    seen = set()
    for rule in ALERT_RULES:
        if rule.name in seen:
            failures.append(f"alert rule {rule.name!r} is defined twice")
        seen.add(rule.name)
        spec = lookup(rule.metric)
        if spec is None:
            failures.append(
                f"alert rule {rule.name!r} watches {rule.metric!r}, "
                "which has no METRIC_SPECS entry"
            )
            continue
        wanted = readable_by.get(rule.kind)
        if wanted is None:
            failures.append(
                f"alert rule {rule.name!r} has unknown kind {rule.kind!r}"
            )
        elif spec.kind != wanted:
            failures.append(
                f"alert rule {rule.name!r} ({rule.kind}) needs a {wanted} "
                f"but {rule.metric!r} is catalogued as a {spec.kind}"
            )
    return failures


#: one exposition sample line: name{labels} value
SAMPLE_RE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (-?[0-9.e+\-]+|NaN|[+-]Inf)$"
)


def check_prometheus(snapshot: dict, text: str | None = None) -> List[str]:
    """Hold ``render_prometheus`` output against the text format.

    ``text`` overrides the rendered exposition (tests feed malformed
    documents through the same audit).
    """
    failures: List[str] = []
    if text is None:
        from repro.obs.live import render_prometheus

        text = render_prometheus(snapshot)
    if text and not text.endswith("\n"):
        failures.append("prometheus: output must end with a newline")
    helped, typed = set(), {}
    samples: dict = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line:
            failures.append(f"prometheus:{lineno}: blank line")
        elif line.startswith("# HELP "):
            helped.add(line.split()[2])
        elif line.startswith("# TYPE "):
            parts = line.split()
            typed[parts[2]] = parts[3]
        elif line.startswith("#"):
            failures.append(f"prometheus:{lineno}: unknown comment {line!r}")
        else:
            match = SAMPLE_RE.match(line)
            if match is None:
                failures.append(f"prometheus:{lineno}: bad sample {line!r}")
                continue
            samples.setdefault(match.group(1), []).append(
                (match.group(2) or "", float(match.group(3)))
            )
    for family, kind in typed.items():
        if family not in helped:
            failures.append(f"prometheus: family {family!r} has no HELP")
        if kind == "counter" and not family.endswith("_total"):
            failures.append(
                f"prometheus: counter family {family!r} lacks _total"
            )
        if kind == "histogram":
            buckets = samples.get(f"{family}_bucket", [])
            if not any('le="+Inf"' in labels for labels, _ in buckets):
                failures.append(
                    f"prometheus: histogram {family!r} has no +Inf bucket"
                )
            values = [value for _, value in buckets]
            if values != sorted(values):
                failures.append(
                    f"prometheus: histogram {family!r} buckets are not "
                    "cumulative"
                )
            counts = samples.get(f"{family}_count", [])
            if values and counts and counts[0][1] != values[-1]:
                failures.append(
                    f"prometheus: histogram {family!r} _count "
                    f"{counts[0][1]} != +Inf bucket {values[-1]}"
                )
    for family in samples:
        base = re.sub(r"_(bucket|sum|count)$", "", family)
        if family not in typed and base not in typed:
            failures.append(
                f"prometheus: family {family!r} has samples but no TYPE"
            )
    return failures


FRESHNESS = "serve.freshness.ack_to_visible_seconds"


def check_freshness(snapshot: dict) -> List[str]:
    """Failure messages unless every acked ingest frame of the serve
    smoke was observed becoming visible."""
    frames = snapshot["counters"].get("serve.ingest.frames", 0)
    observed = snapshot["histograms"].get(FRESHNESS, {}).get("count", 0)
    if frames == 0 or observed != frames:
        return [
            f"freshness: {FRESHNESS} observed {observed} frame(s), "
            f"but the serve smoke acked {frames}"
        ]
    return []


def check(emissions: List[Emission]) -> List[str]:
    """Failure messages for emissions the catalogue cannot resolve."""
    from repro.obs.schema import lookup

    failures = []
    for emission in emissions:
        spec = lookup(emission.name)
        if spec is None:
            failures.append(
                f"{emission.where}: {emission.kind} {emission.name!r} "
                "has no METRIC_SPECS entry"
            )
        elif spec.kind != emission.kind:
            failures.append(
                f"{emission.where}: {emission.name!r} recorded as "
                f"{emission.kind} but catalogued as {spec.kind} "
                f"(spec {spec.name!r})"
            )
    return failures


def main(argv: List[str] | None = None) -> int:
    cli = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    cli.add_argument(
        "--static-only", action="store_true",
        help="skip the recording smoke run (static scan only)",
    )
    args = cli.parse_args(argv)

    emissions = scan_source()
    static_count = len(emissions)
    serve_snapshot = None
    if not args.static_only:
        runtime, serve_snapshot = smoke_run()
        emissions.extend(runtime)
    failures = check(emissions)
    failures += check_alert_rules()
    if serve_snapshot is not None:
        failures += check_prometheus(serve_snapshot)
        failures += check_freshness(serve_snapshot)
    if failures:
        print(f"check_metrics: {len(failures)} failure(s):")
        for failure in failures:
            print(f"  {failure}")
        return 1
    runtime_count = len(emissions) - static_count
    from repro.obs.schema import ALERT_RULES

    print(
        f"check_metrics: {static_count} call site(s) and "
        f"{runtime_count} recorded name(s) all resolve against "
        f"METRIC_SPECS; {len(ALERT_RULES)} alert rule(s), the "
        "Prometheus exposition and the freshness audit check out"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
