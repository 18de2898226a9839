"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``experiment``
    Regenerate one (or all) of the paper's tables/figures, print the
    rows and a verdict for each of the paper's shape claims about them
    (exit 1 when one fails), optionally archiving the tables to a
    directory::

        python -m repro experiment table2 --scale tiny
        python -m repro experiment all --scale default --output results/

``generate``
    Emit a synthetic zipfian stream, one element per line::

        python -m repro generate --length 10000 --alpha 2.0 > stream.txt

``count``
    Count a stream file (or stdin) on any registered engine, the same
    table and engine flags as ``serve``, and print the top-k / frequent
    elements; ``--backend mp-shm --workers N`` counts on N real
    processes::

        python -m repro count stream.txt --capacity 100 --top 10 --phi 0.01
        python -m repro count stream.txt --backend mp-shm --workers 4

``simulate``
    Drive one parallelization scheme over a synthetic stream on the
    simulated quad-core and report simulated time, throughput and the
    time breakdown::

        python -m repro simulate --scheme cots --threads 64 --alpha 2.5

``bench``
    Run a pinned benchmark suite and write the machine-readable report.
    ``--suite core`` (default) measures the hot-path wall clock and
    every simulated scheme; ``--suite mp`` measures the multiprocess
    sharded backend's real wall-clock scaling curve; ``--suite
    scenarios`` runs the accuracy matrix (every scenario on every
    backend, gated on zero guarantee violations)::

        python -m repro bench --scale tiny --output BENCH_core.json
        python -m repro bench --suite mp --scale default
        python -m repro bench --suite scenarios --scale smoke

``report``
    Render the metrics snapshots embedded in a bench report (or any
    JSON document carrying the same schema) as a readable table, or as
    machine-readable JSON with ``--json``; ``--diff`` compares two
    reports and exits 1 when a gated metric regresses past its
    threshold::

        python -m repro report BENCH_core.json
        python -m repro report BENCH_mp.json --entry mp-sharded --json
        python -m repro report --diff BENCH_mp.json fresh.json --tolerance 5.0

``schedcheck``
    Explore N seeded scheduling perturbations per scheme, auditing
    structural and semantic invariants on every run; failing schedules
    are shrunk to minimal reproducers (``--trace-dir`` additionally
    dumps each reproducer as a Chrome trace).  Exit code 1 on
    violations::

        python -m repro schedcheck --schemes cots,shared,hybrid \
            --schedules 200 --seed 42

``scenarios``
    Run registered stream scenarios (drift, flash crowds, hot-set
    churn, adversarial floods and eviction poisoning) against a chosen
    backend and print per-scenario accuracy against exact ground truth;
    ``--fuzz N`` instead composes scenarios randomly under a seed and
    shrinks any lane-differential or guarantee failure to a minimal
    reproducer via schedcheck's ddmin.  Exit code 1 on violations::

        python -m repro scenarios --list
        python -m repro scenarios --backend mp-shm --capacity 128
        python -m repro scenarios --scenario eviction-poison --k 20
        python -m repro scenarios --fuzz 25 --seed 42

``serve``
    Boot the async TCP serve tier: live ``ingest`` plus the paper's
    full §3.2 query model (point / set / interval / continuous) over a
    newline-delimited JSON protocol, micro-batched into any registered
    backend and answered from bounded-staleness snapshots (protocol
    reference and operator guide: docs/serve.md)::

        python -m repro serve --backend sequential --port 7070
        python -m repro serve --backend mp-one-table --workers 4

``top``
    Live terminal dashboard for a running server: attaches to its
    ``metrics`` push stream and renders windowed rates, latency
    quantiles, per-worker beacon occupancy and SLO alert state;
    ``--once --json`` turns it into a scriptable probe::

        python -m repro top --port 7070
        python -m repro top --port 7070 --once --json

``trace``
    Record a traced run and print its timeline; ``--mode`` picks the
    simulated shared scheme (engine-effect trace), a span-traced
    simulated CoTS run, or a span-traced real multiprocess run, and
    ``--out`` exports Chrome trace-event JSON for Perfetto /
    ``chrome://tracing``::

        python -m repro trace --mode cots --threads 8 --out cots.json
        python -m repro trace --mode mp --workers 2 --out mp.json
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from typing import List, Optional

from repro import __version__

#: elements per ``ingest`` call while ``count`` feeds its engine
COUNT_BATCH = 8192


def _add_engine_flags(command: argparse.ArgumentParser, *flags: str) -> None:
    """Declare the named engine flags (default: all six) on ``command``
    with :class:`~repro.backend.registry.EngineSpec`'s defaults;
    :func:`_engine_spec` reads them back."""
    from repro.backend.registry import BACKEND_NAMES, EngineSpec

    declared = {
        "backend": dict(choices=BACKEND_NAMES, default=EngineSpec.name,
                        help="registered counting engine; sketch engines "
                        "answer with Count-Min bounds (default: %(default)s)"),
        "capacity": dict(type=int, default=EngineSpec.capacity,
                         help="counter/candidate budget: the error bound "
                         "is N/capacity (default: %(default)s)"),
        "threads": dict(type=int, default=EngineSpec.threads,
                        help="simulated threads (cots-sim backend)"),
        "workers": dict(type=int, default=EngineSpec.workers,
                        help="worker processes (mp backends)"),
        "epsilon": dict(type=float, default=EngineSpec.epsilon,
                        help="Count-Min error bound (sketch-cm-vec and "
                        "mp-one-table)"),
        "seed": dict(type=int, default=EngineSpec.seed,
                     help="sketch hash seed (sketch backends)"),
    }
    for flag in flags or declared:
        command.add_argument(f"--{flag}", **declared[flag])


def _engine_spec(args: argparse.Namespace):
    """The :class:`EngineSpec` the engine flags ask for (raises
    :class:`~repro.errors.ConfigurationError` naming a bad field)."""
    from repro.backend.registry import EngineSpec

    return EngineSpec(
        args.backend, capacity=args.capacity, threads=args.threads,
        workers=args.workers, epsilon=args.epsilon, seed=args.seed,
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'CoTS: A Scalable Framework for Parallelizing "
            "Frequency Counting over Data Streams' (ICDE 2009)"
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    experiment = commands.add_parser(
        "experiment",
        help="regenerate one of the paper's tables/figures and check "
        "its shape claims",
    )
    experiment.add_argument(
        "which",
        help="experiment id (fig3a, fig3b, fig4-7, fig11, fig12, table2, "
        "lean_camp) or 'all'",
    )
    experiment.add_argument(
        "--scale",
        choices=("tiny", "default", "large"),
        default="tiny",
        help="workload scale preset (default: tiny)",
    )
    experiment.add_argument(
        "--output", type=pathlib.Path, default=None,
        help="also write each table to <output>/<id>.txt",
    )
    experiment.add_argument(
        "--chart", nargs=2, metavar=("X", "Y"), default=None,
        help="also draw an ASCII chart of column Y against column X "
        "(e.g. --chart threads speedup)",
    )

    generate = commands.add_parser(
        "generate", help="emit a synthetic zipfian stream to stdout"
    )
    generate.add_argument("--length", type=int, default=10_000)
    generate.add_argument("--alphabet", type=int, default=0,
                          help="alphabet size (default: same as length)")
    generate.add_argument("--alpha", type=float, default=2.0)
    generate.add_argument("--seed", type=int, default=0)

    count = commands.add_parser(
        "count", help="count frequencies in a stream file (or stdin)"
    )
    count.add_argument(
        "stream", nargs="?", default="-",
        help="file with one element per line, or '-' for stdin",
    )
    _add_engine_flags(count)
    count.add_argument("--top", type=int, default=10,
                       help="print the top-k elements (k >= 1)")
    count.add_argument("--phi", type=float, default=0.0,
                       help="also print elements above this support, in "
                       "(0, 1) (default: 0, off)")

    simulate = commands.add_parser(
        "simulate",
        help="drive a parallelization scheme on the simulated quad-core",
    )
    simulate.add_argument(
        "--scheme",
        choices=("sequential", "shared", "shared-spin", "independent",
                 "hybrid", "cots", "cots-lossy"),
        default="cots",
    )
    simulate.add_argument("--threads", type=int, default=16)
    simulate.add_argument("--capacity", type=int, default=128)
    simulate.add_argument("--length", type=int, default=10_000)
    simulate.add_argument("--alpha", type=float, default=2.5)
    simulate.add_argument("--seed", type=int, default=7)
    simulate.add_argument("--cores", type=int, default=4)
    simulate.add_argument("--merge-every", type=int, default=0,
                          help="independent: merge interval in elements")
    simulate.add_argument("--top", type=int, default=5)

    bench = commands.add_parser(
        "bench",
        help="run a pinned benchmark suite and write BENCH_<suite>.json",
    )
    bench.add_argument(
        "--suite",
        choices=("core", "mp", "scenarios", "sketch"),
        default="core",
        help="core: hot path + simulated schemes; mp: the multiprocess "
        "sharded backend scaling curve; scenarios: the accuracy matrix "
        "of every scenario on every backend; sketch: the scalar vs "
        "vectorized vs one-table Count-Min ladder (default: core)",
    )
    bench.add_argument(
        "--scale",
        choices=("smoke", "tiny", "default", "large"),
        default="default",
        help="workload scale preset; smoke is the smallest rung, used "
        "by the CI accuracy gate (default: default)",
    )
    bench.add_argument(
        "--output", type=pathlib.Path, default=None,
        help="result file (default: ./BENCH_<suite>.json)",
    )

    report = commands.add_parser(
        "report",
        help="render the metrics snapshots embedded in a bench report",
    )
    report.add_argument(
        "path", nargs="?", type=pathlib.Path,
        default=pathlib.Path("BENCH_core.json"),
        help="bench report to read (default: ./BENCH_core.json)",
    )
    report.add_argument(
        "--entry", default=None,
        help="only entries whose name contains this substring",
    )
    report.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit the machine-readable JSON form instead of the table",
    )
    report.add_argument(
        "--diff", nargs=2, metavar=("BEFORE", "AFTER"),
        type=pathlib.Path, default=None,
        help="compare two run reports instead of rendering one: "
        "per-entry deltas for bench scalars and metrics snapshots, "
        "exit 1 when a gated metric regresses past its threshold",
    )
    report.add_argument(
        "--tolerance", type=float, default=None,
        help="override every per-metric regression threshold with one "
        "relative slack (e.g. 5.0 allows 6x; used by CI smoke)",
    )

    schedcheck = commands.add_parser(
        "schedcheck",
        help="explore perturbed schedules per scheme, auditing every run "
        "(exit 1 on any violation)",
    )
    schedcheck.add_argument(
        "--schemes", default="cots,shared,hybrid",
        help="comma-separated scheme list (cots, cots-pre, shared, "
        "hybrid, independent, sequential)",
    )
    schedcheck.add_argument("--schedules", type=int, default=50,
                            help="perturbed schedules per scheme")
    schedcheck.add_argument("--seed", default="0",
                            help="campaign master seed")
    schedcheck.add_argument("--length", type=int, default=1_500)
    schedcheck.add_argument("--alphabet", type=int, default=300)
    schedcheck.add_argument("--alpha", type=float, default=1.3)
    schedcheck.add_argument("--threads", type=int, default=4)
    schedcheck.add_argument("--capacity", type=int, default=64)
    schedcheck.add_argument("--cores", type=int, default=2)
    schedcheck.add_argument("--check-every", type=int, default=512,
                            help="mid-run audit stride in engine events "
                            "(0 disables mid-run audits)")
    schedcheck.add_argument("--jitter", type=float, default=0.3,
                            help="cost-table jitter spread in [0, 1)")
    schedcheck.add_argument("--mutate", default=None,
                            help="inject a named protocol bug "
                            "(harness self-test; see repro.schedcheck."
                            "mutations)")
    schedcheck.add_argument("--no-shrink", action="store_true",
                            help="skip shrinking failing schedules")
    schedcheck.add_argument(
        "--trace-dir", type=pathlib.Path, default=None,
        help="also write each minimal reproducer's schedule as Chrome "
        "trace-event JSON (<scheme>-reproducer.json) into this directory",
    )
    schedcheck.add_argument("--verbose", action="store_true",
                            help="print one line per schedule")

    scenarios = commands.add_parser(
        "scenarios",
        help="run stream scenarios/adversaries against a backend and "
        "audit accuracy (exit 1 on guarantee violations); --fuzz "
        "composes scenarios randomly and shrinks failures",
    )
    scenarios.add_argument(
        "--list", action="store_true", dest="list_scenarios",
        help="list registered scenarios and exit",
    )
    scenarios.add_argument(
        "--scenario", default="all",
        help="scenario name, or 'all' for the full registry "
        "(default: all)",
    )
    _add_engine_flags(scenarios, "backend", "threads", "workers")
    scenarios.add_argument("--length", type=int, default=20_000)
    scenarios.add_argument("--alphabet", type=int, default=2_000)
    scenarios.add_argument("--capacity", type=int, default=128,
                           help="Space Saving counter budget (the "
                           "adversaries target exactly this)")
    scenarios.add_argument("--seed", type=int, default=7)
    scenarios.add_argument("--k", type=int, default=10,
                           help="top-k depth for recall/precision")
    scenarios.add_argument(
        "--fuzz", type=int, default=0, metavar="N",
        help="fuzz mode: run N random scenario compositions through "
        "the lane differential, shrinking any failure to a minimal "
        "reproducer (ignores --scenario/--backend)",
    )
    scenarios.add_argument(
        "--max-shrink-tests", type=int, default=300,
        help="ddmin replay budget per fuzz failure (default: 300)",
    )
    scenarios.add_argument("--verbose", action="store_true",
                           help="fuzz mode: print one line per "
                           "composition")

    serve = commands.add_parser(
        "serve",
        help="boot the async TCP serve tier (NDJSON protocol, "
        "micro-batched ingest, snapshot queries; see docs/serve.md)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7070,
                       help="TCP port; 0 picks an ephemeral port "
                       "(default: 7070)")
    _add_engine_flags(serve)
    serve.add_argument("--batch-events", type=int, default=2048,
                       help="micro-batch size in events (default: 2048)")
    serve.add_argument("--batch-interval", type=float, default=0.05,
                       help="snapshot catch-up period in seconds; the "
                       "staleness bound is twice this (default: 0.05)")
    serve.add_argument("--max-pending-batches", type=int, default=16,
                       help="backpressure budget: pending micro-batches "
                       "before ingest frames are refused (default: 16)")
    serve.add_argument("--metrics-port", type=int, default=None,
                       help="also expose Prometheus text metrics on this "
                       "HTTP port (0 picks an ephemeral port; default: "
                       "off)")
    serve.add_argument("--watchdog-interval", type=float, default=0.5,
                       help="telemetry sample + SLO evaluation period in "
                       "seconds (default: 0.5)")
    serve.add_argument("--probe-keys", type=int, default=128,
                       help="shadow-truth accuracy probe size in distinct "
                       "keys; 0 disables the drift alert (default: 128)")
    serve.add_argument("--fault", choices=("flush-failure",), default=None,
                       help="inject a serve fault for alert drills "
                       "(testing only)")

    top = commands.add_parser(
        "top",
        help="live terminal dashboard for a running server: attaches to "
        "its metrics stream (rates, latency quantiles, worker beacons, "
        "alert state)",
    )
    top.add_argument("--host", default="127.0.0.1")
    top.add_argument("--port", type=int, default=7070,
                     help="the server's NDJSON port (default: 7070)")
    top.add_argument("--period", type=float, default=1.0,
                     help="refresh period in seconds (default: 1.0)")
    top.add_argument("--frames", type=int, default=0,
                     help="render N frames then exit (0 = until ^C)")
    top.add_argument("--once", action="store_true",
                     help="fetch one metrics answer, render it, exit")
    top.add_argument("--json", action="store_true", dest="as_json",
                     help="print raw JSON payloads instead of rendering")
    top.add_argument("--raw", action="store_true",
                     help="include the full cumulative metrics snapshot "
                     "in each payload (with --json)")

    trace = commands.add_parser(
        "trace",
        help="record a traced run (simulated or real) and print the "
        "timeline; --out exports Chrome trace-event JSON",
    )
    trace.add_argument(
        "--mode",
        choices=("sim", "cots", "mp"),
        default="sim",
        help="sim: shared-scheme engine trace (core occupancy); cots: "
        "span-traced CoTS run (delegation/drain/scheduler); mp: "
        "span-traced multiprocess run on real worker processes "
        "(default: sim)",
    )
    trace.add_argument("--threads", type=int, default=6)
    trace.add_argument("--length", type=int, default=1_500)
    trace.add_argument("--alpha", type=float, default=2.0)
    trace.add_argument("--capacity", type=int, default=64)
    trace.add_argument("--cores", type=int, default=4)
    trace.add_argument("--width", type=int, default=72)
    trace.add_argument("--workers", type=int, default=2,
                       help="worker processes (mp mode)")
    trace.add_argument(
        "--out", type=pathlib.Path, default=None,
        help="write the Chrome trace-event JSON (open in Perfetto or "
        "chrome://tracing) to this path",
    )
    return parser


# ----------------------------------------------------------------------
# Command implementations
# ----------------------------------------------------------------------
def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.experiments import (
        ALL_EXPERIMENTS,
        ExperimentScale,
        ascii_chart,
        claims_for,
        format_table,
    )

    scale = getattr(ExperimentScale, args.scale)()  # a --scale choice
    if args.which == "all":
        chosen = list(ALL_EXPERIMENTS)
    elif args.which in ALL_EXPERIMENTS:
        chosen = [args.which]
    else:
        print(
            f"unknown experiment {args.which!r}; pick one of "
            f"{', '.join(ALL_EXPERIMENTS)} or 'all'",
            file=sys.stderr,
        )
        return 2
    tally = {"pass": 0, "fail": 0, "skip": 0}
    for name in chosen:
        result = ALL_EXPERIMENTS[name](scale)
        text = format_table(result)
        print(text)
        for claim in claims_for(name):
            verdict = claim.verdict(result, scale)
            tally[verdict] += 1
            why = " (strict scales only)" if verdict == "skip" else ""
            print(f"  {verdict.upper()}  {claim.figure}: {claim.text}"
                  f"  [{claim.name}]{why}")
        print()
        if args.chart is not None:
            print(ascii_chart(result, args.chart[0], args.chart[1]))
            print()
        if args.output is not None:
            args.output.mkdir(parents=True, exist_ok=True)
            (args.output / f"{name}.txt").write_text(text + "\n")
    print(f"claims at scale {scale.name}: {tally['pass']} passed, "
          f"{tally['fail']} failed, {tally['skip']} skipped")
    return 1 if tally["fail"] else 0


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.workloads import zipf_stream

    alphabet = args.alphabet if args.alphabet > 0 else args.length
    for element in zipf_stream(args.length, alphabet, args.alpha, args.seed):
        print(element)
    return 0


def _read_stream(source: str) -> List[str]:
    if source == "-":
        lines = sys.stdin.read().splitlines()
    else:
        lines = pathlib.Path(source).read_text().splitlines()
    return [line.strip() for line in lines if line.strip()]


def _cmd_count(args: argparse.Namespace) -> int:
    from repro.backend.registry import create_backend
    from repro.errors import ConfigurationError

    try:
        spec = _engine_spec(args)
        if args.top < 1:
            raise ConfigurationError(f"top must be >= 1, got {args.top}")
        if not 0 <= args.phi < 1:
            raise ConfigurationError(
                f"phi must be 0 (off) or in (0, 1), got {args.phi}"
            )
    except ConfigurationError as exc:
        print(f"count: {exc}", file=sys.stderr)
        return 2
    stream = _read_stream(args.stream)
    backend = create_backend(spec)
    try:
        for start in range(0, len(stream), COUNT_BATCH):
            backend.ingest(stream[start:start + COUNT_BATCH])
        snapshot = backend.snapshot()
    finally:
        backend.close()
    print(f"# {spec.name}: {snapshot.processed} elements processed")
    print(f"# top-{args.top}:")
    for entry in snapshot.top_k(args.top):
        print(f"{entry.element}\t{entry.count}\t(error<={entry.error})")
    if args.phi > 0:
        print(f"# elements above {args.phi:.3%} support:")
        for entry in snapshot.frequent(args.phi):
            print(f"{entry.element}\t{entry.count}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.cots import CoTSRunConfig, LossyCoTSConfig, run_cots, run_lossy_cots
    from repro.parallel import (
        SchemeConfig,
        run_hybrid,
        run_independent,
        run_sequential,
        run_shared,
    )
    from repro.simcore import MachineSpec
    from repro.workloads import zipf_stream

    stream = zipf_stream(args.length, args.length, args.alpha, args.seed)
    machine = MachineSpec(cores=args.cores)
    config = SchemeConfig(
        threads=args.threads, capacity=args.capacity, machine=machine
    )
    if args.scheme == "sequential":
        result = run_sequential(stream, config)
    elif args.scheme == "shared":
        result = run_shared(stream, config, lock_kind="mutex")
    elif args.scheme == "shared-spin":
        result = run_shared(stream, config, lock_kind="spin")
    elif args.scheme == "independent":
        result = run_independent(
            stream, config,
            merge_every=args.merge_every or args.length // 100,
        )
    elif args.scheme == "hybrid":
        result = run_hybrid(stream, config)
    else:
        run, config_cls = (
            (run_lossy_cots, LossyCoTSConfig) if args.scheme == "cots-lossy"
            else (run_cots, CoTSRunConfig)
        )
        result = run(stream, config_cls(
            threads=args.threads, capacity=args.capacity, machine=machine
        ))
    print(f"scheme:      {result.scheme}")
    print(f"stream:      {args.length} elements, zipf alpha={args.alpha}")
    print(f"threads:     {result.threads} on {args.cores} simulated cores")
    print(f"time:        {result.seconds * 1e3:.4f} ms (simulated)")
    print(f"throughput:  {result.throughput / 1e6:.2f} M elements/s")
    print("breakdown:")
    for tag, fraction in sorted(
        result.breakdown().items(), key=lambda kv: -kv[1]
    ):
        print(f"  {tag:10s} {fraction:7.2%}")
    print(f"top-{args.top}:")
    for entry in result.counter.top_k(args.top):
        print(f"  {entry.element}\t{entry.count}\t(error<={entry.error})")
    stats = result.extras.get("stats")
    if stats:
        interesting = {
            key: stats[key]
            for key in ("delegations", "bulk_increments", "bulk_total",
                        "overwrites", "gc_buckets")
            if stats.get(key)
        }
        if interesting:
            print(f"cots stats:  {interesting}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench import default_output, format_report, run_suite, write_report

    output = args.output if args.output is not None else default_output(args.suite)
    report = run_suite(scale=args.scale, suite=args.suite)
    write_report(report, output)
    print(format_report(report))
    print(f"wrote {output}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    import json

    from repro.errors import ConfigurationError
    from repro.obs import (
        diff_reports,
        load_report,
        render_report,
        report_json,
        select_entries,
    )

    if args.diff is not None:
        try:
            before = load_report(str(args.diff[0]))
            after = load_report(str(args.diff[1]))
            result = diff_reports(
                before, after, tolerance=args.tolerance, entry=args.entry
            )
        except (FileNotFoundError, ConfigurationError) as exc:
            print(f"report: {exc}", file=sys.stderr)
            return 2
        if args.as_json:
            print(json.dumps(result.to_json(), indent=2, sort_keys=True))
        else:
            print(result.render())
        return 0 if result.ok else 1

    try:
        report = load_report(str(args.path))
        report = select_entries(report, args.entry)
    except FileNotFoundError:
        print(
            f"no report at {args.path} (run `python -m repro bench` first,"
            " or pass a path)",
            file=sys.stderr,
        )
        return 2
    except ConfigurationError as exc:
        print(f"report: {exc}", file=sys.stderr)
        return 2
    if args.as_json:
        print(json.dumps(report_json(report, source=str(args.path)),
                         indent=2, sort_keys=True))
    else:
        print(render_report(report, source=str(args.path)))
    return 0


def _cmd_schedcheck(args: argparse.Namespace) -> int:
    """Schedule exploration campaign; exit 1 if any audit fails."""
    from repro.schedcheck import (
        ExploreConfig,
        explore,
        get_mutation,
        get_scheme,
        shrink_outcome,
    )

    schemes = [name.strip() for name in args.schemes.split(",") if name.strip()]
    for name in schemes:
        get_scheme(name)  # fail fast on typos, before any simulation
    config = ExploreConfig(
        schedules=args.schedules,
        seed=args.seed,
        length=args.length,
        alphabet=args.alphabet,
        alpha=args.alpha,
        threads=args.threads,
        capacity=args.capacity,
        cores=args.cores,
        check_every=args.check_every,
        jitter=args.jitter,
    )
    patch = get_mutation(args.mutate) if args.mutate else None
    if patch is not None:
        print(f"# mutation active: {args.mutate} (failures are EXPECTED)")
    progress = print if args.verbose else None
    reports = explore(schemes, config, patch=patch, progress=progress)
    stream = config.make_stream()
    violations = 0
    for name, report in reports.items():
        print(report.summary_line())
        violations += len(report.failures)
        if report.failures and not args.no_shrink:
            failing = report.failures[0]
            result = shrink_outcome(
                get_scheme(name), stream, config, failing, patch=patch
            )
            print(result.render())
            if args.trace_dir is not None:
                args.trace_dir.mkdir(parents=True, exist_ok=True)
                trace_path = args.trace_dir / f"{name}-reproducer.json"
                spans = result.write_chrome_trace(str(trace_path))
                print(f"reproducer trace: {trace_path} ({spans} spans)")
    if violations:
        print(f"schedcheck: {violations} violating schedule(s)")
        return 0 if patch is not None else 1
    print("schedcheck: all schedules passed every audit")
    if patch is not None:
        print("schedcheck: WARNING: the injected mutation went undetected")
        return 1
    return 0


def _cmd_scenarios(args: argparse.Namespace) -> int:
    """Scenario accuracy matrix / fuzzer; exit 1 on violations."""
    from repro.backend.registry import EngineSpec
    from repro.errors import ConfigurationError, StreamError
    from repro.obs import MetricsRegistry
    from repro.scenarios import (
        SCENARIOS,
        ScenarioParams,
        fuzz,
        get_scenario,
        run_scenario,
    )

    if args.list_scenarios:
        for scenario in SCENARIOS.values():
            print(f"{scenario.name:18s} {scenario.kind:12s} "
                  f"{scenario.description}")
        return 0

    try:
        EngineSpec(args.backend, threads=args.threads, workers=args.workers)
        params = ScenarioParams(
            length=args.length,
            alphabet=args.alphabet,
            capacity=args.capacity,
            seed=args.seed,
        )
    except (ConfigurationError, StreamError) as exc:
        print(f"scenarios: {exc}", file=sys.stderr)
        return 2

    if args.fuzz > 0:
        progress = print if args.verbose else None
        report = fuzz(
            args.fuzz,
            seed=args.seed,
            params=params,
            k=args.k,
            max_shrink_tests=args.max_shrink_tests,
            progress=progress,
        )
        if not args.verbose:
            for failure in report.failures:
                print(failure.render())
        print(report.summary_line())
        return 0 if report.ok else 1

    if args.scenario == "all":
        names = list(SCENARIOS)
    else:
        try:
            names = [get_scenario(args.scenario).name]
        except ConfigurationError as exc:
            print(f"scenarios: {exc}", file=sys.stderr)
            return 2
    print(f"# backend={args.backend} length={params.length} "
          f"alphabet={params.alphabet} capacity={params.capacity} "
          f"seed={params.seed} k={args.k}")
    violations = 0
    for name in names:
        run = run_scenario(
            name,
            args.backend,
            params,
            k=args.k,
            threads=args.threads,
            workers=args.workers,
            metrics=MetricsRegistry(),
        )
        accuracy = run.accuracy
        violations += accuracy.guarantee_violations
        print(
            f"{name:18s} {run.scenario_kind:12s} "
            f"recall@{args.k}={accuracy.recall_at_k:.2f} "
            f"precision@{args.k}={accuracy.precision_at_k:.2f} "
            f"max_over={accuracy.max_overestimate} "
            f"bound={accuracy.error_bound:.1f} "
            f"violations={accuracy.guarantee_violations} "
            f"[{run.wall_seconds * 1e3:.0f} ms]"
        )
    if violations:
        print(f"scenarios: {violations} guarantee violation(s)")
        return 1
    print("scenarios: every summary honoured its guarantees")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the serve tier until interrupted."""
    import asyncio

    from repro.errors import ConfigurationError, ListenError
    from repro.obs import MetricsRegistry
    from repro.serve import ServeConfig, run_server

    try:
        config = ServeConfig(
            host=args.host,
            port=args.port,
            engine=_engine_spec(args),
            batch_events=args.batch_events,
            batch_interval=args.batch_interval,
            max_pending_batches=args.max_pending_batches,
            metrics_port=args.metrics_port,
            watchdog_interval=args.watchdog_interval,
            probe_keys=args.probe_keys,
            fault=args.fault,
        )
    except ConfigurationError as exc:
        print(f"serve: {exc}", file=sys.stderr)
        return 2
    try:
        asyncio.run(run_server(config, metrics=MetricsRegistry()))
    except KeyboardInterrupt:
        print("serve: interrupted, shut down cleanly")
    except ListenError as exc:
        # the server closed its backend before this propagated
        print(f"serve: {exc}", file=sys.stderr)
        return 2
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    """Attach the live dashboard to a running server."""
    import asyncio

    from repro.serve import run_top

    try:
        return asyncio.run(run_top(
            host=args.host,
            port=args.port,
            period=args.period,
            frames=args.frames,
            once=args.once,
            as_json=args.as_json,
            raw=args.raw,
        ))
    except KeyboardInterrupt:
        return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """Record a traced run and print/export its timeline.

    ``--mode sim`` keeps the original behaviour (engine-effect trace of
    the shared scheme, core-occupancy timeline); ``--mode cots`` and
    ``--mode mp`` record *span* traces of a simulated CoTS run and a
    real multiprocess run.  With ``--out`` the timeline is additionally
    exported as Chrome trace-event JSON — all three modes go through the
    same exporter (the sim trace is bridged into the span model).
    """
    from repro.obs.export import ascii_timeline, write_chrome_trace
    from repro.workloads import zipf_stream

    stream = zipf_stream(args.length, args.length, args.alpha, seed=7)

    if args.mode == "sim":
        from repro.obs.tracing import spans_from_sim_trace
        from repro.parallel.shared import _SharedState, _worker
        from repro.simcore import CostModel, Engine, MachineSpec, TraceRecorder
        from repro.workloads import block_partition

        tracer = TraceRecorder()
        costs = CostModel()
        engine = Engine(
            machine=MachineSpec(cores=args.cores), costs=costs, tracer=tracer
        )
        state = _SharedState(args.capacity, "mutex")
        for index, part in enumerate(block_partition(stream, args.threads)):
            engine.spawn(
                _worker(part, state, costs), name=f"{chr(97 + index % 26)}{index}"
            )
        result = engine.run()
        print(tracer.timeline(width=args.width))
        print()
        print(tracer.summary())
        print(f"simulated time: {result.seconds * 1e3:.3f} ms for "
              f"{len(stream)} elements on the shared (lock-based) design")
        if args.out is not None:
            spans, dropped = spans_from_sim_trace(tracer)
            write_chrome_trace(
                str(args.out), spans, scale=1.0, truncated=dropped,
                meta={"mode": "sim", "scheme": "shared",
                      "threads": args.threads, "cores": args.cores},
            )
            print(f"wrote {args.out} ({len(spans)} spans, "
                  f"{dropped} dropped)")
        return 0

    if args.mode == "cots":
        from repro.cots import CoTSRunConfig, run_cots
        from repro.obs.tracing import Tracer
        from repro.simcore import MachineSpec

        tracer = Tracer()
        result = run_cots(stream, CoTSRunConfig(
            threads=args.threads, capacity=args.capacity,
            machine=MachineSpec(cores=args.cores), tracer=tracer,
        ))
        records = tracer.records()
        print(ascii_timeline(records, width=args.width))
        print(f"simulated time: {result.seconds * 1e3:.3f} ms, "
              f"{len(records)} trace records"
              + (f", {tracer.dropped} dropped" if tracer.dropped else ""))
        if args.out is not None:
            # simulated clocks record cycles: one exported "us" per cycle
            write_chrome_trace(
                str(args.out), records, scale=1.0, truncated=tracer.dropped,
                meta={"mode": "cots", "threads": args.threads,
                      "cores": args.cores, "clock": "cycles"},
            )
            print(f"wrote {args.out} ({len(records)} records)")
        return 0

    # mp: a real multiprocess run on host wall clock
    from repro.mp import MPConfig, run_mp
    from repro.obs.tracing import Tracer

    tracer = Tracer()
    result = run_mp(
        stream,
        MPConfig(workers=args.workers, capacity=args.capacity),
        tracer=tracer,
    )
    records = tracer.records()
    print(ascii_timeline(records, width=args.width))
    print(f"wall time: {result.wall_seconds * 1e3:.3f} ms on "
          f"{args.workers} worker processes, {len(records)} trace records"
          + (f", {tracer.dropped} dropped" if tracer.dropped else ""))
    if args.out is not None:
        write_chrome_trace(
            str(args.out), records, scale=1e6, truncated=tracer.dropped,
            meta={"mode": "mp", "workers": args.workers, "clock": "seconds"},
        )
        print(f"wrote {args.out} ({len(records)} records)")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    handlers = {
        "experiment": _cmd_experiment,
        "generate": _cmd_generate,
        "count": _cmd_count,
        "simulate": _cmd_simulate,
        "bench": _cmd_bench,
        "report": _cmd_report,
        "schedcheck": _cmd_schedcheck,
        "scenarios": _cmd_scenarios,
        "serve": _cmd_serve,
        "top": _cmd_top,
        "trace": _cmd_trace,
    }
    try:
        return handlers[args.command](args)
    except BrokenPipeError:
        # stdout went away mid-print (e.g. piped into `head`); not an
        # error.  Point stdout at devnull so the interpreter's exit
        # flush doesn't raise again.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
