"""Run one benchmark workload and print its result.

    python3 perfbench/run.py --workload count-int --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the separate traced run that records spans around every
call into the library, replays the inner stages in isolation, writes a
Chrome trace under ``perfbench/out/`` and reports the per-layer metrics.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Every answer is
audited against exact ground truth; any violation makes ``correct``
false and the exit code 1.  See perfbench/README.md for the workloads
and every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

from common import OUT_DIR, ROOT, SetupError, host_info, require_library

WORKLOADS = ("count-int", "count-str-churn", "serve-mixed")

#: end-to-end figures printed but not gated: on the shared reference host
#: the serve tails spread by up to 0.68 (IQR / median over ten seeds)
#: while the host ran noisy, above any bound a gate can use
UNGATED = {"query_p99_ms": "ms", "ack_p99_ms": "ms"}


def metric_units(trace: bool):
    """(name, unit) of every metric one mode reports, from BENCHMARK.json.

    A layer a workload does not exercise reports 0 (README.md maps each
    per-layer metric to its workload).
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [
        (metric["name"], metric["unit"])
        for metric in spec["per_layer" if trace else "end_to_end"]
    ]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_workload(workload, seed, seconds, trace):
    """Dispatch to the workload module; returns its result dict."""
    if workload == "serve-mixed":
        import serve_load as module
    else:
        import count as module
    return module.run(workload, seed, seconds, bool(trace))


def write_trace(workload, seed, result) -> bool:
    """Write and validate the traced run's Chrome trace."""
    from repro.obs.export import validate_chrome_trace, write_chrome_trace
    from repro.errors import ConfigurationError

    tracer = result["tracer"]
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{workload}-seed{seed}.trace.json"
    write_chrome_trace(
        str(path), tracer.records(), truncated=tracer.dropped,
        meta={"workload": workload, "seed": seed},
    )
    try:
        validate_chrome_trace(json.loads(path.read_text()))
    except ConfigurationError as exc:
        print(f"perfbench: invalid chrome trace {path}: {exc}", file=sys.stderr)
        return False
    print(f"trace: {path} ({len(tracer)} records)")
    return True


def reap_children() -> None:
    """Stop and wait for every helper process the run started.

    The mp-shm pool joins its workers on close, but creating shared
    memory also starts multiprocessing's resource tracker, which would
    otherwise outlive this process and exit only after it.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.join(timeout=5.0)
        if child.is_alive():
            child.kill()
            child.join()
    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("perfbench: --seconds must be > 0", file=sys.stderr)
        return 2
    try:
        require_library()
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    main_pid = os.getpid()

    def on_term(signum, frame):
        # forked mp workers inherit this handler: they die as by default
        if os.getpid() != main_pid:
            signal.signal(signum, signal.SIG_DFL)
            os.kill(os.getpid(), signum)
        raise SystemExit(128 + signum)

    # a terminated run still stops its server and workers on the way out
    signal.signal(signal.SIGTERM, on_term)
    # a shell's background job starts with SIGINT ignored, and an ignored
    # signal survives exec: the serve child would then ignore the SIGINT
    # that shuts it down cleanly.  A handled one is reset on exec.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        return report(args)
    finally:
        reap_children()


def report(args) -> int:
    """Run the workload and print its result; the exit code."""
    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    failed = result["failed"]
    if args.trace and not write_trace(args.workload, args.seed, result):
        failed += 1
    invalid = result.get("invalid", [])
    measured = result["metrics"]
    metrics = {
        name: {"value": float(measured.get(name, 0.0)), "unit": unit}
        for name, unit in metric_units(args.trace)
    }
    info = host_info(args.seed, result.get("workers", 0))
    info.update(workload=args.workload, trace=args.trace, **result["detail"])
    info["failed_frac"] = failed / max(1, result["attempted"])
    print("run: " + json.dumps(info, sort_keys=True))
    for name, metric in metrics.items():
        print(f"  {name:<40} {metric['value']:>16.6g} {metric['unit']}")
    for name, unit in UNGATED.items():
        if name in measured:
            print(f"  {name:<40} {measured[name]:>16.6g} {unit} (not gated)")
    for reason in invalid:
        print(f"perfbench: run invalid: {reason}", file=sys.stderr)
    correct = failed == 0 and not invalid
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
