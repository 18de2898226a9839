"""``python -m repro top``: a live terminal dashboard for a server.

The dashboard is a thin *client* of the live telemetry plane: it
connects to a running server's NDJSON port, issues one ``metrics``
subscription (``{"op": "metrics", "period": ...}``) and renders each
pushed frame — windowed rates, latency quantiles, per-worker beacon
occupancy and the SLO alert table — as plain text.  All derivation
happens server-side in :mod:`repro.obs.live`; ``top`` only formats.

Three modes share one code path:

``--once``
    Fetch a single one-shot ``metrics`` answer, render it, exit — the
    scriptable form (CI smoke uses it to assert on alert state).
``--json``
    Print each payload as one raw JSON line instead of rendering
    (compose with ``--once`` for machine-readable probes).
``--frames N``
    Render N pushed frames then disconnect cleanly (0 = until ^C).

Alert transition events pushed between metrics frames (the frames with
``"event": "alert"``) are folded into a rolling "recent events" pane.
"""

from __future__ import annotations

import asyncio
import json
import sys
from typing import Any, Dict, List, Optional

#: metric -> short row label for the rates pane (rendered in this order)
RATE_ROWS = (
    ("serve.ingest.events", "ingest events/s"),
    ("serve.query.requests", "queries/s"),
    ("serve.subscriptions.pushes", "pushes/s"),
    ("serve.ingest.rejected", "rejected/s"),
    ("serve.batch.flush_failures", "flush failures/s"),
)

#: histogram -> short row label for the latency pane
LATENCY_ROWS = (
    ("serve.query.seconds", "query"),
    ("serve.batch.flush_seconds", "flush"),
    ("serve.snapshot.seconds", "snapshot"),
)

#: gauge -> short row label for the gauges pane
GAUGE_ROWS = (
    ("serve.connections.active", "connections"),
    ("serve.subscriptions.active", "subscriptions"),
    ("serve.queue.depth", "queue depth"),
    ("serve.snapshot.staleness", "staleness lag (s)"),
    ("serve.accuracy.bound_excess", "accuracy excess"),
)


def _fmt(value: Optional[float], digits: int = 1) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:,.{digits}f}"
    return f"{value:,}"


def _ms(seconds: Optional[float]) -> str:
    return "-" if seconds is None else f"{seconds * 1e3:.2f}"


def worker_beacon_rows(beacons: Dict[str, Dict]) -> List[Dict[str, Any]]:
    """Fold ``mp.beacon.<i>.*`` series into one row per worker index."""
    rows: Dict[int, Dict[str, Any]] = {}
    for name, value in beacons.get("counters", {}).items():
        parts = name.split(".")
        if len(parts) == 4 and parts[:2] == ["mp", "beacon"]:
            try:
                index = int(parts[2])
            except ValueError:
                continue
            rows.setdefault(index, {"worker": index})[parts[3]] = value
    for name, value in beacons.get("gauges", {}).items():
        parts = name.split(".")
        if len(parts) == 4 and parts[:2] == ["mp", "beacon"]:
            try:
                index = int(parts[2])
            except ValueError:
                continue
            rows.setdefault(index, {"worker": index})[parts[3]] = value
    return [rows[index] for index in sorted(rows)]


def render_dashboard(
    payload: Dict[str, Any],
    events: Optional[List[Dict[str, Any]]] = None,
    width: int = 72,
) -> str:
    """One metrics payload -> one plain-text dashboard frame."""
    summary = payload.get("summary") or {}
    rates = summary.get("rates") or {}
    quantiles = summary.get("quantiles") or {}
    gauges = summary.get("gauges") or {}
    alerts = payload.get("alerts") or []
    firing = payload.get("firing") or []
    lines: List[str] = []
    rule = "-" * width
    header = (
        f"repro top — backend={payload.get('backend', '?')} "
        f"processed={_fmt(payload.get('processed'), 0)} "
        f"accepted={_fmt(payload.get('accepted'), 0)} "
        f"view_age={_fmt(payload.get('staleness'), 3)}s"
    )
    lines.append(header[:width])
    status = (
        f"window={_fmt(summary.get('window_seconds'), 1)}s "
        f"samples={summary.get('samples', 0)} "
        f"alerts={'FIRING: ' + ', '.join(firing) if firing else 'all quiet'}"
    )
    lines.append(status[:width])
    lines.append(rule)

    lines.append("rates")
    for metric, label in RATE_ROWS:
        lines.append(f"  {label:<22s} {_fmt(rates.get(metric, 0.0)):>12s}")
    lines.append("latency (ms)            p50        p90        p99     obs/s")
    for metric, label in LATENCY_ROWS:
        q = quantiles.get(metric) or {}
        lines.append(
            f"  {label:<18s} {_ms(q.get('p50')):>10s} "
            f"{_ms(q.get('p90')):>10s} {_ms(q.get('p99')):>10s} "
            f"{_fmt(q.get('rate', 0.0)):>9s}"
        )
    lines.append("gauges")
    for metric, label in GAUGE_ROWS:
        info = gauges.get(metric)
        last = info.get("last") if isinstance(info, dict) else None
        if last is None:
            continue
        lines.append(f"  {label:<22s} {_fmt(last, 3):>12s}")

    workers = worker_beacon_rows(payload.get("beacons") or {})
    if workers:
        lines.append("workers (beacons)    processed    batches    ring busy")
        for row in workers:
            lines.append(
                f"  worker {row['worker']:<10d} "
                f"{_fmt(row.get('processed', 0), 0):>11s} "
                f"{_fmt(row.get('batches', 0), 0):>10s} "
                f"{_fmt(row.get('ring_busy', 0.0), 0):>12s}"
            )

    if alerts:
        lines.append(rule)
        lines.append("alerts                 state      value   threshold")
        for state in alerts:
            flag = "FIRING" if state.get("firing") else "ok"
            lines.append(
                f"  {state.get('alert', '?'):<20s} {flag:<8s} "
                f"{_fmt(state.get('value'), 2):>10s} "
                f"{_fmt(state.get('threshold'), 2):>11s}"
            )
    if events:
        lines.append(rule)
        lines.append("recent alert events")
        for event in events[-5:]:
            lines.append(
                f"  [{event.get('state', '?'):>8s}] {event.get('alert', '?')} "
                f"value={_fmt(event.get('value'), 2)}"
            )
    return "\n".join(lines)


class TopError(Exception):
    """The server refused or the connection failed."""


async def _read_frame(reader: asyncio.StreamReader, timeout: float) -> Dict:
    line = await asyncio.wait_for(reader.readline(), timeout)
    if not line:
        raise TopError("server closed the connection")
    return json.loads(line)


async def run_top(
    host: str,
    port: int,
    period: float = 1.0,
    frames: int = 0,
    once: bool = False,
    as_json: bool = False,
    raw: bool = False,
    timeout: float = 10.0,
    out=None,
) -> int:
    """Attach to a server and stream the dashboard; returns exit code."""
    out = out if out is not None else sys.stdout
    if not 0 <= port <= 65535:
        print(f"top: port must be in [0, 65535], got {port}",
              file=sys.stderr)
        return 2
    try:
        reader, writer = await asyncio.open_connection(host, port)
    except OSError as exc:
        print(f"top: cannot connect to {host}:{port}: {exc}",
              file=sys.stderr)
        return 2
    try:
        request: Dict[str, Any] = {"op": "metrics"}
        if raw:
            request["raw"] = True
        if not once:
            request["period"] = period
        writer.write((json.dumps(request) + "\n").encode("utf-8"))
        await writer.drain()
        first = await _read_frame(reader, timeout)
        if not first.get("ok"):
            raise TopError(
                f"server refused metrics: {first.get('error')}: "
                f"{first.get('message')}"
            )
        events: List[Dict[str, Any]] = []
        shown = 0

        def emit(payload: Dict[str, Any]) -> None:
            if as_json:
                print(json.dumps(payload, sort_keys=True), file=out,
                      flush=True)
            else:
                if not once and out is sys.stdout and out.isatty():
                    print("\x1b[2J\x1b[H", end="", file=out)
                print(render_dashboard(payload, events), file=out,
                      flush=True)

        emit(first)
        shown += 1
        if once:
            return 0
        while frames <= 0 or shown < frames:
            frame = await _read_frame(reader, timeout + period)
            if frame.get("event") == "alert":
                events.append(frame)
                continue
            if "summary" not in frame:
                continue            # unrelated push on a shared connection
            emit(frame)
            shown += 1
        sub = first.get("subscription")
        if sub is not None:
            writer.write(
                (json.dumps({"op": "unsubscribe", "subscription": sub})
                 + "\n").encode("utf-8")
            )
            await writer.drain()
        return 0
    except (TopError, asyncio.TimeoutError, json.JSONDecodeError,
            ConnectionResetError) as exc:
        print(f"top: {exc}", file=sys.stderr)
        return 1
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass
