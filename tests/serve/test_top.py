"""``repro top``: the dashboard renderer and its live client loop.

Rendering is pinned on hand-built payloads (pure function, no server);
the client loop runs against a real server exactly like the other serve
tests — including the ``--once --json`` form the CI smoke job scripts
against.
"""

import asyncio
import io
import json

from repro.obs.registry import MetricsRegistry
from repro.serve import ServeConfig, StreamServer, render_dashboard, run_top
from repro.serve.top import worker_beacon_rows

TIMEOUT = 30.0


def _run(coro):
    return asyncio.run(asyncio.wait_for(coro, TIMEOUT))


def _payload(**overrides):
    base = {
        "backend": "sequential",
        "processed": 1200,
        "accepted": 1250,
        "staleness": 0.004,
        "summary": {
            "window_seconds": 10.0,
            "samples": 20,
            "rates": {"serve.ingest.events": 125.0},
            "increases": {"serve.ingest.events": 1250.0},
            "gauges": {
                "serve.queue.depth": {
                    "last": 2.0, "min": 0.0, "max": 4.0, "delta": 2.0,
                },
            },
            "quantiles": {
                "serve.query.seconds": {
                    "count": 40.0, "rate": 4.0,
                    "p50": 0.002, "p90": 0.004, "p99": 0.009,
                },
            },
        },
        "alerts": [
            {"alert": "serve-flush-failures", "metric": "x",
             "kind": "increase", "severity": "critical",
             "threshold": 0.0, "firing": False, "since": None,
             "value": 0.0},
        ],
        "firing": [],
        "beacons": {},
    }
    base.update(overrides)
    return base


def test_render_dashboard_panes():
    text = render_dashboard(_payload())
    assert "backend=sequential" in text
    assert "all quiet" in text
    assert "ingest events/s" in text and "125.0" in text
    # latency pane renders in milliseconds
    assert "2.00" in text and "9.00" in text
    assert "queue depth" in text
    assert "serve-flush-failures" in text and "FIRING" not in text


def test_render_dashboard_firing_and_events():
    payload = _payload(firing=["serve-flush-failures"])
    payload["alerts"][0]["firing"] = True
    payload["alerts"][0]["value"] = 3.0
    events = [{"event": "alert", "state": "firing",
               "alert": "serve-flush-failures", "value": 3.0}]
    text = render_dashboard(payload, events)
    assert "FIRING: serve-flush-failures" in text
    assert "recent alert events" in text
    assert "[  firing] serve-flush-failures" in text


def test_render_dashboard_empty_payload_does_not_crash():
    text = render_dashboard({})
    assert "repro top" in text


def test_render_dashboard_worker_pane():
    beacons = {
        "counters": {
            "mp.beacon.0.processed": 500, "mp.beacon.0.batches": 10,
            "mp.beacon.1.processed": 700, "mp.beacon.1.batches": 14,
        },
        "gauges": {
            "mp.beacon.0.ring_busy": 1.0, "mp.beacon.1.ring_busy": 0.0,
        },
    }
    rows = worker_beacon_rows(beacons)
    assert [row["worker"] for row in rows] == [0, 1]
    assert rows[1] == {"worker": 1, "processed": 700, "batches": 14,
                       "ring_busy": 0.0}
    text = render_dashboard(_payload(beacons=beacons))
    assert "workers (beacons)" in text
    assert "worker 0" in text and "worker 1" in text


def test_run_top_once_json_against_live_server():
    async def main():
        config = ServeConfig(
            port=0, backend="sequential", capacity=32,
            batch_events=8, batch_interval=0.01,
            watchdog_interval=0.05,
        )
        async with StreamServer(config, metrics=MetricsRegistry()) as server:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            writer.write(
                json.dumps({"op": "ingest", "events": ["a", "b"]}).encode()
                + b"\n"
            )
            await writer.drain()
            assert json.loads(await reader.readline())["ok"]

            out = io.StringIO()
            code = await run_top(
                "127.0.0.1", server.port, once=True, as_json=True, out=out
            )
            assert code == 0
            payload = json.loads(out.getvalue())
            assert payload["ok"] and payload["backend"] == "sequential"
            assert payload["firing"] == []
            assert "summary" in payload

            # rendered --once form: one full dashboard frame
            out = io.StringIO()
            assert await run_top(
                "127.0.0.1", server.port, once=True, out=out
            ) == 0
            assert "repro top" in out.getvalue()

            # --frames: stream a couple of pushes then detach cleanly
            out = io.StringIO()
            assert await run_top(
                "127.0.0.1", server.port, period=0.03, frames=2, out=out
            ) == 0
            assert out.getvalue().count("repro top") == 2

            writer.close()
            await writer.wait_closed()

    _run(main())


def test_run_top_cannot_connect_exits_two():
    async def main():
        # bind-then-close gives a port with nothing listening
        server = await asyncio.start_server(
            lambda r, w: None, "127.0.0.1", 0
        )
        port = server.sockets[0].getsockname()[1]
        server.close()
        await server.wait_closed()
        assert await run_top("127.0.0.1", port, once=True) == 2

    _run(main())
