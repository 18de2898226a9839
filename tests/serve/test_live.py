"""End-to-end tests for the serve tier's live telemetry plane.

Same recipe as test_server.py: every test boots a real
:class:`StreamServer` on an ephemeral port and talks NDJSON over TCP.
The two acceptance-critical pins live here: the SLO watchdog *fires* on
an injected flush-failure fault and *stays silent* on an identical
clean run, and the instrumentation-off server (``metrics=None``)
answers queries bit-identically to an instrumented one.
"""

import asyncio
import json
import time

from repro.backend import EngineSpec
from repro.obs.registry import MetricsRegistry
from repro.serve import SERVE_FAULTS, ServeConfig, StreamServer, is_push

TIMEOUT = 30.0


class _Client:
    """A tiny NDJSON test client; pushes are collected, not returned."""

    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer
        self.pushes = []

    @classmethod
    async def connect(cls, port):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        return cls(reader, writer)

    async def read_frame(self):
        line = await asyncio.wait_for(self.reader.readline(), TIMEOUT)
        assert line, "server closed the connection mid-read"
        return json.loads(line)

    async def request(self, obj):
        self.writer.write(json.dumps(obj).encode() + b"\n")
        await self.writer.drain()
        while True:
            payload = await self.read_frame()
            if is_push(payload):
                self.pushes.append(payload)
                continue
            return payload

    async def close(self):
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


def _run(coro):
    asyncio.run(asyncio.wait_for(coro, TIMEOUT))


def _config(**overrides):
    base = dict(
        port=0, engine=EngineSpec("sequential", capacity=64),
        batch_events=8, batch_interval=0.01,
        watchdog_interval=0.05,
    )
    base.update(overrides)
    return ServeConfig(**base)


# ----------------------------------------------------------------------
# The metrics op: one-shot, raw snapshots, periodic push subscription
# ----------------------------------------------------------------------
def test_metrics_op_one_shot_and_raw():
    async def main():
        async with StreamServer(
            _config(), metrics=MetricsRegistry()
        ) as server:
            client = await _Client.connect(server.port)
            await client.request({"op": "ingest", "events": ["a", "b", "a"]})
            await client.request({"op": "flush"})

            reply = await client.request({"op": "metrics", "id": "m1"})
            assert reply["ok"] and reply["id"] == "m1"
            assert reply["backend"] == "sequential"
            assert reply["accepted"] == 3 and reply["processed"] == 3
            assert reply["firing"] == []
            assert {a["alert"] for a in reply["alerts"]} >= {
                "serve-flush-failures", "serve-staleness",
            }
            summary = reply["summary"]
            assert set(summary) == {
                "window_seconds", "samples", "rates", "increases",
                "gauges", "quantiles",
            }
            assert "snapshot" not in reply

            # raw mode ships the merged cumulative snapshot alongside
            reply = await client.request({"op": "metrics", "raw": True})
            snap = reply["snapshot"]
            assert snap["counters"]["serve.ingest.events"] == 3
            assert "serve.batch.flush_seconds" in snap["histograms"]

            await client.close()

    _run(main())


def test_metrics_subscription_pushes_and_unsubscribe():
    async def main():
        async with StreamServer(
            _config(), metrics=MetricsRegistry()
        ) as server:
            client = await _Client.connect(server.port)
            reply = await client.request(
                {"op": "metrics", "period": 0.03}
            )
            # the first payload rides on the registration response
            assert reply["ok"] and "summary" in reply
            sub_id = reply["subscription"]
            assert reply["period"] == 0.03

            while len(client.pushes) < 2:
                payload = await client.read_frame()
                if is_push(payload):
                    client.pushes.append(payload)
            first, second = client.pushes[:2]
            assert first["push"] == sub_id and second["push"] == sub_id
            assert second["seq"] > first["seq"]
            assert "summary" in first and "firing" in first

            reply = await client.request(
                {"op": "unsubscribe", "subscription": sub_id}
            )
            assert reply["ok"] and reply["unsubscribed"] == sub_id
            await client.close()

    _run(main())


def test_metrics_op_works_without_instrumentation():
    async def main():
        # metrics=None: the NullRegistry serves empty-but-valid telemetry
        async with StreamServer(_config()) as server:
            client = await _Client.connect(server.port)
            await client.request({"op": "ingest", "events": ["x"]})
            reply = await client.request({"op": "metrics", "raw": True})
            assert reply["ok"]
            assert reply["snapshot"]["counters"] == {}
            assert reply["summary"]["rates"] == {}
            assert reply["firing"] == []
            await client.close()

    _run(main())


# ----------------------------------------------------------------------
# Prometheus HTTP endpoint, live next to the NDJSON port
# ----------------------------------------------------------------------
async def _http_get(port, path):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(f"GET {path} HTTP/1.0\r\n\r\n".encode())
    await writer.drain()
    raw = await asyncio.wait_for(reader.read(), TIMEOUT)
    writer.close()
    head, _, body = raw.decode("utf-8").partition("\r\n\r\n")
    status = head.split("\r\n")[0].split(" ", 1)[1]
    return status, head, body


def test_prometheus_endpoint_serves_scrapes():
    async def main():
        async with StreamServer(
            _config(metrics_port=0), metrics=MetricsRegistry()
        ) as server:
            http_port = server.metrics_http_port
            assert http_port is not None and http_port > 0

            client = await _Client.connect(server.port)
            await client.request({"op": "ingest", "events": ["a"] * 5})
            await client.request({"op": "flush"})

            status, head, body = await _http_get(http_port, "/metrics")
            assert status == "200 OK"
            assert "text/plain; version=0.0.4" in head
            assert "repro_serve_ingest_events_total 5" in body
            assert "# TYPE repro_serve_batch_flush_seconds histogram" in body
            assert body.endswith("\n")

            status, _, body = await _http_get(http_port, "/healthz")
            assert status == "200 OK" and json.loads(body) == {"ok": True}

            status, _, _ = await _http_get(http_port, "/nope")
            assert status == "404 Not Found"

            await client.close()

    _run(main())


# ----------------------------------------------------------------------
# The watchdog: fires on the injected fault, silent on a clean run
# ----------------------------------------------------------------------
def test_watchdog_fires_on_injected_flush_failures():
    assert "flush-failure" in SERVE_FAULTS

    async def main():
        async with StreamServer(
            _config(batch_events=4, fault="flush-failure"),
            metrics=MetricsRegistry(),
        ) as server:
            client = await _Client.connect(server.port)
            # a metrics stream registered up front receives the alert
            # transition the moment the watchdog fires it
            reply = await client.request({"op": "metrics", "period": 0.5})
            assert reply["ok"]

            # 4 batches: the even-numbered flushes raise, the odd land
            await client.request({"op": "ingest", "events": ["k"] * 16})
            flushed = await client.request({"op": "flush"})
            assert flushed["ok"] and 0 < flushed["processed"] < 16

            deadline = time.monotonic() + 10.0
            firing = []
            while time.monotonic() < deadline:
                reply = await client.request({"op": "metrics"})
                firing = reply["firing"]
                if "serve-flush-failures" in firing:
                    break
                await asyncio.sleep(0.05)
            assert "serve-flush-failures" in firing

            # the windowed increase that fired is visible in the summary
            assert reply["summary"]["increases"][
                "serve.batch.flush_failures"] >= 2
            state = {a["alert"]: a for a in reply["alerts"]}
            assert state["serve-flush-failures"]["firing"] is True
            assert state["serve-flush-failures"]["severity"] == "critical"

            # stats carries the same alarm for plain-protocol clients
            stats = (await client.request({"op": "stats"}))["stats"]
            assert "serve-flush-failures" in stats["alerts_firing"]

            # the in-protocol transition event reached the subscriber
            alert_pushes = [
                p for p in client.pushes if p.get("event") == "alert"
            ]
            assert any(
                p["alert"] == "serve-flush-failures"
                and p["state"] == "firing"
                for p in alert_pushes
            )

            await client.close()

    _run(main())


def test_failed_flush_releases_its_freshness_stamps():
    """A frame that ended in a dropped batch is never observed visible,
    the frames after it still are, and nothing is left waiting — so the
    staleness gauge drops back to zero instead of growing forever."""
    async def main():
        metrics = MetricsRegistry()
        async with StreamServer(
            _config(batch_events=4, fault="flush-failure"), metrics=metrics,
        ) as server:
            client = await _Client.connect(server.port)
            # one full batch per frame, batches 2 and 4 dropped; the
            # frames go out in one write, so all four are acked before
            # the first failure and later stamps must move back
            frame = json.dumps({"op": "ingest", "events": ["k"] * 4})
            client.writer.write((frame + "\n").encode() * 4)
            await client.writer.drain()
            for _ in range(4):
                reply = await client.read_frame()
                assert reply["ok"], reply
            flushed = await client.request({"op": "flush"})
            assert flushed["processed"] == 8
            await asyncio.sleep(0.15)       # a few watchdog ticks
            reply = await client.request({"op": "metrics", "raw": True})
            await client.close()
        snapshot = reply["snapshot"]
        assert snapshot["gauges"]["serve.snapshot.staleness"] == 0
        freshness = snapshot["histograms"][
            "serve.freshness.ack_to_visible_seconds"]
        assert freshness["count"] == 2      # frames 1 and 3

    _run(main())


def test_lost_events_are_metered_and_accounted():
    """``serve.ingest.lost`` counts what failed flushes dropped, the
    same figure ``stats`` reports as ``lost_events``, and every acked
    event is either counted or lost."""
    async def main():
        metrics = MetricsRegistry()
        async with StreamServer(
            _config(batch_events=4, fault="flush-failure"), metrics=metrics,
        ) as server:
            client = await _Client.connect(server.port)
            for _ in range(5):
                reply = await client.request(
                    {"op": "ingest", "events": ["k"] * 6}
                )
                assert reply["ok"], reply
            flushed = await client.request({"op": "flush"})
            assert flushed["ok"], flushed
            stats = (await client.request({"op": "stats"}))["stats"]
            await client.close()
        lost = metrics.snapshot()["counters"]["serve.ingest.lost"]
        assert lost == stats["lost_events"] > 0
        assert stats["processed"] > 0
        assert stats["accepted_events"] == (
            stats["processed"] + stats["lost_events"]
        )

    _run(main())


def test_watchdog_silent_on_clean_run():
    async def main():
        async with StreamServer(
            _config(batch_events=4), metrics=MetricsRegistry()
        ) as server:
            client = await _Client.connect(server.port)
            await client.request({"op": "ingest", "events": ["k"] * 16})
            flushed = await client.request({"op": "flush"})
            assert flushed["ok"] and flushed["processed"] == 16

            # let several watchdog evaluations pass over the same load
            await asyncio.sleep(0.3)
            reply = await client.request({"op": "metrics"})
            assert reply["firing"] == []
            assert all(a["firing"] is False for a in reply["alerts"])
            stats = (await client.request({"op": "stats"}))["stats"]
            assert stats["alerts_firing"] == []
            await client.close()

    _run(main())


# ----------------------------------------------------------------------
# The shadow-truth accuracy probe
# ----------------------------------------------------------------------
def test_accuracy_probe_tracks_keys_within_bound():
    async def main():
        async with StreamServer(
            _config(probe_keys=16), metrics=MetricsRegistry()
        ) as server:
            client = await _Client.connect(server.port)
            events = ["a"] * 30 + ["b"] * 20 + ["c"] * 10
            await client.request({"op": "ingest", "events": events})
            await client.request({"op": "flush"})
            await asyncio.sleep(0.15)   # a few watchdog ticks

            reply = await client.request({"op": "metrics", "raw": True})
            gauges = reply["snapshot"]["gauges"]
            assert gauges["serve.accuracy.tracked_keys"] == 3
            # sequential backend with spare capacity: estimates exact,
            # so the measured excess over eps*N must be zero
            assert gauges["serve.accuracy.bound_excess"] == 0.0
            assert reply["firing"] == []
            await client.close()

    _run(main())


def test_probe_disabled_with_zero_keys():
    async def main():
        async with StreamServer(
            _config(probe_keys=0), metrics=MetricsRegistry()
        ) as server:
            client = await _Client.connect(server.port)
            await client.request({"op": "ingest", "events": ["a", "b"]})
            await client.request({"op": "flush"})
            await asyncio.sleep(0.12)
            reply = await client.request({"op": "metrics", "raw": True})
            # the gauge family exists (registered up front) but with the
            # probe off nothing is ever admitted into it
            assert reply["snapshot"]["gauges"][
                "serve.accuracy.tracked_keys"] == 0.0
            await client.close()

    _run(main())


# ----------------------------------------------------------------------
# NullRegistry parity: telemetry off changes nothing the client can see
# ----------------------------------------------------------------------
def test_instrumentation_off_answers_are_bit_identical():
    events = (["hot"] * 40 + ["warm"] * 12 + ["w%d" % i for i in range(30)])

    async def serve_answers(metrics):
        answers = []
        async with StreamServer(_config(), metrics=metrics) as server:
            client = await _Client.connect(server.port)
            for start in range(0, len(events), 16):
                reply = await client.request(
                    {"op": "ingest", "events": events[start:start + 16]}
                )
                assert reply["ok"]
            flushed = await client.request({"op": "flush", "id": "f"})
            answers.append(flushed)
            for op in (
                {"op": "query", "kind": "topk", "k": 5, "id": "q1"},
                {"op": "query", "kind": "point", "element": "hot",
                 "id": "q2"},
                {"op": "query", "kind": "point", "element": "absent",
                 "phi": 0.01, "k": 3, "id": "q3"},
            ):
                reply = await client.request(op)
                assert reply["ok"]
                # staleness is wall-clock, everything else is data
                reply.pop("staleness", None)
                answers.append(reply)
            await client.close()
        return answers

    async def main():
        instrumented = await serve_answers(MetricsRegistry())
        bare = await serve_answers(None)
        assert json.dumps(instrumented, sort_keys=True) == json.dumps(
            bare, sort_keys=True
        )

    _run(main())
