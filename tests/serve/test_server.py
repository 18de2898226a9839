"""End-to-end tests for the asyncio serve tier.

Every test boots a real :class:`StreamServer` on an ephemeral port,
talks to it over genuine TCP, and shuts it down — all inside
``asyncio.run`` so no async test plugin is needed.  The accuracy test
checks served answers against an exact ``Counter`` ground truth and
against a sequential reference backend fed the identical stream, which
pins the read-barrier semantics of ``flush``: everything acknowledged
before the flush is queryable (and correct) after it.
"""

import asyncio
import collections
import json
import time

import pytest

from repro.backend import BACKEND_NAMES, create_backend
from repro.obs.registry import MetricsRegistry
from repro.serve import ServeConfig, StreamServer, is_push
from repro.workloads import zipf_stream

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


# ----------------------------------------------------------------------
# Accuracy: served answers match a sequential reference within epsilon*N
# ----------------------------------------------------------------------
def test_end_to_end_accuracy_against_sequential_reference():
    capacity = 64
    stream = zipf_stream(length=4000, alphabet=500, alpha=1.5, seed=11)
    truth = collections.Counter(stream)

    reference = create_backend("sequential", capacity=capacity)
    try:
        reference.ingest(stream)
        ref_snapshot = reference.snapshot()
    finally:
        reference.close()

    async def main():
        config = ServeConfig(
            port=0, backend="sequential", capacity=capacity,
            batch_events=256, batch_interval=0.01,
        )
        async with StreamServer(config) as server:
            client = await _Client.connect(server.port)

            for start in range(0, len(stream), 500):
                reply = await client.request(
                    {"op": "ingest", "events": stream[start:start + 500]}
                )
                assert reply["ok"], reply
                assert reply["accepted"] == len(stream[start:start + 500])

            # the read barrier: after flush, everything acked is visible
            flushed = await client.request({"op": "flush"})
            assert flushed["ok"] and flushed["processed"] == len(stream)
            bound = flushed["error_bound"]
            assert bound == ref_snapshot.error_bound

            # top-k matches the reference exactly: same engine, same order
            top = await client.request({"op": "query", "kind": "topk", "k": 10})
            assert top["ok"] and top["processed"] == len(stream)
            assert 0 <= top["staleness"] <= config.staleness_bound + 1.0
            expected = [
                {"element": e.element, "count": e.count, "error": e.error}
                for e in ref_snapshot.top_k(10)
            ]
            assert top["results"] == expected

            # point estimates honour the Space Saving guarantee vs truth
            hot = [element for element, _ in truth.most_common(20)]
            cold = ["absent-%d" % i for i in range(5)]
            for element in hot + cold:
                reply = await client.request(
                    {"op": "query", "kind": "point", "element": element}
                )
                assert reply["ok"], reply
                exact = truth.get(element, 0)
                if reply["monitored"]:
                    assert exact <= reply["count"] <= exact + bound
                    assert reply["count"] - reply["error"] <= exact
                else:
                    assert exact <= bound
                assert reply["count"] == reference_estimate(ref_snapshot, element, bound)

            # set + membership forms answer from the same snapshot
            reply = await client.request(
                {"op": "query", "kind": "point", "element": hot[0],
                 "phi": 0.001, "k": 3}
            )
            assert reply["frequent"] is True and reply["in_top_k"] is True

            await client.close()

    def reference_estimate(snapshot, element, bound):
        for entry in snapshot.entries:
            if entry.element == element:
                return entry.count
        return bound

    _run(main())


# ----------------------------------------------------------------------
# Point answers never undercount, on every registered engine
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKEND_NAMES)
def test_point_answers_never_below_truth(backend):
    """An unmonitored key's answer must still bound its true count.

    Space Saving bounds every unmonitored key by ``error_bound``; a
    sketch's candidate set is a heuristic, so a key outside it can
    exceed the bound and must be answered from the table instead.
    """
    stream = zipf_stream(length=20_000, alphabet=5_000, alpha=1.3, seed=1)
    truth = collections.Counter(stream)
    keys = [element for element, _ in truth.most_common(400)]

    async def main():
        config = ServeConfig(port=0, backend=backend, capacity=96)
        async with StreamServer(config) as server:
            client = await _Client.connect(server.port)
            for start in range(0, len(stream), 1000):
                reply = await client.request(
                    {"op": "ingest", "events": stream[start:start + 1000]}
                )
                assert reply["ok"], reply
            flushed = await client.request({"op": "flush"})
            assert flushed["processed"] == len(stream)
            reply = await client.request(
                {"op": "query", "kind": "set", "elements": keys}
            )
            assert reply["ok"], reply
            below = [
                answer["element"] for answer in reply["results"]
                if answer["count"] < truth[answer["element"]]
            ]
            assert below == []
            await client.close()

    _run(main())


# ----------------------------------------------------------------------
# Freshness: the flusher installs the view right after each batch
# ----------------------------------------------------------------------
def test_full_batch_is_visible_once_processed_without_flush():
    """The view is built in the backend job that counts the batch, so
    a query right after ``processed`` moves already sees it — no timer
    and no ``flush`` barrier in between."""
    async def main():
        metrics = MetricsRegistry()
        config = ServeConfig(
            port=0, backend="sequential", capacity=32, batch_events=8,
        )
        async with StreamServer(config, metrics=metrics) as server:
            client = await _Client.connect(server.port)
            # let the start-up snapshot's gap (microseconds) run out, so
            # the batch's own snapshot is due
            await asyncio.sleep(0.01)
            reply = await client.request(
                {"op": "ingest", "events": list(range(8))}
            )
            assert reply["ok"], reply
            while True:
                stats = (await client.request({"op": "stats"}))["stats"]
                if stats["processed"] == 8:
                    break
                await asyncio.sleep(0.001)
            reply = await client.request(
                {"op": "query", "kind": "topk", "k": 3}
            )
            assert reply["processed"] == 8
            await client.close()
        freshness = metrics.snapshot()["histograms"][
            "serve.freshness.ack_to_visible_seconds"]
        assert freshness["count"] == 1

    _run(main())


def test_idle_flusher_makes_a_partial_frame_visible_without_the_ticker():
    """Group commit: a frame that finds the flusher idle is flushed at
    once as a partial batch.  The batch is far from full and the ticker
    never fires within the test, so only the idle hand-off can make the
    frame visible."""
    async def main():
        config = ServeConfig(
            port=0, backend="sequential", capacity=32, batch_events=2048,
            batch_interval=5.0,
        )
        async with StreamServer(config) as server:
            client = await _Client.connect(server.port)
            # let the start-up snapshot's gap (microseconds) run out, so
            # the batch's own snapshot is due
            await asyncio.sleep(0.01)
            reply = await client.request(
                {"op": "ingest", "events": list(range(10))}
            )
            assert reply["ok"], reply
            deadline = time.monotonic() + 0.5
            while True:
                reply = await client.request(
                    {"op": "query", "kind": "topk", "k": 3}
                )
                if reply["processed"] == 10:
                    break
                assert time.monotonic() < deadline, reply
                await asyncio.sleep(0.001)
            await client.close()

    _run(main())


def test_busy_flusher_coalesces_frames_and_counts_exactly_once():
    """While the flusher is busy, frames pile up and leave as one batch
    (cut at ``batch_events``) when it frees up: fewer flushes than
    frames, no batch over the size, every event counted once and every
    acked frame's freshness observed once."""
    async def main():
        metrics = MetricsRegistry()
        config = ServeConfig(
            port=0, backend="sequential", capacity=64, batch_events=16,
        )
        async with StreamServer(config, metrics=metrics) as server:
            real_ingest = server._backend.ingest

            def slow_ingest(batch):
                time.sleep(0.02)
                real_ingest(batch)

            server._backend.ingest = slow_ingest
            client = await _Client.connect(server.port)
            frames = 20
            for i in range(frames):
                reply = await client.request({
                    "op": "ingest",
                    "events": ["f%d-%d" % (i, j) for j in range(5)],
                })
                assert reply["ok"], reply
            flushed = await client.request({"op": "flush"})
            stats = (await client.request({"op": "stats"}))["stats"]
            assert flushed["processed"] == stats["accepted_events"] == 100
            await client.close()
        histograms = metrics.snapshot()["histograms"]
        assert histograms["serve.batch.flush_seconds"]["count"] < frames
        fill = histograms["serve.batch.fill"]
        assert fill["buckets"][-1] == config.batch_events
        assert fill["counts"][-1] == 0          # nothing over batch_events
        assert fill["sum"] == 100
        freshness = histograms["serve.freshness.ack_to_visible_seconds"]
        assert freshness["count"] == frames

    _run(main())


def test_snapshots_take_a_bounded_share_of_wall_time():
    """cots-sim's snapshot replays the whole stream, so a rebuild after
    every small batch would soon eat the backend thread; the snapshot
    gap keeps rebuilds near a tenth of it.  (The gap is sized from the
    last snapshot, so a stream that grows fast against the replay cost
    pushes the share above a tenth; 250 events/s keeps that small.)"""
    stream = zipf_stream(length=800, alphabet=300, alpha=1.2, seed=5)

    async def main():
        metrics = MetricsRegistry()
        config = ServeConfig(
            port=0, backend="cots-sim", capacity=48, batch_events=10,
            batch_interval=0.01,
        )
        async with StreamServer(config, metrics=metrics) as server:
            client = await _Client.connect(server.port)
            start = time.perf_counter()
            for first in range(0, len(stream), 10):
                reply = await client.request(
                    {"op": "ingest", "events": stream[first:first + 10]}
                )
                assert reply["ok"], reply
                await asyncio.sleep(0.04)
            while True:
                stats = (await client.request({"op": "stats"}))["stats"]
                if stats["processed"] == len(stream):
                    break
                await asyncio.sleep(0.01)
            elapsed = time.perf_counter() - start
            snapshots = metrics.snapshot()["histograms"][
                "serve.snapshot.seconds"]
            assert snapshots["count"] > 5
            assert snapshots["sum"] <= 0.2 * elapsed, (snapshots, elapsed)
            await client.close()

    _run(main())


# ----------------------------------------------------------------------
# Backpressure: the structural budget refuses what it cannot absorb
# ----------------------------------------------------------------------
def test_backpressure_flood_is_refused_not_dropped():
    async def main():
        metrics = MetricsRegistry()
        config = ServeConfig(
            port=0, backend="sequential", capacity=32,
            batch_events=4, max_pending_batches=2,
            batch_interval=0.01,
        )
        async with StreamServer(config, metrics=metrics) as server:
            client = await _Client.connect(server.port)

            # a frame needing more slots than the whole budget is refused
            flood = ["e%d" % i for i in range(64)]
            reply = await client.request({"op": "ingest", "events": flood,
                                          "id": "flood"})
            assert reply["ok"] is False
            assert reply["error"] == "backpressure"
            assert reply["id"] == "flood"

            # a frame within budget is accepted — refusal, not breakage
            reply = await client.request({"op": "ingest", "events": ["a", "b"]})
            assert reply["ok"] is True

            # refused events are metered as flow control, never as
            # protocol errors (the CI gate counts the latter)
            counters = metrics.snapshot()["counters"]
            assert counters["serve.ingest.rejected"] == 64
            assert counters["serve.protocol.errors"] == 0

            # nothing was silently dropped: only the accepted events land
            flushed = await client.request({"op": "flush"})
            assert flushed["processed"] == 2

            stats = (await client.request({"op": "stats"}))["stats"]
            assert stats["queue_depth"] <= config.max_pending_batches
            assert stats["accepted_events"] == 2

            await client.close()

    _run(main())


def test_full_batch_fill_stays_out_of_the_overflow_bucket():
    """``serve.batch.fill`` buckets reach ``batch_events``: at the
    default config one full micro-batch lands in the last bucket."""
    async def main():
        metrics = MetricsRegistry()
        config = ServeConfig(port=0)
        async with StreamServer(config, metrics=metrics) as server:
            client = await _Client.connect(server.port)
            events = list(range(config.batch_events))
            reply = await client.request({"op": "ingest", "events": events})
            assert reply["ok"], reply
            flushed = await client.request({"op": "flush"})
            assert flushed["processed"] == config.batch_events
            await client.close()
        fill = metrics.snapshot()["histograms"]["serve.batch.fill"]
        assert fill["count"] == 1
        assert fill["buckets"][-1] == config.batch_events
        assert fill["counts"][-1] == 0          # the overflow bucket
        assert fill["counts"][-2] == 1

    _run(main())


# ----------------------------------------------------------------------
# Subscriptions: continuous (period) and interval (every) pushes
# ----------------------------------------------------------------------
def test_subscribe_pushes_and_unsubscribe():
    async def main():
        config = ServeConfig(
            port=0, backend="sequential", capacity=32,
            batch_events=8, batch_interval=0.01,
        )
        async with StreamServer(config) as server:
            client = await _Client.connect(server.port)
            await client.request({"op": "ingest", "events": ["x"] * 6 + ["y"]})

            reply = await client.request({
                "op": "subscribe",
                "inner": {"kind": "topk", "k": 2},
                "period": 0.02,
            })
            assert reply["ok"]
            sub_id = reply["subscription"]

            # collect pushes off the wire until two have arrived
            while len(client.pushes) < 2:
                payload = await client.read_frame()
                if is_push(payload):
                    client.pushes.append(payload)
            first, second = client.pushes[:2]
            assert first["push"] == sub_id and second["push"] == sub_id
            assert second["seq"] > first["seq"]
            assert first["kind"] == "topk"
            assert {r["element"] for r in first["results"]} <= {"x", "y"}

            reply = await client.request(
                {"op": "unsubscribe", "subscription": sub_id}
            )
            assert reply["ok"] and reply["unsubscribed"] == sub_id

            # cancelling twice is the documented error, not a crash
            reply = await client.request(
                {"op": "unsubscribe", "subscription": sub_id}
            )
            assert reply["ok"] is False
            assert reply["error"] == "unknown-subscription"

            await client.close()

    _run(main())


def test_unsubscribe_requires_owning_connection():
    async def main():
        config = ServeConfig(
            port=0, backend="sequential", capacity=32,
            batch_events=8, batch_interval=0.01,
        )
        async with StreamServer(config) as server:
            owner = await _Client.connect(server.port)
            reply = await owner.request({
                "op": "subscribe",
                "inner": {"kind": "topk", "k": 2},
                "period": 0.02,
            })
            assert reply["ok"]
            sub_id = reply["subscription"]

            # sub ids are sequential and guessable; another connection
            # must not be able to cancel someone else's feed with one
            intruder = await _Client.connect(server.port)
            reply = await intruder.request(
                {"op": "unsubscribe", "subscription": sub_id}
            )
            assert reply["ok"] is False
            assert reply["error"] == "unknown-subscription"
            await intruder.close()

            # the subscription survived the attempt: pushes keep coming
            while not owner.pushes:
                payload = await owner.read_frame()
                if is_push(payload):
                    owner.pushes.append(payload)
            assert owner.pushes[0]["push"] == sub_id

            # and the registering connection can still cancel it
            reply = await owner.request(
                {"op": "unsubscribe", "subscription": sub_id}
            )
            assert reply["ok"] and reply["unsubscribed"] == sub_id
            await owner.close()

    _run(main())


def test_interval_query_pushes_after_every_events():
    async def main():
        config = ServeConfig(
            port=0, backend="sequential", capacity=32,
            batch_events=8, batch_interval=0.01,
        )
        async with StreamServer(config) as server:
            client = await _Client.connect(server.port)

            reply = await client.request({
                "op": "query", "kind": "interval",
                "inner": {"kind": "point", "element": "x"},
                "every": 5, "id": "iv",
            })
            # the first answer rides on the registration response
            assert reply["ok"] and reply["id"] == "iv"
            assert reply["kind"] == "point" and "count" in reply
            sub_id = reply["subscription"]

            await client.request({"op": "ingest", "events": ["x"] * 6})
            # flush refreshes the view and fires interval subscriptions
            await client.request({"op": "flush"})

            while not client.pushes:
                payload = await client.read_frame()
                if is_push(payload):
                    client.pushes.append(payload)
            push = client.pushes[0]
            assert push["push"] == sub_id
            assert push["kind"] == "point" and push["count"] >= 6

            await client.close()

    _run(main())


# ----------------------------------------------------------------------
# Ingest accounting: exactly-once under concurrent flush, and a flusher
# that survives a backend failure instead of wedging the queue
# ----------------------------------------------------------------------
def test_concurrent_flush_and_ingest_count_exactly_once():
    """Concurrent flushes + the ticker must never re-queue or drop a
    pending batch while a ``queue.put`` is suspended on a full budget
    (the batch leaves ``_pending`` before the await)."""
    async def main():
        config = ServeConfig(
            port=0, backend="sequential", capacity=64,
            batch_events=4, max_pending_batches=1,
            batch_interval=0.005,
        )
        async with StreamServer(config) as server:
            # slow the backend so the one-slot queue stays full and
            # flush's queue.put genuinely suspends mid-drain
            real_ingest = server._backend.ingest

            def slow_ingest(batch):
                time.sleep(0.002)
                real_ingest(batch)

            server._backend.ingest = slow_ingest
            sent = 0

            async def worker(tag):
                nonlocal sent
                client = await _Client.connect(server.port)
                for i in range(25):
                    events = ["%s-%d-%d" % (tag, i, j) for j in range(3)]
                    while True:
                        reply = await client.request(
                            {"op": "ingest", "events": events}
                        )
                        if reply["ok"]:
                            break
                        assert reply["error"] == "backpressure"
                        await asyncio.sleep(0.003)
                    sent += len(events)
                    if i % 5 == 0:
                        assert (await client.request({"op": "flush"}))["ok"]
                await client.close()

            await asyncio.gather(*(worker(tag) for tag in ("a", "b", "c")))

            control = await _Client.connect(server.port)
            flushed = await control.request({"op": "flush"})
            assert flushed["ok"] and flushed["processed"] == sent
            stats = (await control.request({"op": "stats"}))["stats"]
            assert stats["accepted_events"] == sent
            assert stats["processed"] == sent
            await control.close()

    _run(main())


def test_flusher_survives_backend_ingest_failure():
    async def main():
        metrics = MetricsRegistry()
        config = ServeConfig(
            port=0, backend="sequential", capacity=32,
            batch_events=4, batch_interval=0.01,
        )
        async with StreamServer(config, metrics=metrics) as server:
            real_ingest = server._backend.ingest
            tripped = []

            def flaky_ingest(batch):
                if not tripped:
                    tripped.append(True)
                    raise RuntimeError("injected backend failure")
                real_ingest(batch)

            server._backend.ingest = flaky_ingest
            client = await _Client.connect(server.port)

            # the first full batch hits the injected failure and is lost
            reply = await client.request({"op": "ingest", "events": ["a"] * 4})
            assert reply["ok"]
            # flush must still return: task_done fires even on failure,
            # so queue.join() cannot hang on the dead batch
            flushed = await client.request({"op": "flush"})
            assert flushed["ok"] and flushed["processed"] == 0

            # the flusher survived: later batches land and are queryable
            reply = await client.request({"op": "ingest", "events": ["b"] * 4})
            assert reply["ok"]
            flushed = await client.request({"op": "flush"})
            assert flushed["ok"] and flushed["processed"] == 4

            counters = metrics.snapshot()["counters"]
            assert counters["serve.batch.flush_failures"] == 1
            stats = (await client.request({"op": "stats"}))["stats"]
            assert stats["accepted_events"] == 8   # acked, one batch lost
            assert stats["processed"] == 4
            assert stats["lost_events"] == 4
            await client.close()

    _run(main())


# ----------------------------------------------------------------------
# Framing: oversized lines report frame-too-large and drop the link
# ----------------------------------------------------------------------
def test_frame_too_large_closes_connection():
    async def main():
        config = ServeConfig(
            port=0, backend="sequential", capacity=32,
            max_frame_bytes=1024,
            batch_events=8, batch_interval=0.01,
        )
        async with StreamServer(config) as server:
            client = await _Client.connect(server.port)
            client.writer.write(b'{"op": "ingest", "events": ["' +
                                b"x" * 4096 + b'"]}\n')
            await client.writer.drain()
            payload = await client.read_frame()
            assert payload["ok"] is False
            assert payload["error"] == "frame-too-large"
            # framing is unrecoverable: the server hangs up
            tail = await asyncio.wait_for(client.reader.read(), TIMEOUT)
            assert tail == b""
            await client.close()

            # the server itself is fine: new connections still work
            fresh = await _Client.connect(server.port)
            assert (await fresh.request({"op": "ping"}))["pong"] is True
            await fresh.close()

    _run(main())
