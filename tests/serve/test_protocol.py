"""Unit tests for the serve wire-protocol codec.

Two halves: every typed request survives an encode -> decode round
trip unchanged, and every malformed-frame family is rejected with the
documented machine-readable error code.
"""

import json

import pytest

from repro.serve.protocol import (
    ERROR_CODES,
    INNER_KINDS,
    OPS,
    QUERY_KINDS,
    FlushRequest,
    IngestRequest,
    IntervalRequest,
    PingRequest,
    QueryRequest,
    QuerySpec,
    StatsRequest,
    SubscribeRequest,
    UnsubscribeRequest,
    WireProtocolError,
    decode_request,
    encode_frame,
    encode_request,
    error_payload,
    is_push,
    request_wire,
)

# ----------------------------------------------------------------------
# Round trips
# ----------------------------------------------------------------------
ROUND_TRIP_REQUESTS = [
    IngestRequest(events=("a", "b", 3)),
    IngestRequest(events=("x",), id="req-1"),
    QueryRequest(spec=QuerySpec(kind="point", element="a")),
    QueryRequest(spec=QuerySpec(kind="point", element=7, phi=0.01, k=5), id=9),
    QueryRequest(spec=QuerySpec(kind="set", elements=("a", "b"))),
    QueryRequest(spec=QuerySpec(kind="set", phi=0.05), id="s"),
    QueryRequest(spec=QuerySpec(kind="topk", k=10)),
    IntervalRequest(inner=QuerySpec(kind="topk", k=3), every=100, id="iv"),
    IntervalRequest(inner=QuerySpec(kind="point", element="hot"), every=1),
    SubscribeRequest(inner=QuerySpec(kind="topk", k=5), period=0.5, id="cq"),
    SubscribeRequest(inner=QuerySpec(kind="set", phi=0.1), period=2.0),
    UnsubscribeRequest(subscription="sub-1", id=1),
    FlushRequest(id="f"),
    StatsRequest(),
    PingRequest(id=0),
]


@pytest.mark.parametrize(
    "request_", ROUND_TRIP_REQUESTS,
    ids=[type(r).__name__ + "-" + str(i) for i, r in enumerate(ROUND_TRIP_REQUESTS)],
)
def test_encode_decode_round_trip(request_):
    frame = encode_request(request_)
    assert frame.endswith(b"\n") and frame.count(b"\n") == 1
    assert decode_request(frame) == request_
    # str input decodes identically to bytes input
    assert decode_request(frame.decode("utf-8")) == request_


def test_singular_event_alias():
    decoded = decode_request(b'{"op": "ingest", "event": "x"}\n')
    assert decoded == IngestRequest(events=("x",))


def test_request_wire_is_plain_json():
    wire = request_wire(IntervalRequest(inner=QuerySpec(kind="topk", k=2), every=7))
    assert wire == {"op": "query", "kind": "interval",
                    "inner": {"kind": "topk", "k": 2}, "every": 7}
    # must survive a JSON round trip byte-for-byte
    assert json.loads(encode_frame(wire)) == wire


def test_encode_frame_is_one_compact_line():
    frame = encode_frame({"ok": True, "id": 1})
    assert frame == b'{"ok":true,"id":1}\n'


# ----------------------------------------------------------------------
# Rejections: every malformed family carries its documented code
# ----------------------------------------------------------------------
def _code_of(raw) -> str:
    with pytest.raises(WireProtocolError) as excinfo:
        decode_request(raw)
    assert excinfo.value.code in ERROR_CODES
    return excinfo.value.code


def test_bad_json():
    assert _code_of(b"not json at all\n") == "bad-json"
    assert _code_of(b'{"op": "ping"') == "bad-json"
    assert _code_of(b"\xff\xfe invalid utf8") == "bad-json"


def test_bad_frame_non_object():
    assert _code_of(b"[1, 2, 3]\n") == "bad-frame"
    assert _code_of(b'"just a string"\n') == "bad-frame"
    assert _code_of(b"42\n") == "bad-frame"


def test_unknown_op():
    assert _code_of(b'{"op": "nope"}\n') == "unknown-op"
    assert _code_of(b'{"kind": "topk", "k": 3}\n') == "unknown-op"
    assert _code_of(b'{"op": 7}\n') == "unknown-op"


@pytest.mark.parametrize("raw", [
    # ingest
    b'{"op": "ingest"}',
    b'{"op": "ingest", "events": []}',
    b'{"op": "ingest", "events": "abc"}',
    b'{"op": "ingest", "events": [1.5]}',
    b'{"op": "ingest", "events": [true]}',
    # query shell
    b'{"op": "query"}',
    b'{"op": "query", "kind": "median"}',
    # point
    b'{"op": "query", "kind": "point"}',
    b'{"op": "query", "kind": "point", "element": [1]}',
    b'{"op": "query", "kind": "point", "element": "a", "phi": 1.5}',
    b'{"op": "query", "kind": "point", "element": "a", "phi": 0}',
    b'{"op": "query", "kind": "point", "element": "a", "k": 0}',
    b'{"op": "query", "kind": "point", "element": "a", "k": true}',
    # set
    b'{"op": "query", "kind": "set"}',
    b'{"op": "query", "kind": "set", "elements": []}',
    b'{"op": "query", "kind": "set", "elements": [null]}',
    # topk
    b'{"op": "query", "kind": "topk"}',
    b'{"op": "query", "kind": "topk", "k": "ten"}',
    # interval
    b'{"op": "query", "kind": "interval", "every": 5}',
    b'{"op": "query", "kind": "interval", "inner": {"kind": "topk", "k": 1}}',
    b'{"op": "query", "kind": "interval", "inner": {"kind": "topk", "k": 1}, "every": 0}',
    b'{"op": "query", "kind": "interval", "inner": {"kind": "interval"}, "every": 5}',
    # subscribe
    b'{"op": "subscribe", "period": 1}',
    b'{"op": "subscribe", "inner": {"kind": "topk", "k": 1}}',
    b'{"op": "subscribe", "inner": {"kind": "topk", "k": 1}, "period": 0}',
    b'{"op": "subscribe", "inner": {"kind": "topk", "k": 1}, "period": true}',
    # unsubscribe
    b'{"op": "unsubscribe"}',
    b'{"op": "unsubscribe", "subscription": ""}',
    b'{"op": "unsubscribe", "subscription": 7}',
    # id
    b'{"op": "ping", "id": [1]}',
    b'{"op": "ping", "id": 1.5}',
])
def test_bad_request(raw):
    assert _code_of(raw) == "bad-request"


@pytest.mark.parametrize("bad", [True, False, None, 1.5, [], {}])
@pytest.mark.parametrize("position", [0, 2, 4])
def test_ingest_names_the_first_bad_event(bad, position):
    """The type-set check refuses every non-element JSON value at the
    first, a middle and the last position, with the per-event message."""
    events = ["a", 1, "b", 2, "c"]
    events[position] = bad
    frame = json.dumps({"op": "ingest", "events": events})
    with pytest.raises(WireProtocolError) as excinfo:
        decode_request(frame)
    assert excinfo.value.code == "bad-request"
    assert str(excinfo.value) == (
        f"event {bad!r} is not a string or integer"
    )


def test_unknown_error_code_rejected_at_construction():
    with pytest.raises(ValueError):
        WireProtocolError("made-up-code", "boom")


# ----------------------------------------------------------------------
# Response helpers
# ----------------------------------------------------------------------
def test_error_payload_shape():
    payload = error_payload("backpressure", "budget full", request_id="r1")
    assert payload == {"ok": False, "error": "backpressure",
                       "message": "budget full", "id": "r1"}
    assert "id" not in error_payload("bad-json", "nope")


def test_is_push_discriminates_frame_species():
    assert is_push({"push": "sub-1", "seq": 1, "kind": "topk"})
    assert not is_push({"ok": True, "id": 1})
    assert not is_push({"ok": False, "error": "bad-request", "message": "m"})


def test_documented_constants_are_consistent():
    assert set(INNER_KINDS) < set(QUERY_KINDS)
    assert "interval" in QUERY_KINDS and "interval" not in INNER_KINDS
    assert len(OPS) == len(set(OPS))
    assert len(ERROR_CODES) == len(set(ERROR_CODES))
