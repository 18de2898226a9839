"""The serve tier's wire protocol: newline-delimited JSON frames.

One frame is one JSON object on one line, UTF-8, terminated by ``\\n``
(the full reference with worked examples is docs/serve.md).  Requests
carry an ``op`` discriminator; everything the server sends back is a
JSON object without one — a *response* (echoing the request's optional
``id``) or a *push* (carrying the ``push`` subscription id), so a
client can always tell the three frame species apart.

The request surface maps the paper's §3.2 query model onto sockets:

========== =======================================================
``op``     meaning
========== =======================================================
ingest     feed stream events (micro-batched into the backend)
query      one-shot ``point`` / ``set`` / ``topk`` query, plus the
           §3.2 *interval* query (``kind: "interval"``): an inner
           point/set/topk query re-answered every ``every`` ingested
           events, pushed to the requesting connection
subscribe  *continuous* query (§3.2 Query 4): the inner query pushed
           on a configurable time ``period`` — the densest schedule a
           snapshot-serving tier can honour
unsubscribe cancel an interval/continuous registration by id
flush      force pending micro-batches into the backend and refresh
           the snapshot (a read barrier: answers after the response
           reflect everything ingested before the flush)
stats      server counters, staleness, config echo
metrics    live telemetry: the rolling-window summary (rates, gauge
           trends, histogram quantiles), alert states and worker
           beacons — one-shot, or a periodic push subscription with
           ``period`` (seconds); ``raw: true`` adds the full
           cumulative registry snapshot
ping       liveness probe
========== =======================================================

Decoding is strict: every malformed frame raises
:class:`WireProtocolError` with a machine-readable ``code`` that the
server echoes back verbatim, so a client can distinguish its own bug
(``bad-request``) from transient refusal (``backpressure``).
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.errors import ReproError

#: every request discriminator, in documentation order
OPS = (
    "ingest", "query", "subscribe", "unsubscribe", "flush", "stats",
    "metrics", "ping",
)

#: one-shot query kinds ("interval" additionally registers a push)
QUERY_KINDS = ("point", "set", "topk", "interval")

#: query kinds an interval/continuous registration may wrap
INNER_KINDS = ("point", "set", "topk")

#: error codes the server emits (docs/serve.md lists the semantics)
ERROR_CODES = (
    "bad-json",          # the line is not valid JSON
    "bad-frame",         # valid JSON but not an object
    "unknown-op",        # object without a registered "op"
    "bad-request",       # a field failed validation
    "frame-too-large",   # line exceeded the frame budget; connection drops
    "backpressure",      # pending-batch budget full; retry after a delay
    "unknown-subscription",
    "server-error",
)


class WireProtocolError(ReproError):
    """A frame violated the serve wire protocol.

    ``code`` is one of :data:`ERROR_CODES`; the server copies it into
    the error response so clients can branch without string-matching
    the human-readable message.
    """

    def __init__(self, code: str, message: str) -> None:
        if code not in ERROR_CODES:
            raise ValueError(f"unknown protocol error code {code!r}")
        self.code = code
        super().__init__(message)


#: JSON scalars accepted as stream elements (bool is an int in Python,
#: and JSON true/false round-trip confusingly — rejected explicitly)
def _is_element(value: Any) -> bool:
    return isinstance(value, (str, int)) and not isinstance(value, bool)


#: the exact types of JSON-decoded stream elements (bool excluded)
_ELEMENT_TYPES = frozenset((str, int))


def _bad(message: str) -> WireProtocolError:
    return WireProtocolError("bad-request", message)


# ----------------------------------------------------------------------
# Request types
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class QuerySpec:
    """One point / set / topk query, shared by every querying op.

    ``point`` needs ``element`` (optional ``phi``/``k`` additionally
    answer the §3.2 membership forms); ``set`` needs either an explicit
    ``elements`` list (batch point estimates) or ``phi`` (the frequent
    set above ``phi * N``); ``topk`` needs ``k``.
    """

    kind: str
    element: Optional[Union[str, int]] = None
    elements: Optional[Tuple[Union[str, int], ...]] = None
    k: Optional[int] = None
    phi: Optional[float] = None

    def to_wire(self) -> Dict[str, Any]:
        wire: Dict[str, Any] = {"kind": self.kind}
        if self.element is not None:
            wire["element"] = self.element
        if self.elements is not None:
            wire["elements"] = list(self.elements)
        if self.k is not None:
            wire["k"] = self.k
        if self.phi is not None:
            wire["phi"] = self.phi
        return wire


@dataclasses.dataclass(frozen=True)
class IngestRequest:
    events: Tuple[Union[str, int], ...]
    id: Optional[Union[str, int]] = None


@dataclasses.dataclass(frozen=True)
class QueryRequest:
    spec: QuerySpec
    id: Optional[Union[str, int]] = None


@dataclasses.dataclass(frozen=True)
class IntervalRequest:
    """§3.2 Query 3: ``inner`` re-answered every ``every`` ingested events."""

    inner: QuerySpec
    every: int
    id: Optional[Union[str, int]] = None


@dataclasses.dataclass(frozen=True)
class SubscribeRequest:
    """§3.2 Query 4: ``inner`` pushed every ``period`` seconds."""

    inner: QuerySpec
    period: float
    id: Optional[Union[str, int]] = None


@dataclasses.dataclass(frozen=True)
class UnsubscribeRequest:
    subscription: str
    id: Optional[Union[str, int]] = None


@dataclasses.dataclass(frozen=True)
class FlushRequest:
    id: Optional[Union[str, int]] = None


@dataclasses.dataclass(frozen=True)
class StatsRequest:
    id: Optional[Union[str, int]] = None


@dataclasses.dataclass(frozen=True)
class MetricsRequest:
    """Live telemetry: one-shot, or a push subscription with ``period``.

    ``raw`` additionally includes the full cumulative registry snapshot
    in every answer (the windowed summary is always present).
    """

    period: Optional[float] = None
    raw: bool = False
    id: Optional[Union[str, int]] = None


@dataclasses.dataclass(frozen=True)
class PingRequest:
    id: Optional[Union[str, int]] = None


Request = Union[
    IngestRequest, QueryRequest, IntervalRequest, SubscribeRequest,
    UnsubscribeRequest, FlushRequest, StatsRequest, MetricsRequest,
    PingRequest,
]


# ----------------------------------------------------------------------
# Decoding (server side)
# ----------------------------------------------------------------------
def _decode_spec(obj: Dict[str, Any], kinds: Tuple[str, ...]) -> QuerySpec:
    kind = obj.get("kind")
    if kind not in kinds:
        raise _bad(f"query kind must be one of {list(kinds)}, got {kind!r}")
    element = obj.get("element")
    elements = obj.get("elements")
    k = obj.get("k")
    phi = obj.get("phi")
    if k is not None:
        if not isinstance(k, int) or isinstance(k, bool) or k < 1:
            raise _bad(f"k must be an integer >= 1, got {k!r}")
    if phi is not None:
        if isinstance(phi, bool) or not isinstance(phi, (int, float)):
            raise _bad(f"phi must be a number in (0, 1), got {phi!r}")
        if not 0 < phi < 1:
            raise _bad(f"phi must be in (0, 1), got {phi!r}")
    if kind == "point":
        if not _is_element(element):
            raise _bad("point query needs an 'element' (string or integer)")
    elif kind == "set":
        if elements is None and phi is None:
            raise _bad("set query needs 'elements' (a list) or 'phi'")
        if elements is not None:
            if not isinstance(elements, list) or not elements:
                raise _bad("'elements' must be a non-empty list")
            for entry in elements:
                if not _is_element(entry):
                    raise _bad(
                        f"set element {entry!r} is not a string or integer"
                    )
    elif kind == "topk":
        if k is None:
            raise _bad("topk query needs 'k'")
    return QuerySpec(
        kind=kind,
        element=element if kind == "point" else None,
        elements=tuple(elements) if kind == "set" and elements else None,
        k=k,
        phi=phi,
    )


def _decode_id(obj: Dict[str, Any]) -> Optional[Union[str, int]]:
    request_id = obj.get("id")
    if request_id is not None and not _is_element(request_id):
        raise _bad(f"id must be a string or integer, got {request_id!r}")
    return request_id


def decode_request(raw: Union[str, bytes]) -> Request:
    """Parse one frame into a typed request (the server's entry point).

    Raises :class:`WireProtocolError` — ``bad-json`` / ``bad-frame`` /
    ``unknown-op`` / ``bad-request`` — on anything malformed.
    """
    if isinstance(raw, bytes):
        try:
            raw = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise WireProtocolError("bad-json", f"frame is not UTF-8: {exc}")
    try:
        obj = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise WireProtocolError("bad-json", f"frame is not JSON: {exc}")
    if not isinstance(obj, dict):
        raise WireProtocolError(
            "bad-frame", f"frame must be a JSON object, got {type(obj).__name__}"
        )
    op = obj.get("op")
    if op not in OPS:
        raise WireProtocolError(
            "unknown-op", f"op must be one of {list(OPS)}, got {op!r}"
        )
    request_id = _decode_id(obj)

    if op == "ingest":
        events = obj.get("events")
        if events is None and "event" in obj:
            events = [obj["event"]]
        if not isinstance(events, list) or not events:
            raise _bad("ingest needs 'events' (a non-empty list) or 'event'")
        # exact for json.loads output: bool is its own type, and no
        # str/int subclasses occur; the per-event scan runs only to name
        # the first bad event
        if not set(map(type, events)) <= _ELEMENT_TYPES:
            bad = next(event for event in events if not _is_element(event))
            raise _bad(f"event {bad!r} is not a string or integer")
        return IngestRequest(events=tuple(events), id=request_id)

    if op == "query":
        spec = _decode_spec(obj, QUERY_KINDS)
        if spec.kind == "interval":
            inner = obj.get("inner")
            if not isinstance(inner, dict):
                raise _bad(
                    "interval query needs 'inner' (a point/set/topk object)"
                )
            every = obj.get("every")
            if not isinstance(every, int) or isinstance(every, bool) or every < 1:
                raise _bad(
                    f"interval query needs 'every' (an integer >= 1 events), "
                    f"got {every!r}"
                )
            return IntervalRequest(
                inner=_decode_spec(inner, INNER_KINDS),
                every=every,
                id=request_id,
            )
        return QueryRequest(spec=spec, id=request_id)

    if op == "subscribe":
        inner = obj.get("inner")
        if not isinstance(inner, dict):
            raise _bad("subscribe needs 'inner' (a point/set/topk object)")
        period = obj.get("period")
        if isinstance(period, bool) or not isinstance(period, (int, float)):
            raise _bad(f"subscribe needs 'period' (seconds > 0), got {period!r}")
        if not period > 0:
            raise _bad(f"period must be > 0, got {period!r}")
        return SubscribeRequest(
            inner=_decode_spec(inner, INNER_KINDS),
            period=float(period),
            id=request_id,
        )

    if op == "unsubscribe":
        subscription = obj.get("subscription")
        if not isinstance(subscription, str) or not subscription:
            raise _bad("unsubscribe needs 'subscription' (the id string)")
        return UnsubscribeRequest(subscription=subscription, id=request_id)

    if op == "flush":
        return FlushRequest(id=request_id)
    if op == "stats":
        return StatsRequest(id=request_id)

    if op == "metrics":
        period = obj.get("period")
        if period is not None:
            if isinstance(period, bool) or not isinstance(
                period, (int, float)
            ):
                raise _bad(
                    f"metrics 'period' must be seconds > 0, got {period!r}"
                )
            if not period > 0:
                raise _bad(f"period must be > 0, got {period!r}")
            period = float(period)
        raw = obj.get("raw", False)
        if not isinstance(raw, bool):
            raise _bad(f"metrics 'raw' must be a boolean, got {raw!r}")
        return MetricsRequest(period=period, raw=raw, id=request_id)

    return PingRequest(id=request_id)


# ----------------------------------------------------------------------
# Encoding (both sides)
# ----------------------------------------------------------------------
def encode_frame(payload: Dict[str, Any]) -> bytes:
    """One wire frame: compact JSON + the newline terminator."""
    return json.dumps(payload, separators=(",", ":")).encode("utf-8") + b"\n"


def request_wire(request: Request) -> Dict[str, Any]:
    """The JSON object form of a typed request (client side)."""
    wire: Dict[str, Any]
    if isinstance(request, IngestRequest):
        wire = {"op": "ingest", "events": list(request.events)}
    elif isinstance(request, QueryRequest):
        wire = {"op": "query", **request.spec.to_wire()}
    elif isinstance(request, IntervalRequest):
        wire = {
            "op": "query", "kind": "interval",
            "inner": request.inner.to_wire(), "every": request.every,
        }
    elif isinstance(request, SubscribeRequest):
        wire = {
            "op": "subscribe",
            "inner": request.inner.to_wire(), "period": request.period,
        }
    elif isinstance(request, UnsubscribeRequest):
        wire = {"op": "unsubscribe", "subscription": request.subscription}
    elif isinstance(request, FlushRequest):
        wire = {"op": "flush"}
    elif isinstance(request, StatsRequest):
        wire = {"op": "stats"}
    elif isinstance(request, MetricsRequest):
        wire = {"op": "metrics"}
        if request.period is not None:
            wire["period"] = request.period
        if request.raw:
            wire["raw"] = True
    elif isinstance(request, PingRequest):
        wire = {"op": "ping"}
    else:  # pragma: no cover - the union above is exhaustive
        raise TypeError(f"not a request: {request!r}")
    if request.id is not None:
        wire["id"] = request.id
    return wire


def encode_request(request: Request) -> bytes:
    """A typed request as one wire frame (client side)."""
    return encode_frame(request_wire(request))


def error_payload(
    code: str,
    message: str,
    request_id: Optional[Union[str, int]] = None,
) -> Dict[str, Any]:
    """The error-response object for one failed request."""
    payload: Dict[str, Any] = {"ok": False, "error": code, "message": message}
    if request_id is not None:
        payload["id"] = request_id
    return payload


def is_push(payload: Dict[str, Any]) -> bool:
    """True when a received frame is a subscription push, not a response."""
    return "push" in payload
