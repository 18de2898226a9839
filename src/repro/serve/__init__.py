"""The serve tier: async TCP ingest + the live §3.2 query model.

``python -m repro serve`` boots a :class:`StreamServer`.  Protocol
reference and operator guide: docs/serve.md.
"""

from repro.serve.protocol import (
    ERROR_CODES,
    OPS,
    QUERY_KINDS,
    QuerySpec,
    WireProtocolError,
    decode_request,
    encode_frame,
    encode_request,
    error_payload,
    is_push,
)
from repro.serve.server import (
    SERVE_FAULTS,
    ServeConfig,
    StreamServer,
    run_server,
)
from repro.serve.top import render_dashboard, run_top

__all__ = [
    "ERROR_CODES",
    "OPS",
    "QUERY_KINDS",
    "QuerySpec",
    "SERVE_FAULTS",
    "ServeConfig",
    "StreamServer",
    "WireProtocolError",
    "decode_request",
    "encode_frame",
    "encode_request",
    "error_payload",
    "is_push",
    "render_dashboard",
    "run_server",
    "run_top",
]
