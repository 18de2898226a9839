"""One protocol over every counting engine (PR 8, ROADMAP item 3).

``Backend`` (``ingest`` / ``snapshot`` / ``query`` / ``close``) is the
single driver surface for the sequential baseline, the simulated CoTS
framework, both multiprocess pools (sharded and one-table) and the
vectorized Count-Min engine (:mod:`repro.backend.sketch`, which loads
NumPy, so it is imported when built rather than re-exported here).

>>> from repro.backend import create_backend
>>> with_backend = create_backend("mp-one-table", workers=4)
>>> with_backend.ingest(stream)
>>> with_backend.query(k=10)
"""

from repro.backend.adapters import CotsSimBackend, MPBackend, SequentialBackend
from repro.backend.base import Backend, Snapshot
from repro.backend.registry import (
    BACKEND_NAMES,
    MERGED_BACKENDS,
    SKETCH_BACKENDS,
    create_backend,
)

__all__ = [
    "BACKEND_NAMES",
    "Backend",
    "CotsSimBackend",
    "MERGED_BACKENDS",
    "MPBackend",
    "SKETCH_BACKENDS",
    "SequentialBackend",
    "Snapshot",
    "create_backend",
]
