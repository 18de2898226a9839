"""One protocol over every counting engine (PR 8, ROADMAP item 3).

``Backend`` (``ingest`` / ``snapshot`` / ``query`` / ``close``) is the
single driver surface for the sequential baseline, the simulated CoTS
framework, both multiprocess pools (sharded and one-table) and the
vectorized Count-Min engine.  Engines are built only through
:func:`create_backend` from an :class:`EngineSpec`; the adapters stay
in their modules (:mod:`repro.backend.sketch` loads NumPy, so it is
imported when built).

>>> from repro.backend import create_backend
>>> with_backend = create_backend("mp-one-table", workers=4)
>>> with_backend.ingest(stream)
>>> with_backend.query(k=10)
"""

from repro.backend.base import Backend, Snapshot
from repro.backend.registry import (
    BACKEND_NAMES,
    MERGED_BACKENDS,
    SKETCH_BACKENDS,
    EngineSpec,
    create_backend,
)

__all__ = [
    "BACKEND_NAMES",
    "Backend",
    "EngineSpec",
    "MERGED_BACKENDS",
    "SKETCH_BACKENDS",
    "Snapshot",
    "create_backend",
]
