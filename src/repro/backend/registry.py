"""Name -> Backend factory registry.

The one engine table: the serve tier (``serve --backend``), the
scenario accuracy matrix and the conformance tests all resolve engine
names here and nowhere else.

Factories take one uniform keyword set and ignore what they don't use
(a sequential counter has no ``workers``); that keeps the call sites
engine-agnostic, which is the entire point of the protocol.

An engine's own modules (:mod:`repro.mp`, the NumPy sketch adapter)
load inside its branch of :func:`create_backend`, when it is built, so
importing the registry costs what the stock engine needs and no more.
"""

from __future__ import annotations

from typing import Optional

from repro.backend.adapters import CotsSimBackend, MPBackend, SequentialBackend
from repro.backend.base import Backend
from repro.errors import ConfigurationError

#: every registered backend name, in documentation order
BACKEND_NAMES = (
    "sequential",
    "cots-sim",
    "mp-shm",
    "mp-one-table",
    "sketch-cm-vec",
)

#: names whose summaries are Count-Min reads (estimates upper-bound
#: truth under a widened eps*N bound; recall is delegated to a
#: best-effort candidate set)
SKETCH_BACKENDS = ("mp-one-table", "sketch-cm-vec")

#: names whose summary folds per-shard summaries: truncating the merge
#: back to ``capacity`` may drop a borderline heavy hitter, so Space
#: Saving's recall guarantee is not audited on them
MERGED_BACKENDS = ("mp-shm",)


def create_backend(
    name: str,
    *,
    capacity: int = 256,
    threads: int = 4,
    workers: int = 2,
    epsilon: float = 0.001,
    delta: float = 0.01,
    seed: Optional[int] = 0,
    metrics=None,
) -> Backend:
    """Build a started backend by registry name.

    ``capacity`` budgets the counter/candidate set everywhere;
    ``threads`` drives the simulated engine;
    ``workers`` the multiprocess pools, which dispatch in
    :class:`~repro.mp.config.MPConfig`'s default chunks and timeout;
    ``epsilon``/``delta``/``seed`` the sketch tables.  Unknown names
    raise :class:`~repro.errors.ConfigurationError` listing the
    registry.
    """
    if name == "sequential":
        return SequentialBackend(capacity=capacity, metrics=metrics)
    if name == "cots-sim":
        return CotsSimBackend(
            capacity=capacity, threads=threads, metrics=metrics
        )
    if name in ("mp-shm", "mp-one-table"):
        from repro.mp.config import MPConfig
        from repro.mp.one_table import OneTablePool
        from repro.mp.pool import ShardedProcessPool

        config = MPConfig(
            workers=workers,
            capacity=capacity,
            sketch_epsilon=epsilon,
            sketch_delta=delta,
            sketch_seed=seed,
        )
        pool_cls = (
            OneTablePool if name == "mp-one-table" else ShardedProcessPool
        )
        return MPBackend(pool_cls, config, name=name, metrics=metrics)
    if name == "sketch-cm-vec":
        from repro.backend.sketch import SketchCMVecBackend

        return SketchCMVecBackend(
            capacity=capacity, epsilon=epsilon, delta=delta, seed=seed,
            metrics=metrics,
        )
    raise ConfigurationError(
        f"unknown backend {name!r}; registered: {list(BACKEND_NAMES)}"
    )
