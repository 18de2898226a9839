"""Name -> Backend factory registry.

The one engine table: the serve tier, ``count`` (both ``--backend``),
the scenario accuracy matrix and the conformance tests all resolve
engine names here and nowhere else.

Every engine is described by one :class:`EngineSpec` (name plus the
sizing knobs); an engine ignores the knobs it does not use (a
sequential counter has no ``workers``), which keeps the call sites
engine-agnostic, the entire point of the protocol.

An engine's own modules (:mod:`repro.mp`, the NumPy sketch adapter)
load inside its branch of :func:`create_backend`, when it is built, so
importing the registry costs what the stock engine needs and no more.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Union

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


@dataclasses.dataclass(frozen=True)
class EngineSpec:
    """One engine and its sizing knobs: the only declaration of their
    defaults (``create_backend``, ``ServeConfig`` and the ``serve`` /
    ``count`` flags take theirs from here).

    ``capacity`` budgets the counter/candidate set everywhere;
    ``threads`` drives the simulated engine; ``workers`` the
    multiprocess pools (in :class:`~repro.mp.config.MPConfig`'s default
    chunks and timeout); ``epsilon``/``delta``/``seed`` the sketch
    tables.  A bad value of any knob, used by the engine or not, raises
    :class:`~repro.errors.ConfigurationError` naming the field.
    """

    name: str = "sequential"
    capacity: int = 256
    threads: int = 4
    workers: int = 2
    epsilon: float = 0.001
    delta: float = 0.01
    seed: Optional[int] = 0

    def __post_init__(self) -> None:
        if self.name not in BACKEND_NAMES:
            raise ConfigurationError(
                f"name must be one of {list(BACKEND_NAMES)}, "
                f"got unknown backend {self.name!r}"
            )
        for field in ("capacity", "threads", "workers"):
            if not getattr(self, field) >= 1:
                raise ConfigurationError(
                    f"{field} must be >= 1, got {getattr(self, field)}"
                )
        for field in ("epsilon", "delta"):
            if not 0 < getattr(self, field) < 1:
                raise ConfigurationError(
                    f"{field} must be in (0, 1), got {getattr(self, field)}"
                )
        if self.seed is not None and not isinstance(self.seed, int):
            raise ConfigurationError(
                f"seed must be an int or None, got {self.seed!r}"
            )


#: (arguments, spec) of the last call, shared by every caller since a
#: spec is immutable: building a frozen, checked spec costs about as
#: much as building the sequential engine, so a create/close loop reuses it
_last: tuple = (None, None)


def create_backend(
    engine: Union[str, EngineSpec],
    *,
    capacity: int = EngineSpec.capacity,
    threads: int = EngineSpec.threads,
    workers: int = EngineSpec.workers,
    epsilon: float = EngineSpec.epsilon,
    delta: float = EngineSpec.delta,
    seed: Optional[int] = EngineSpec.seed,
    metrics=None,
) -> Backend:
    """Build a started backend from an :class:`EngineSpec`, which
    carries its own knobs, or from a registry name and the spec's knobs
    (``create_backend("mp-shm", capacity=512, workers=4)``), which keep
    the spec's defaults when left out.
    """
    global _last
    key = (engine, capacity, threads, workers, epsilon, delta, seed)
    last_key, spec = _last
    if key != last_key:
        spec = engine if isinstance(engine, EngineSpec) else EngineSpec(*key)
        _last = key, spec
    if spec.name == "sequential":
        return SequentialBackend(capacity=spec.capacity, metrics=metrics)
    if spec.name == "cots-sim":
        return CotsSimBackend(
            capacity=spec.capacity, threads=spec.threads, metrics=metrics
        )
    if spec.name in ("mp-shm", "mp-one-table"):
        from repro.mp.config import MPConfig
        from repro.mp.one_table import OneTablePool
        from repro.mp.pool import ShardedProcessPool

        config = MPConfig(
            workers=spec.workers,
            capacity=spec.capacity,
            sketch_epsilon=spec.epsilon,
            sketch_delta=spec.delta,
            sketch_seed=spec.seed,
        )
        pool_cls = (
            OneTablePool if spec.name == "mp-one-table"
            else ShardedProcessPool
        )
        return MPBackend(pool_cls, config, name=spec.name, metrics=metrics)
    # the one name left: sketch-cm-vec
    from repro.backend.sketch import SketchCMVecBackend

    return SketchCMVecBackend(
        capacity=spec.capacity, epsilon=spec.epsilon, delta=spec.delta,
        seed=spec.seed, metrics=metrics,
    )
