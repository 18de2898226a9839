"""Configuration for the multiprocess counting pools.

:class:`MPConfig` mirrors :class:`repro.parallel.base.SchemeConfig` — the
same (workers, capacity) core, validated the same way, raising the same
:class:`~repro.errors.ConfigurationError` — so the experiments/CLI layer
can treat the real-parallelism backend as just another scheme driver.
The extra knobs are the ones a *process* pool needs and a simulated one
does not: dispatch chunk size (IPC amortization) and worker timeout.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro.errors import ConfigurationError

#: fault-injection hooks understood by the worker loop (testing only)
FAULTS = ("raise", "exit", "hang")


@dataclasses.dataclass
class MPConfig:
    """Parameters of one multiprocess pool, sharded or one-table.

    The pool class is the mode: :class:`~repro.mp.pool.
    ShardedProcessPool` gives every worker a private Space Saving shard
    merged at query time; :class:`~repro.mp.one_table.OneTablePool`
    has all workers update one shared-memory Count-Min table (each
    worker owns a disjoint column band) read without a merge, sized by
    the ``sketch_*`` fields.  The registry picks the class by engine
    name (``mp-shm`` / ``mp-one-table``).

    Tuning notes, in the order the knobs usually matter:

    * ``workers`` — one process per shard.  Speedup tops out at the
      physical core count, and skew caps it sooner: hash routing sends
      all occurrences of the hottest element to one shard, so at high
      zipf α that shard carries most of the stream (see
      docs/benchmarks.md on the α = 1.1 presets).
    * ``chunk_elements`` — stream elements read per dispatch chunk;
      each chunk is pre-aggregated, integer-coded and split into at
      most ``workers`` ring segments of up to ``chunk_elements``
      records.  This is the IPC-amortization lever: far smaller values
      turn a counting run into a control-message benchmark.
    * ``capacity`` — *per-shard* Space Saving budget; the merged query
      result is built at the same capacity by default.
    * ``timeout`` — seconds a blocked dispatch/snapshot waits before
      declaring a worker hung (raises
      :class:`~repro.errors.WorkerTimeoutError` after closing the
      pool).

    Fixed by the pool, not configurable: each worker's control queue
    holds :data:`repro.mp.pool.QUEUE_DEPTH` messages, each shm ring has
    :data:`repro.mp.shm.RING_SEGMENTS` segments (double buffering), and
    workers ship a telemetry beacon every
    :data:`repro.mp.worker.BEACON_EVERY` drained batches.

    ``fault`` is a testing-only hook that makes workers misbehave on
    purpose (``raise``: raise during counting; ``exit``: hard-exit the
    process; ``hang``: stop draining the task queue) so the typed
    crash/timeout propagation paths are testable without real crashes.
    """

    workers: int = 4
    capacity: int = 256              #: per-shard Space Saving budget
    chunk_elements: int = 32_768     #: stream elements per dispatch chunk
    timeout: float = 60.0            #: seconds before a worker is hung
    fault: Optional[str] = None      #: testing-only fault injection
    sketch_epsilon: float = 0.001    #: one-table Count-Min eps (pre-widening)
    sketch_delta: float = 0.01       #: one-table Count-Min failure probability
    sketch_seed: Optional[int] = 0   #: one-table hash seed (shared by workers)

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ConfigurationError(
                f"workers must be >= 1, got {self.workers}"
            )
        if self.capacity < 1:
            raise ConfigurationError(
                f"capacity must be >= 1, got {self.capacity}"
            )
        if self.chunk_elements < 1:
            raise ConfigurationError(
                f"chunk_elements must be >= 1, got {self.chunk_elements}"
            )
        if self.timeout <= 0:
            raise ConfigurationError(
                f"timeout must be > 0, got {self.timeout}"
            )
        if self.fault is not None and self.fault not in FAULTS:
            raise ConfigurationError(
                f"fault must be one of {FAULTS} or None, got {self.fault!r}"
            )
        if not 0 < self.sketch_epsilon < 1:
            raise ConfigurationError(
                f"sketch_epsilon must be in (0, 1), got {self.sketch_epsilon}"
            )
        if not 0 < self.sketch_delta < 1:
            raise ConfigurationError(
                f"sketch_delta must be in (0, 1), got {self.sketch_delta}"
            )
