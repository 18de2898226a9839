"""Configuration for the multiprocess sharded counting backend.

:class:`MPConfig` mirrors :class:`repro.parallel.base.SchemeConfig` — the
same (workers, capacity) core, validated the same way, raising the same
:class:`~repro.errors.ConfigurationError` — so the experiments/CLI layer
can treat the real-parallelism backend as just another scheme driver.
The extra knobs are the ones a *process* pool needs and a simulated one
does not: dispatch chunk size (IPC amortization), partitioning
strategy, worker timeout, and the multiprocessing start method.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro.errors import ConfigurationError

#: partitioning strategies understood by the dispatcher (the names of
#: :func:`repro.workloads.partition.partition`).  ``hash`` is the
#: default because it gives every element a *home* shard: all
#: occurrences of one element land on one worker, so shard estimates
#: keep the full-stream Space Saving guarantees for their elements.
PARTITION_STRATEGIES = ("hash", "round_robin", "block")

#: fault-injection hooks understood by the worker loop (testing only)
FAULTS = ("raise", "exit", "hang")

#: counting modes.  ``sharded`` (default) gives every worker a private
#: Space Saving shard merged at query time.  ``one_table`` follows the
#: "One Table to Count Them All" design: all workers update a single
#: shared-memory Count-Min table (each worker owns a disjoint column
#: band, so updates are race-free without locks) and queries read the
#: table directly — zero merge, at the cost of a widened eps*N bound
#: (each element only enjoys its band's width).  One-table requires
#: hash partitioning (an element's home shard *is* its column band).
MODES = ("sharded", "one_table")


@dataclasses.dataclass
class MPConfig:
    """Parameters of one multiprocess sharded counting run.

    Tuning notes, in the order the knobs usually matter:

    * ``workers`` — one process per shard.  Speedup tops out at the
      physical core count, and skew caps it sooner: with ``hash``
      partitioning all occurrences of the hottest element land on one
      shard, so at high zipf α that shard carries most of the stream
      (see docs/benchmarks.md on the α = 1.1 presets).
    * ``chunk_elements`` — stream elements read per dispatch chunk;
      each chunk is pre-aggregated, integer-coded and split into at
      most ``workers`` ring segments of up to ``chunk_elements``
      records.  This is the IPC-amortization lever: far smaller values
      turn a counting run into a control-message benchmark.
    * ``capacity`` — *per-shard* Space Saving budget; the merged query
      result is built at the same capacity by default.
    * ``queue_depth`` — pending control messages per worker before
      ``put`` blocks (the rings add their own backpressure).
    * ``timeout`` — seconds a blocked dispatch/snapshot waits before
      declaring a worker hung (raises
      :class:`~repro.errors.WorkerTimeoutError` after closing the
      pool).
    * ``ring_segments`` — shm segments per worker ring; 2 gives double
      buffering (the parent fills one while the worker drains the
      other), more deepens the dispatch pipeline at the cost of
      ``ring_segments * chunk_elements * 16`` bytes per worker.

    ``beacon_every`` makes workers ship a small telemetry snapshot
    (elements processed, batches drained, live ring occupancy) on the
    reply queue every N batches; the parent folds the latest beacon per
    worker and the live-telemetry plane (``repro top``) renders them.
    Beacons are observation only — they never touch counts — and 0
    disables them entirely.

    ``fault`` is a testing-only hook that makes workers misbehave on
    purpose (``raise``: raise during counting; ``exit``: hard-exit the
    process; ``hang``: stop draining the task queue) so the typed
    crash/timeout propagation paths are testable without real crashes.
    """

    workers: int = 4
    capacity: int = 256              #: per-shard Space Saving budget
    chunk_elements: int = 32_768     #: stream elements per dispatch chunk
    partition_how: str = "hash"      #: see :data:`PARTITION_STRATEGIES`
    timeout: float = 60.0            #: seconds before a worker is hung
    queue_depth: int = 8             #: pending batches per worker (backpressure)
    start_method: Optional[str] = None  #: fork/spawn/forkserver (None = default)
    fault: Optional[str] = None      #: testing-only fault injection
    ring_segments: int = 2           #: shm segments per worker (2 = double buffer)
    mode: str = "sharded"            #: see :data:`MODES`
    beacon_every: int = 32           #: batches between worker telemetry beacons (0 = off)
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
        if self.partition_how not in PARTITION_STRATEGIES:
            raise ConfigurationError(
                f"partition_how must be one of {PARTITION_STRATEGIES}, "
                f"got {self.partition_how!r}"
            )
        if self.timeout <= 0:
            raise ConfigurationError(
                f"timeout must be > 0, got {self.timeout}"
            )
        if self.queue_depth < 1:
            raise ConfigurationError(
                f"queue_depth must be >= 1, got {self.queue_depth}"
            )
        if self.start_method not in (None, "fork", "spawn", "forkserver"):
            raise ConfigurationError(
                f"start_method must be fork, spawn, forkserver or None, "
                f"got {self.start_method!r}"
            )
        if self.fault is not None and self.fault not in FAULTS:
            raise ConfigurationError(
                f"fault must be one of {FAULTS} or None, got {self.fault!r}"
            )
        if self.ring_segments < 1:
            raise ConfigurationError(
                f"ring_segments must be >= 1, got {self.ring_segments}"
            )
        if self.mode not in MODES:
            raise ConfigurationError(
                f"mode must be one of {MODES}, got {self.mode!r}"
            )
        if self.beacon_every < 0:
            raise ConfigurationError(
                f"beacon_every must be >= 0 (0 disables beacons), "
                f"got {self.beacon_every}"
            )
        if not 0 < self.sketch_epsilon < 1:
            raise ConfigurationError(
                f"sketch_epsilon must be in (0, 1), got {self.sketch_epsilon}"
            )
        if not 0 < self.sketch_delta < 1:
            raise ConfigurationError(
                f"sketch_delta must be in (0, 1), got {self.sketch_delta}"
            )
        if self.mode == "one_table" and self.partition_how != "hash":
            raise ConfigurationError(
                "mode='one_table' requires partition_how='hash' (an "
                "element's home shard is its column band), got "
                f"{self.partition_how!r}"
            )
