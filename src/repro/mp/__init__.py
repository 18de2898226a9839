"""Real wall-clock parallelism: the multiprocess sharded backend.

Everything else in this repo demonstrates the paper's speedups on the
simulated CMP, because CPython's GIL forbids intra-operator speedup on
threads.  This package sidesteps the GIL entirely with *processes*:
each worker owns a private Space Saving shard, the parent pre-aggregates
and hash-routes the stream as integer-coded ``(code, weight)`` pairs
through per-worker shared-memory rings (see :mod:`repro.mp.shm`), and
queries fold shard snapshots through the hierarchical merge: the
sharded/domain-split design that QPOPSS and Cafaro et al. show actually
scales on real cores.

>>> from repro.mp import MPConfig, run_mp
>>> result = run_mp(stream, MPConfig(workers=4, capacity=256))
>>> result.counter.top_k(5), result.throughput
"""

from repro.mp.config import MPConfig
from repro.mp.driver import MPResult, run_mp, summaries_equivalent
from repro.mp.one_table import OneTablePool, SharedCountMinTable
from repro.mp.pool import ShardedProcessPool

__all__ = [
    "MPConfig",
    "MPResult",
    "OneTablePool",
    "SharedCountMinTable",
    "ShardedProcessPool",
    "run_mp",
    "summaries_equivalent",
]
