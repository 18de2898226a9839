"""The paper's naive parallelization schemes on the simulator (§4)."""

from repro.parallel.base import (
    SchemeConfig,
    SchemeResult,
    TAG_BUCKET,
    TAG_COUNTING,
    TAG_HASH,
    TAG_MERGE,
    TAG_MINMAX,
    TAG_REST,
    TAG_STRUCTURE,
)
from repro.parallel.hybrid import run_hybrid
from repro.parallel.independent import run_independent
from repro.parallel.sequential import run_sequential
from repro.parallel.shared import run_shared

__all__ = [
    "SchemeConfig",
    "SchemeResult",
    "TAG_BUCKET",
    "TAG_COUNTING",
    "TAG_HASH",
    "TAG_MERGE",
    "TAG_MINMAX",
    "TAG_REST",
    "TAG_STRUCTURE",
    "run_hybrid",
    "run_independent",
    "run_sequential",
    "run_shared",
]
