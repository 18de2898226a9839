"""Real-``threading`` implementations for protocol validation.

The GIL forbids intra-operator speedup in CPython, so these exist to
exercise the CoTS delegation protocol under genuine preemption —
correctness, not performance (DESIGN.md §2).
"""

from repro.native.atomic import AtomicInteger, AtomicReference
from repro.native.delegation import DelegationCounter, count_with_threads

__all__ = [
    "AtomicInteger",
    "AtomicReference",
    "DelegationCounter",
    "count_with_threads",
]
