"""The unified Backend protocol every counting engine implements.

The sequential counter, the simulated CoTS engine, the multiprocess
pools and the sketch tables all sit behind one small surface, so the
layers above them need no per-engine glue:

``ingest(batch)``
    Feed a batch of stream elements; returns the number ingested.
    Callable repeatedly — backends are incremental (the simulated
    drivers, which must replay a whole stream, buffer internally and
    say so in their docs).
``snapshot()``
    A :class:`Snapshot`: the queryable state *now* — entries, processed
    total, the additive error bound, and backend-specific extras.
``query(k)`` / ``estimate(element)``
    Convenience queries over the current snapshot semantics: top-k
    entries and a point estimate.
``close()``
    Release processes/shm/threads.  Idempotent; a closed backend only
    rejects further ``ingest``.

The contract all implementations share (pinned by the conformance
tests): estimates upper-bound true counts and exceed them by at most
``error_bound``, ``count - error`` lower bounds them, ``processed``
equals the total ingested weight, and ``snapshot()`` reflects every
batch ingested before the call.

Engines are built by name with :func:`repro.backend.create_backend`,
which takes only the sizing knobs (capacity, threads, workers, sketch
eps/delta/seed); the pools' dispatch chunk and worker timeout stay at
their :class:`~repro.mp.config.MPConfig` defaults.
"""

from __future__ import annotations

import dataclasses
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    Iterator,
    List,
    Optional,
    Protocol,
    Sequence,
)

from repro.core.counters import CounterEntry
from repro.errors import ConfigurationError

Element = Hashable


@dataclasses.dataclass(frozen=True)
class Snapshot:
    """One queryable view of a backend's state (a mergeable summary).

    Frozen: a snapshot is an immutable point-in-time view, which is
    what lets the serve tier answer any number of concurrent queries
    from one snapshot without synchronizing with ingest.
    """

    scheme: str                     #: backend registry name
    processed: int                  #: total ingested occurrences
    entries: List[CounterEntry]     #: candidates, descending estimate
    error_bound: int                #: additive bound on any estimate
    extras: Dict[str, Any] = dataclasses.field(default_factory=dict)
    #: point estimate for keys outside ``entries``, frozen with the
    #: snapshot.  Sketch engines set it (their candidate set is a
    #: heuristic, so an unmonitored key may exceed ``error_bound``);
    #: ``None`` for Space Saving, whose unmonitored keys never do.
    estimator: Optional[Callable[[Element], int]] = dataclasses.field(
        default=None, compare=False, repr=False
    )

    def top_k(self, k: int) -> List[CounterEntry]:
        if k < 1:
            raise ConfigurationError(f"k must be >= 1, got {k}")
        return self.entries[:k]

    def __iter__(self) -> Iterator[CounterEntry]:
        return iter(self.entries)


class Backend(Protocol):
    """Structural protocol — adapters need not inherit anything."""

    name: str

    def ingest(self, batch: Sequence[Element]) -> int:
        """Feed one batch; returns the number of elements ingested."""
        ...

    def snapshot(self) -> Snapshot:
        """The queryable state reflecting all prior ``ingest`` calls."""
        ...

    def query(self, k: int = 10) -> List[CounterEntry]:
        """Top-k entries of the current state (``k >= 1``)."""
        ...

    def estimate(self, element: Element) -> int:
        """Point estimate for one element (0 if unknown)."""
        ...

    def close(self) -> None:
        """Release resources; idempotent."""
        ...
