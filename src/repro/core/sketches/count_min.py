"""Count-Min sketch (Cormode & Muthukrishnan, 2005).

``depth = ceil(ln(1/delta))`` rows of ``width = ceil(e/eps)`` counters;
each row hashes the element with an independent universal hash and
increments one cell.  The estimate is the row-wise minimum and
overcounts by at most ``eps * N`` with probability ``1 - delta``.

An optional *conservative update* mode only raises the cells that equal
the current minimum, tightening estimates at the same memory.
A small candidate heap turns the sketch into a frequent-elements /
top-k answerer so it satisfies the package-wide counter protocol.

Two perf-relevant design points (PR 8):

* The table is a NumPy ``(depth, width)`` ``int64`` array and elements
  are hashed via their :class:`~repro.core.coding.StreamCodec` *codes*,
  never via builtin ``hash()`` — str/bytes hashing is salted by
  ``PYTHONHASHSEED``, so the old tables were not reproducible across
  processes.  Codes are stable (pure function of key arrival order).
* :meth:`CountMinSketch.process_weighted` is the vectorized lane: one
  :func:`~repro.core.sketches.kernels.row_hashes` pass computes every
  row's cells for a whole pre-aggregated ``(codes, weights)`` chunk and
  lands them with ``np.add.at`` (plain mode, commutative hence exactly
  the scalar result) or collision-free grouped scatter-max
  (conservative mode, bit-exact vs the sequential loop by
  construction).  The scalar :meth:`update` path is kept untouched as
  the differential reference.

:meth:`widen` grows the advertised error bound monotonically, which
the one-table backend uses for unsynchronized band sharing.
"""

from __future__ import annotations

import collections
import math
import random
from typing import Dict, Iterable, List, Optional

import numpy as np

from repro.core.coding import SENTINEL_CODE, StreamCodec
from repro.core.counters import CounterEntry, Element
from repro.core.sketches.kernels import (
    MERSENNE_PRIME,
    collision_free_groups,
    row_hashes,
)
from repro.errors import ConfigurationError

_MERSENNE_PRIME = MERSENNE_PRIME
_MASK61 = (1 << 61) - 1


class _UniversalHash:
    """A 2-universal hash ``h(x) = ((a*x + b) mod p) mod width``.

    Hashes an ``int64`` *code* (see :class:`~repro.core.coding.
    StreamCodec`), never a Python object — builtin ``hash()`` of
    str/bytes depends on ``PYTHONHASHSEED`` and made sketch tables
    unreproducible across processes.
    """

    __slots__ = ("a", "b", "width")

    def __init__(self, rng: random.Random, width: int) -> None:
        self.a = rng.randrange(1, _MERSENNE_PRIME)
        self.b = rng.randrange(0, _MERSENNE_PRIME)
        self.width = width

    def __call__(self, code: int) -> int:
        x = code & _MASK61
        return ((self.a * x + self.b) % _MERSENNE_PRIME) % self.width


class CountMinSketch:
    """Count-Min sketch with an optional top-candidate tracker."""

    def __init__(
        self,
        epsilon: float = 0.001,
        delta: float = 0.01,
        conservative: bool = False,
        track_candidates: int = 0,
        seed: Optional[int] = None,
    ) -> None:
        if not 0 < epsilon < 1:
            raise ConfigurationError(f"epsilon must be in (0, 1), got {epsilon}")
        if not 0 < delta < 1:
            raise ConfigurationError(f"delta must be in (0, 1), got {delta}")
        if track_candidates < 0:
            raise ConfigurationError(
                f"track_candidates must be >= 0, got {track_candidates}"
            )
        self.epsilon = epsilon
        self.delta = delta
        self.seed = seed
        self.width = math.ceil(math.e / epsilon)
        self.depth = max(1, math.ceil(math.log(1.0 / delta)))
        self.conservative = conservative
        rng = random.Random(seed)
        self._hashes = [_UniversalHash(rng, self.width) for _ in range(self.depth)]
        # vectorized copies of the per-row hash parameters
        self._va = np.array([h.a for h in self._hashes], dtype=np.uint64)
        self._vb = np.array([h.b for h in self._hashes], dtype=np.uint64)
        self._table = np.zeros((self.depth, self.width), dtype=np.int64)
        self._processed = 0
        self._slack = 0
        self._track = track_candidates
        self._candidates: Dict[Element, int] = {}
        self.codec = StreamCodec()

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def process(self, element: Element) -> None:
        """Consume one stream element."""
        self.update(element, 1)

    def update(self, element: Element, count: int) -> None:
        """Add ``count`` occurrences of ``element`` (scalar reference path)."""
        if count < 1:
            raise ConfigurationError(f"count must be >= 1, got {count}")
        code = self.codec.encode_one(element)
        self.update_code(code, count)
        if self._track:
            self._note_candidate(element)

    def update_code(self, code: int, count: int) -> None:
        """Scalar update addressed by codec code (no candidate tracking)."""
        table = self._table
        cells = [h(code) for h in self._hashes]
        if self.conservative:
            target = min(
                int(table[row, cell]) for row, cell in enumerate(cells)
            ) + count
            for row, cell in enumerate(cells):
                if table[row, cell] < target:
                    table[row, cell] = target
        else:
            for row, cell in enumerate(cells):
                table[row, cell] += count
        self._processed += count

    def process_many(self, elements: Iterable[Element]) -> None:
        """Consume a whole iterable, one ``update`` per *distinct* element.

        Pre-aggregation (PR 1's fast lane, here via one ``Counter``
        pass) is equivalent to consuming the stream with equal elements
        grouped together: for a single element, ``update(e, k)`` equals
        ``k`` consecutive ``update(e, 1)`` calls in both plain and
        conservative modes, so only the interleaving *between* distinct
        elements is reordered — the same latitude
        ``SpaceSaving.process_many`` documents.
        """
        for element, count in collections.Counter(elements).items():
            self.update(element, count)

    def process_weighted(
        self, codes: np.ndarray, weights: np.ndarray
    ) -> None:
        """Vectorized lane: add a pre-aggregated ``(codes, weights)`` chunk.

        ``codes`` must come from :attr:`codec` (``encode_chunk`` /
        ``encode_one``) or be identity-coded ints — codes from a foreign
        codec would land non-integer keys in the wrong cells.  Candidate
        tracking is *not* performed here (the lane never sees keys);
        backends pair the sketch with a candidate tracker instead.

        Plain mode uses ``np.add.at`` per row — unbuffered scatter-add
        is commutative, so the table is *bit-identical* to the scalar
        path.  Conservative mode walks collision-free groups in order;
        within a group the gather-min/scatter-max two-phase update is
        exactly the sequential per-element result.
        """
        codes = np.ascontiguousarray(codes, dtype=np.int64)
        weights = np.ascontiguousarray(weights, dtype=np.int64)
        if codes.shape != weights.shape or codes.ndim != 1:
            raise ConfigurationError(
                "codes and weights must be aligned 1-d arrays, got "
                f"{codes.shape} vs {weights.shape}"
            )
        if not len(codes):
            return
        if weights.min() < 1:
            raise ConfigurationError("weights must all be >= 1")
        table = self._table
        cells = row_hashes(codes, self._va, self._vb, self.width)
        if self.conservative:
            for start, stop in collision_free_groups(cells):
                sub = cells[:, start:stop]
                readings = np.take_along_axis(table, sub, axis=1)
                targets = readings.min(axis=0) + weights[start:stop]
                # no intra-group duplicates per row, so fancy-index
                # assignment is well-defined
                np.put_along_axis(
                    table, sub, np.maximum(readings, targets), axis=1
                )
        else:
            for row in range(self.depth):
                np.add.at(table[row], cells[row], weights)
        self._processed += int(weights.sum())

    def _note_candidate(self, element: Element) -> None:
        estimate = self.estimate(element)
        candidates = self._candidates
        candidates[element] = estimate
        if len(candidates) > self._track:
            weakest = min(candidates, key=lambda e: (candidates[e], repr(e)))
            del candidates[weakest]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def processed(self) -> int:
        """Total count added to the sketch."""
        return self._processed

    @property
    def table(self) -> np.ndarray:
        """Read-only view of the ``(depth, width)`` counter table."""
        view = self._table.view()
        view.flags.writeable = False
        return view

    def estimate(self, element: Element) -> int:
        """Point estimate: row-wise minimum (overcounts by <= eps*N whp)."""
        code = self.codec.peek(element)
        if code is None:
            code = SENTINEL_CODE
        return self.estimate_code(code)

    def estimate_code(self, code: int) -> int:
        """Point estimate addressed by codec code."""
        table = self._table
        return min(
            int(table[row, h(code)]) for row, h in enumerate(self._hashes)
        )

    def error_bound(self) -> int:
        """Additive overcount bound: ``ceil(eps * N)`` plus any widening.

        Holds per element with probability ``1 - delta``; :meth:`widen`
        (merge staleness, one-table band sharing) only ever grows it.
        """
        return math.ceil(self.epsilon * self._processed) + self._slack

    def entries(self) -> List[CounterEntry]:
        """Tracked candidates sorted by descending estimate.

        Empty unless ``track_candidates`` was set — a pure sketch cannot
        enumerate elements, which is exactly why the paper's applications
        prefer counter-based techniques.
        """
        ordered = sorted(
            self._candidates, key=lambda e: (-self.estimate(e), repr(e))
        )
        return [CounterEntry(e, self.estimate(e)) for e in ordered]

    def frequent(self, phi: float) -> List[CounterEntry]:
        """Tracked candidates whose estimate exceeds ``phi * N``."""
        if not 0 < phi < 1:
            raise ConfigurationError(f"phi must be in (0, 1), got {phi}")
        threshold = phi * self._processed
        return [entry for entry in self.entries() if entry.count > threshold]

    def top_k(self, k: int) -> List[CounterEntry]:
        """The ``k`` tracked candidates with the highest estimates."""
        if k < 1:
            raise ConfigurationError(f"k must be >= 1, got {k}")
        return self.entries()[:k]

    # ------------------------------------------------------------------
    # Error-bound widening
    # ------------------------------------------------------------------
    def widen(self, slack: int) -> None:
        """Grow the reported error bound by ``slack`` (never shrinks).

        Used by the one-table backend for unsynchronized band sharing
        and by bounded-staleness snapshots: the table itself is
        untouched, only the advertised +/- interval widens.
        """
        if slack < 0:
            raise ConfigurationError(f"slack must be >= 0, got {slack}")
        self._slack += slack
