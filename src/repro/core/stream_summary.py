"""The Stream Summary structure (Demaine et al.; Metwally et al.).

A doubly-linked list of *frequency buckets*, each holding the set of
monitored elements that currently share the bucket's frequency (Figure 2
of the paper).  The structure keeps elements sorted by frequency at O(1)
cost per increment: bumping an element by one either moves it to the
neighbouring bucket (if its frequency matches) or splices in a new bucket
between the two.

This sequential version is used by :class:`~repro.core.space_saving.
SpaceSaving` and by each local structure of the Independent Structures
scheme; the CoTS framework uses its own concurrent variant
(:mod:`repro.cots.summary`).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.core.counters import CounterEntry, Element
from repro.errors import ReproError


class SummaryNode:
    """One monitored element: its count, error and owning bucket."""

    __slots__ = ("element", "error", "bucket", "prev", "next")

    def __init__(self, element: Element, error: int = 0) -> None:
        self.element = element
        self.error = error
        self.bucket: Optional["SummaryBucket"] = None
        self.prev: Optional["SummaryNode"] = None
        self.next: Optional["SummaryNode"] = None

    @property
    def count(self) -> int:
        """The element's current estimated frequency (= bucket frequency)."""
        if self.bucket is None:
            raise ReproError(f"node for {self.element!r} is detached")
        return self.bucket.freq

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        freq = self.bucket.freq if self.bucket is not None else None
        return f"SummaryNode({self.element!r}, count={freq}, err={self.error})"


class SummaryBucket:
    """A frequency bucket: an intrusive list of nodes sharing one count."""

    __slots__ = ("freq", "head", "tail", "size", "prev", "next")

    def __init__(self, freq: int) -> None:
        self.freq = freq
        self.head: Optional[SummaryNode] = None
        self.tail: Optional[SummaryNode] = None
        self.size = 0
        self.prev: Optional["SummaryBucket"] = None  # lower frequency
        self.next: Optional["SummaryBucket"] = None  # higher frequency

    def attach(self, node: SummaryNode) -> None:
        """Append ``node`` to this bucket."""
        node.bucket = self
        node.prev = self.tail
        node.next = None
        if self.tail is not None:
            self.tail.next = node
        self.tail = node
        if self.head is None:
            self.head = node
        self.size += 1

    def detach(self, node: SummaryNode) -> None:
        """Remove ``node`` from this bucket."""
        if node.bucket is not self:
            raise ReproError(
                f"node {node.element!r} is not in bucket freq={self.freq}"
            )
        if node.prev is not None:
            node.prev.next = node.next
        else:
            self.head = node.next
        if node.next is not None:
            node.next.prev = node.prev
        else:
            self.tail = node.prev
        node.prev = node.next = None
        node.bucket = None
        self.size -= 1

    def nodes(self) -> Iterator[SummaryNode]:
        """Iterate the bucket's nodes in insertion order."""
        node = self.head
        while node is not None:
            # capture next before the caller might detach the node
            following = node.next
            yield node
            node = following

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SummaryBucket(freq={self.freq}, size={self.size})"


class StreamSummary:
    """Doubly-linked bucket list keeping elements sorted by frequency.

    All mutating operations are O(1) for unit increments; ``increment``
    with a larger ``by`` (bulk increments, needed when adapting CoTS
    semantics or when merging) walks forward past at most the number of
    distinct frequencies skipped.
    """

    def __init__(self) -> None:
        self._nodes: Dict[Element, SummaryNode] = {}
        self._min: Optional[SummaryBucket] = None
        self._max: Optional[SummaryBucket] = None
        self._total = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, element: Element) -> bool:
        return element in self._nodes

    @property
    def total_count(self) -> int:
        """Sum of all monitored counts (equals N when |A| fits)."""
        return self._total

    @property
    def min_freq(self) -> int:
        """Frequency of the minimum bucket (0 when empty)."""
        return self._min.freq if self._min is not None else 0

    @property
    def max_freq(self) -> int:
        """Frequency of the maximum bucket (0 when empty)."""
        return self._max.freq if self._max is not None else 0

    def node(self, element: Element) -> Optional[SummaryNode]:
        """Return the node monitoring ``element``, or None."""
        return self._nodes.get(element)

    def count(self, element: Element) -> int:
        """Estimated frequency of ``element`` (0 if not monitored)."""
        node = self._nodes.get(element)
        return node.count if node is not None else 0

    def buckets(self) -> Iterator[SummaryBucket]:
        """Iterate buckets in ascending frequency order."""
        bucket = self._min
        while bucket is not None:
            following = bucket.next
            yield bucket
            bucket = following

    def buckets_desc(self) -> Iterator[SummaryBucket]:
        """Iterate buckets in descending frequency order (query order)."""
        bucket = self._max
        while bucket is not None:
            preceding = bucket.prev
            yield bucket
            bucket = preceding

    def entries(self) -> List[CounterEntry]:
        """All monitored elements, sorted by descending count."""
        return self.descending()

    def descending(
        self, limit: Optional[int] = None, above: Optional[float] = None
    ) -> List[CounterEntry]:
        """Monitored elements by descending count, walked down from the
        maximum bucket (within a bucket, in insertion order).

        The walk stops after ``limit`` rows, or at the first bucket whose
        frequency is at or below ``above``, so a top-k or frequent read
        costs the rows it returns, not one per counter (§3.2's query
        model).  With neither bound it returns every monitored element.
        """
        result: List[CounterEntry] = []
        append = result.append
        remaining = len(self._nodes) if limit is None else limit
        floor = 0 if above is None else above   # every frequency is >= 1
        bucket = self._max
        while bucket is not None and remaining > 0 and bucket.freq > floor:
            freq = bucket.freq
            node = bucket.head
            while node is not None:
                append(CounterEntry(node.element, freq, node.error))
                remaining -= 1
                if not remaining:
                    return result
                node = node.next
            bucket = bucket.prev
        return result

    def min_node(self) -> Optional[SummaryNode]:
        """Any node in the minimum-frequency bucket (overwrite victim)."""
        if self._min is None:
            return None
        return self._min.head

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def insert(
        self,
        element: Element,
        count: int = 1,
        error: int = 0,
        hint: Optional[SummaryBucket] = None,
    ) -> SummaryNode:
        """Start monitoring ``element`` with the given count and error.

        ``hint`` must be a live bucket with frequency <= ``count`` (the
        bucket search walks forward from it instead of from the
        minimum).  Bulk builders inserting in ascending count order pass
        the previous insert's bucket and get O(1) placement instead of
        a full bucket-list walk per entry.
        """
        if element in self._nodes:
            raise ReproError(f"element {element!r} already monitored")
        if count < 1:
            raise ReproError(f"count must be >= 1, got {count}")
        node = SummaryNode(element, error=error)
        self._nodes[element] = node
        bucket = self._bucket_at_or_insert(
            count, hint=hint if hint is not None else self._min
        )
        bucket.attach(node)
        self._total += count
        return node

    def build_ascending(self, triples) -> None:
        """Bulk-insert ``(element, count, error)`` rows pre-sorted by
        ascending count into an **empty or lower-frequency** summary.

        Every count must be >= the current maximum frequency (trivially
        true on a fresh summary), so each row either joins the current
        maximum bucket or appends a new one — no bucket search at all.
        The bulk builders behind merge/snapshot paths
        (:meth:`SpaceSaving.from_entries`) call this; ad-hoc inserts
        should keep using :meth:`insert`.
        """
        bucket = self._max
        for element, count, error in triples:
            if element in self._nodes:
                raise ReproError(f"element {element!r} already monitored")
            if count < 1:
                raise ReproError(f"count must be >= 1, got {count}")
            if bucket is not None and count < bucket.freq:
                raise ReproError(
                    "build_ascending rows must be sorted by ascending "
                    f"count (got {count} after {bucket.freq})"
                )
            node = SummaryNode(element, error=error)
            self._nodes[element] = node
            if bucket is None:
                bucket = SummaryBucket(count)
                self._min = self._max = bucket
            elif count > bucket.freq:
                following = SummaryBucket(count)
                following.prev = bucket
                bucket.next = following
                self._max = following
                bucket = following
            bucket.attach(node)
            self._total += count

    def increment(self, element: Element, by: int = 1) -> SummaryNode:
        """Raise ``element``'s count by ``by``, keeping the sort order."""
        node = self._nodes.get(element)
        if node is None:
            raise ReproError(f"element {element!r} is not monitored")
        if by < 1:
            raise ReproError(f"increment must be >= 1, got {by}")
        return self.increment_node(node, by)

    def increment_node(self, node: SummaryNode, by: int = 1) -> SummaryNode:
        """Raise ``node``'s count by ``by`` (caller pre-validated inputs).

        Two fast lanes cover the common cases under skew before falling
        back to the general bucket walk:

        * the node is alone in its bucket and no bucket exists at the
          target frequency — bump the bucket's frequency in place (no
          detach, splice or allocation);
        * the neighbouring bucket already sits at exactly ``freq + by`` —
          move the node straight across without searching.
        """
        source = node.bucket
        target_freq = source.freq + by
        nxt = source.next
        if source.size == 1:
            if nxt is None or nxt.freq > target_freq:
                source.freq = target_freq
                self._total += by
                return node
        elif nxt is not None and nxt.freq == target_freq:
            source.detach(node)
            nxt.attach(node)
            self._total += by
            return node
        source.detach(node)
        target = self._bucket_at_or_insert(target_freq, hint=source)
        target.attach(node)
        if source.size == 0:
            self._remove_bucket(source)
        self._total += by
        return node

    def evict_min(self) -> SummaryNode:
        """Remove and return one element from the minimum bucket."""
        victim = self.min_node()
        if victim is None:
            raise ReproError("summary is empty; nothing to evict")
        bucket = victim.bucket
        bucket.detach(victim)
        self._total -= bucket.freq
        if bucket.size == 0:
            self._remove_bucket(bucket)
        del self._nodes[victim.element]
        return victim

    def remove(self, element: Element) -> SummaryNode:
        """Stop monitoring ``element`` and return its node."""
        node = self._nodes.pop(element, None)
        if node is None:
            raise ReproError(f"element {element!r} is not monitored")
        bucket = node.bucket
        bucket.detach(node)
        self._total -= bucket.freq
        if bucket.size == 0:
            self._remove_bucket(bucket)
        return node

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _bucket_at_or_insert(
        self, freq: int, hint: Optional[SummaryBucket]
    ) -> SummaryBucket:
        """Find (or create) the bucket for ``freq``, walking from ``hint``.

        ``hint`` must be a bucket with frequency <= ``freq`` (or None when
        the list is empty / freq is below the minimum).
        """
        if self._min is None:
            bucket = SummaryBucket(freq)
            self._min = self._max = bucket
            return bucket
        if freq < self._min.freq:
            bucket = SummaryBucket(freq)
            bucket.next = self._min
            self._min.prev = bucket
            self._min = bucket
            return bucket
        cursor = hint if hint is not None and hint.freq <= freq else self._min
        while cursor.next is not None and cursor.next.freq <= freq:
            cursor = cursor.next
        if cursor.freq == freq:
            return cursor
        bucket = SummaryBucket(freq)
        bucket.prev = cursor
        bucket.next = cursor.next
        if cursor.next is not None:
            cursor.next.prev = bucket
        else:
            self._max = bucket
        cursor.next = bucket
        return bucket

    def _remove_bucket(self, bucket: SummaryBucket) -> None:
        if bucket.size != 0:
            raise ReproError(
                f"cannot remove non-empty bucket freq={bucket.freq}"
            )
        if bucket.prev is not None:
            bucket.prev.next = bucket.next
        else:
            self._min = bucket.next
        if bucket.next is not None:
            bucket.next.prev = bucket.prev
        else:
            self._max = bucket.prev

    # ------------------------------------------------------------------
    # Validation (used heavily by the test-suite)
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Raise :class:`ReproError` if any structural invariant is broken.

        Checks: strictly ascending bucket frequencies, consistent
        prev/next links, bucket sizes, node-bucket back pointers, the
        min/max pointers, and the cached total count.
        """
        seen = 0
        total = 0
        prev_bucket: Optional[SummaryBucket] = None
        bucket = self._min
        while bucket is not None:
            if bucket.prev is not prev_bucket:
                raise ReproError("broken prev link in bucket list")
            if prev_bucket is not None and bucket.freq <= prev_bucket.freq:
                raise ReproError(
                    f"bucket frequencies not ascending: "
                    f"{prev_bucket.freq} -> {bucket.freq}"
                )
            if bucket.size == 0:
                raise ReproError(f"empty bucket freq={bucket.freq} retained")
            count = 0
            for node in bucket.nodes():
                if node.bucket is not bucket:
                    raise ReproError(
                        f"node {node.element!r} has a stale bucket pointer"
                    )
                if self._nodes.get(node.element) is not node:
                    raise ReproError(
                        f"node {node.element!r} missing from the index"
                    )
                count += 1
            if count != bucket.size:
                raise ReproError(
                    f"bucket freq={bucket.freq} size {bucket.size} != {count}"
                )
            seen += count
            total += count * bucket.freq
            prev_bucket = bucket
            bucket = bucket.next
        if prev_bucket is not self._max:
            raise ReproError("max pointer does not reach the last bucket")
        if seen != len(self._nodes):
            raise ReproError(
                f"index holds {len(self._nodes)} nodes but buckets hold {seen}"
            )
        if total != self._total:
            raise ReproError(
                f"cached total {self._total} != recomputed {total}"
            )

    def frequencies(self) -> List[Tuple[int, int]]:
        """(frequency, bucket size) pairs in ascending frequency order."""
        return [(bucket.freq, bucket.size) for bucket in self.buckets()]
