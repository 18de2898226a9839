"""The Space Saving algorithm (Metwally, Agrawal, El Abbadi, TODS 2006).

Space Saving monitors at most ``m = ceil(1/epsilon)`` counters.  For each
stream element (Algorithm 1 of the paper):

* if the element is monitored, increment its counter
  (``IncrementCounter``);
* else if fewer than ``m`` elements are monitored, start monitoring it
  with count 1 (``AddElementToBucket``);
* else *overwrite* the minimum-frequency element: the new element takes
  count ``min + 1`` and records ``min`` as its error (``Overwrite``).

Guarantees (all property-tested in ``tests/core``):

* ``estimate(e) >= true_count(e)`` — never underestimates;
* ``estimate(e) - error(e) <= true_count(e)``;
* ``min_freq <= N / m`` so the per-element error is at most ``eps * N``;
* every element with true count > ``N / m`` is monitored (no false
  negatives for frequent elements);
* exact counts when the alphabet fits in ``m`` counters.
"""

from __future__ import annotations

import collections
import itertools
import math
import operator
from typing import Iterable, List, Optional, Tuple

from repro.core.counters import CounterEntry, Element
from repro.core.stream_summary import StreamSummary
from repro.errors import ConfigurationError
from repro.obs.registry import MetricsRegistry, coerce
from repro.obs.tracing import Tracer, coerce_tracer


class SpaceSaving:
    """Sequential Space Saving over a :class:`StreamSummary`.

    Construct with an explicit counter budget (``capacity``) or an error
    bound (``epsilon``, giving ``capacity = ceil(1/epsilon)``).

    Updates take one of four lanes: :meth:`process` / :meth:`process_bulk`
    per call; :meth:`process_many`, which pre-aggregates a chunk that
    cannot evict and otherwise runs Algorithm 1 once per element; and
    :meth:`process_weighted` for pre-aggregated pairs.

    ``metrics`` optionally attaches a :class:`~repro.obs.registry.
    MetricsRegistry`; the instance then counts its Algorithm 1
    operations (``core.spacesaving.increments`` / ``inserts`` /
    ``overwrites``), consumed occurrences, and increments landing in the
    minimum bucket.  An operation is one per occurrence in the
    per-element and evicting lanes, one per distinct key or pair in the
    pre-aggregated and weighted ones.  Metrics are observation-only —
    enabling them never changes any count (pinned by
    ``tests/obs/test_differential.py``).

    ``tracer`` optionally attaches a :class:`~repro.obs.tracing.Tracer`;
    each lane then records a span per call / chunk
    (``lane.per-element`` / ``lane.preaggregated`` / ``lane.fused`` /
    ``lane.weighted``), so a timeline shows which lane served which part
    of the stream.  Tracing is observation-only too (pinned by
    ``tests/obs/test_trace_differential.py``).
    """

    def __init__(
        self,
        capacity: Optional[int] = None,
        epsilon: Optional[float] = None,
        *,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if (capacity is None) == (epsilon is None):
            raise ConfigurationError(
                "provide exactly one of capacity or epsilon"
            )
        if capacity is None:
            if not 0 < epsilon < 1:
                raise ConfigurationError(
                    f"epsilon must be in (0, 1), got {epsilon}"
                )
            capacity = math.ceil(1.0 / epsilon)
        if capacity < 1:
            raise ConfigurationError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.summary = StreamSummary()
        self._processed = 0
        # Bound metric objects are cached once; with the default
        # NullRegistry they are shared no-op singletons, so the hot
        # paths below pay one no-op call when metrics are disabled.
        self.metrics = coerce(metrics)
        self._m_occurrences = self.metrics.counter(
            "core.spacesaving.occurrences"
        )
        self._m_increments = self.metrics.counter(
            "core.spacesaving.increments"
        )
        self._m_inserts = self.metrics.counter("core.spacesaving.inserts")
        self._m_overwrites = self.metrics.counter(
            "core.spacesaving.overwrites"
        )
        self._m_min_hits = self.metrics.counter(
            "core.spacesaving.min_bucket_hits"
        )
        # With the default NullTracer every lane pays one attribute read
        # plus one (class-constant) truth check when tracing is off.
        self.tracer = coerce_tracer(tracer)

    def bind_tracer(self, tracer: Optional[Tracer]) -> None:
        """Attach (or detach, with ``None``) a span tracer."""
        self.tracer = coerce_tracer(tracer)

    @classmethod
    def from_entries(
        cls,
        capacity: int,
        entries: Iterable[CounterEntry],
        processed: int,
    ) -> "SpaceSaving":
        """Build a summary directly from counter entries.

        Used by the merge of the Independent Structures design: the merged
        (element, count, error) triples become a regular queryable
        ``SpaceSaving``.  At most ``capacity`` entries (the largest by
        count) are retained; ties at the truncation boundary are broken
        deterministically (by element, then error) so the kept set does
        not depend on the iteration order of the caller's entries.
        """
        instance = cls(capacity=capacity)
        kept = list(entries)
        if len(kept) > capacity:
            kept = sorted(
                kept, key=lambda e: (-e.count, str(e.element), e.error)
            )[:capacity]
        # ascending bulk build: each row joins the current max bucket or
        # appends a new one, so the whole construction is O(n log n) in
        # the sort and O(1) per row — no bucket-list walk per entry
        instance.summary.build_ascending(
            (entry.element, entry.count, entry.error)
            for entry in sorted(kept, key=lambda e: e.count)
        )
        instance._processed = processed
        return instance

    def reset(self) -> None:
        """Forget everything (fresh summary, zero processed count).

        Used by designs that flush local caches into a global structure
        (the §4.4 Hybrid).
        """
        self.summary = StreamSummary()
        self._processed = 0

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def process(self, element: Element) -> None:
        """Consume one stream element (Algorithm 1)."""
        self.process_bulk(element, 1)

    def process_bulk(self, element: Element, count: int) -> None:
        """Consume ``count`` occurrences of ``element`` at once.

        Bulk processing is the CoTS framework's key amortization; the
        sequential algorithm supports it too, and the semantics match
        processing ``count`` singletons back-to-back.
        """
        if count < 1:
            raise ConfigurationError(f"count must be >= 1, got {count}")
        tracer = self.tracer
        if tracer.enabled:
            trace_start = tracer.now()
        summary = self.summary
        node = summary._nodes.get(element)
        if node is not None:
            if node.bucket is summary._min:
                self._m_min_hits.inc()
            self._m_increments.inc()
            summary.increment_node(node, count)
        elif len(summary) < self.capacity:
            self._m_inserts.inc()
            summary.insert(element, count=count, error=0)
        else:
            self._m_overwrites.inc()
            min_freq = summary.min_freq
            summary.evict_min()
            summary.insert(element, count=min_freq + count, error=min_freq)
        self._m_occurrences.inc(count)
        self._processed += count
        if tracer.enabled:
            tracer.add_span(
                "spacesaving", "lane.per-element", "core",
                trace_start, tracer.now(), {"count": count},
            )

    #: elements per pre-aggregated chunk of :meth:`process_many`
    BATCH_CHUNK = 4096

    def process_many(self, elements: Iterable[Element]) -> None:
        """Consume every element of an iterable through the batched lanes.

        The stream is consumed in chunks, each through one of two
        kernels.  When the chunk cannot trigger an eviction (its distinct
        unmonitored elements fit in the free counters) it is
        pre-aggregated with :class:`collections.Counter` and
        :meth:`_apply_pairs` applies one bulk update per distinct
        element, in *last-occurrence* order — the paper's §5.2.2
        amortization, one Stream Summary move covering many occurrences.
        Otherwise (always, once the summary is full and the chunk holds
        an unmonitored element) :meth:`_apply_elements` runs Algorithm 1
        once per element, overwrites reusing the evicted node in place.

        Both lanes are exactly equivalent to calling :meth:`process` per
        element: same estimates, errors, ``processed`` count, eviction
        victims and ordered :meth:`entries`; the evicting lane also
        counts the same Algorithm 1 operations.  Without evictions each
        element reaches its final bucket at its last occurrence, so bulk
        updates applied in last-occurrence order attach in the order the
        per-element loop does.  An element that raises (an unhashable
        one) stops the call with ``processed`` and the operation
        counters in step with what landed in the summary.
        """
        tracer = self.tracer
        iterator = iter(elements)
        while True:
            chunk = list(itertools.islice(iterator, self.BATCH_CHUNK))
            if not chunk:
                return
            if tracer.enabled:
                trace_start = tracer.now()
            args = {"elements": len(chunk)}
            if self._fits(chunk):
                # no eviction possible: bulk updates in last-occurrence
                # order land like the per-element loop
                lane = "lane.preaggregated"
                counts = collections.Counter(chunk)
                # each key as its first occurrence (the object the loop
                # inserts), by last occurrence: a repeated key keeps its
                # dict slot and takes the earlier value
                backwards = chunk[::-1]
                keys = list(dict(zip(backwards, backwards)).values())
                keys.reverse()
                args["distinct"] = len(keys)
                self._apply_pairs(zip(keys, map(counts.__getitem__, keys)))
                self._m_occurrences.inc(len(chunk))
                self._processed += len(chunk)
            else:
                lane = "lane.fused"
                self._apply_elements(chunk)
            if tracer.enabled:
                tracer.add_span(
                    "spacesaving", lane, "core",
                    trace_start, tracer.now(), args,
                )

    def _fits(self, chunk: List[Element]) -> bool:
        """Whether ``chunk`` cannot evict: its distinct unmonitored
        elements fit in the free counters.  Stops at the first element
        past the free count, so a full summary stops at the first
        unmonitored element."""
        nodes = self.summary._nodes
        free = self.capacity - len(nodes)
        unseen = set()
        for element in itertools.filterfalse(nodes.__contains__, chunk):
            unseen.add(element)
            if len(unseen) > free:
                return False
        return True

    def _apply_elements(self, chunk: List[Element]) -> None:
        """The evicting kernel: Algorithm 1 once per element of ``chunk``.

        A monitored element moves up by one; an unmonitored one takes a
        free slot, or else *overwrites in place*: the minimum bucket's
        head node (the victim :meth:`StreamSummary.evict_min` would
        pick) is re-keyed to the new element with error ``min``, then
        moved up by one like a monitored node.  The victim and every
        bucket's node order match evict-then-insert, so the reuse saves
        the node allocation and bucket walk without changing any answer.

        The loop keeps no per-element tally but the minimum-bucket hits
        and the overwrites.  Every element raises the summary's total by
        one, so the total, ``processed`` and the
        ``core.spacesaving.occurrences`` counter rise by ``len(chunk)``,
        and the increments are the elements that neither inserted nor
        overwrote.  When an element raises, the elements before it have
        landed: only then is the landed count recounted, from the
        buckets.
        """
        summary = self.summary
        nodes = summary._nodes
        get = nodes.get
        capacity = self.capacity
        monitored = len(nodes)
        total = summary._total
        landed = len(chunk)
        min_hits = overwrites = 0
        try:
            for element in chunk:
                node = get(element)
                if node is not None:
                    source = node.bucket
                    if source is summary._min:
                        min_hits += 1
                elif len(nodes) < capacity:
                    summary.insert(element)
                    continue
                else:
                    overwrites += 1
                    source = summary._min
                    node = source.head
                    del nodes[node.element]
                    node.element = element
                    node.error = source.freq
                    nodes[element] = node
                # inlined fast lanes of StreamSummary.increment_node
                target_freq = source.freq + 1
                nxt = source.next
                if source.size == 1:
                    if nxt is None or nxt.freq > target_freq:
                        # alone and nothing in the way: bump in place
                        source.freq = target_freq
                        continue
                elif nxt is not None and nxt.freq == target_freq:
                    # move to the tail of the next bucket; the source
                    # keeps at least one node
                    before = node.prev
                    after = node.next
                    if before is None:
                        source.head = after
                    else:
                        before.next = after
                    if after is None:
                        source.tail = before
                    else:
                        after.prev = before
                    source.size -= 1
                    tail = nxt.tail
                    tail.next = node
                    node.prev = tail
                    node.next = None
                    node.bucket = nxt
                    nxt.tail = node
                    nxt.size += 1
                    continue
                summary.increment_node(node)
        except BaseException:
            landed = sum(
                bucket.freq * bucket.size for bucket in summary.buckets()
            ) - total
            raise
        finally:
            summary._total = total + landed
            inserts = len(nodes) - monitored
            self._m_increments.inc(landed - inserts - overwrites)
            self._m_inserts.inc(inserts)
            self._m_overwrites.inc(overwrites)
            self._m_min_hits.inc(min_hits)
            self._m_occurrences.inc(landed)
            self._processed += landed

    def _apply_pairs(self, pairs: Iterable[Tuple[Element, int]]) -> None:
        """The weighted kernel: Algorithm 1 for ``(element, weight)``
        pairs whose weights the caller has checked to be >= 1.

        Each pair is exactly equivalent to ``weight`` consecutive
        occurrences of ``element``: a monitored element moves up by
        ``weight``; an unmonitored one takes a free slot at ``weight``,
        or else overwrites the minimum in place (as in
        :meth:`_apply_elements`) and moves up by ``weight``.  The
        ``core.spacesaving.occurrences`` counter and ``processed`` are
        the caller's to update.
        """
        summary = self.summary
        nodes = summary._nodes
        get = nodes.get
        capacity = self.capacity
        monitored = len(nodes)
        # operation counts and the fast lanes' share of the summary's
        # total are kept in locals and published once per call
        moved = increments = min_hits = overwrites = 0
        try:
            for element, weight in pairs:
                node = get(element)
                if node is not None:
                    source = node.bucket
                    if source is summary._min:
                        min_hits += 1
                    increments += 1
                elif len(nodes) < capacity:
                    summary.insert(element, count=weight, error=0)
                    continue
                else:
                    overwrites += 1
                    source = summary._min
                    node = source.head
                    del nodes[node.element]
                    node.element = element
                    node.error = source.freq
                    nodes[element] = node
                # inlined fast lanes of StreamSummary.increment_node
                target_freq = source.freq + weight
                nxt = source.next
                if source.size == 1:
                    if nxt is None or nxt.freq > target_freq:
                        # alone and nothing in the way: bump in place
                        source.freq = target_freq
                        moved += weight
                        continue
                elif nxt is not None and nxt.freq == target_freq:
                    # move to the tail of the next bucket; the source
                    # keeps at least one node
                    before = node.prev
                    after = node.next
                    if before is None:
                        source.head = after
                    else:
                        before.next = after
                    if after is None:
                        source.tail = before
                    else:
                        after.prev = before
                    source.size -= 1
                    tail = nxt.tail
                    tail.next = node
                    node.prev = tail
                    node.next = None
                    node.bucket = nxt
                    nxt.tail = node
                    nxt.size += 1
                    moved += weight
                    continue
                summary.increment_node(node, weight)
        finally:
            summary._total += moved
            self._m_increments.inc(increments)
            self._m_inserts.inc(len(nodes) - monitored)
            self._m_overwrites.inc(overwrites)
            self._m_min_hits.inc(min_hits)

    def process_weighted(
        self, pairs: Iterable[Tuple[Element, int]]
    ) -> None:
        """Consume pre-aggregated ``(element, weight)`` pairs.

        The batched form of :meth:`process_bulk`: each pair is exactly
        equivalent to ``weight`` consecutive occurrences of ``element``
        (increment by ``weight`` when monitored, insert at ``weight``
        when a slot is free, otherwise overwrite the minimum in place at
        ``min + weight`` with error ``min``; see :meth:`_apply_pairs`).
        This is the worker-side lane of the multiprocess shared-memory
        transport, whose parent pre-aggregates every dispatch chunk into
        distinct pairs — the loop runs once per *distinct* element, not
        once per occurrence.  A weight below 1 raises
        :class:`~repro.errors.ConfigurationError` naming the first bad
        pair, before any pair lands.  An element that raises (an
        unhashable one) leaves the pairs before it counted, ``processed``
        included.
        """
        tracer = self.tracer
        if tracer.enabled:
            trace_start = tracer.now()
        pairs = list(pairs)
        if pairs and min(pairs, key=operator.itemgetter(1))[1] < 1:
            element, weight = next(pair for pair in pairs if pair[1] < 1)
            raise ConfigurationError(
                f"weight must be >= 1, got {weight} for {element!r}"
            )
        before = self.summary._total
        try:
            self._apply_pairs(pairs)
        finally:
            # what landed, also when an unhashable element stops the pairs
            total = self.summary._total - before
            self._m_occurrences.inc(total)
            self._processed += total
        if tracer.enabled:
            tracer.add_span(
                "spacesaving", "lane.weighted", "core",
                trace_start, tracer.now(),
                {"occurrences": total, "distinct": len(pairs)},
            )

    # ------------------------------------------------------------------
    # Queries (the operator surface used by Section 3.2's query model)
    # ------------------------------------------------------------------
    @property
    def processed(self) -> int:
        """Number of stream occurrences consumed so far."""
        return self._processed

    def __len__(self) -> int:
        return len(self.summary)

    def __contains__(self, element: Element) -> bool:
        return element in self.summary

    def estimate(self, element: Element) -> int:
        """Estimated frequency (an upper bound on the true frequency)."""
        return self.summary.count(element)

    def error(self, element: Element) -> int:
        """Maximum over-estimation for ``element`` (0 if not monitored)."""
        node = self.summary.node(element)
        return node.error if node is not None else 0

    def entries(self) -> List[CounterEntry]:
        """Monitored elements sorted by descending estimated count."""
        return self.summary.entries()

    def is_frequent(self, element: Element, phi: float) -> bool:
        """Point query: is ``element`` frequent at support ``phi``?

        True iff the estimated count exceeds ``phi * N`` — the same
        phi-fraction semantics as ``answer(PointFrequentQuery)`` and
        :meth:`frequent`.  For an absolute-count comparison use
        :meth:`exceeds_count`.
        """
        if not 0 < phi < 1:
            raise ConfigurationError(f"phi must be in (0, 1), got {phi}")
        return self.estimate(element) > phi * self._processed

    def exceeds_count(self, element: Element, threshold: float) -> bool:
        """Point query: is the estimated count above the absolute
        ``threshold``?  (The old ``is_frequent`` semantics, renamed.)"""
        return self.estimate(element) > threshold

    def frequent(self, phi: float) -> List[CounterEntry]:
        """Set query: elements with estimated count > ``phi * N``.

        May contain false positives (count inflated by at most the error)
        but never misses a truly frequent element, provided
        ``phi >= 1 / capacity``.
        """
        if not 0 < phi < 1:
            raise ConfigurationError(f"phi must be in (0, 1), got {phi}")
        return self.summary.descending(above=phi * self._processed)

    def guaranteed_frequent(self, phi: float) -> List[CounterEntry]:
        """Elements *guaranteed* frequent: ``count - error > phi * N``."""
        threshold = phi * self._processed
        return [
            entry for entry in self.frequent(phi) if entry.guaranteed > threshold
        ]

    def top_k(self, k: int) -> List[CounterEntry]:
        """The ``k`` elements with the highest estimated counts."""
        if k < 1:
            raise ConfigurationError(f"k must be >= 1, got {k}")
        return self.summary.descending(limit=k)

    def kth_frequency(self, k: int) -> int:
        """Estimated frequency of the k-th most frequent element (0 if < k)."""
        entries = self.top_k(k)
        if len(entries) < k:
            return 0
        return entries[-1].count

    def is_in_top_k(self, element: Element, k: int) -> bool:
        """Point query: is ``element`` among the top-k (by estimate)?"""
        estimate = self.estimate(element)
        if estimate == 0:
            return False
        return estimate >= self.kth_frequency(k)

    # ------------------------------------------------------------------
    # Bounds
    # ------------------------------------------------------------------
    @property
    def epsilon(self) -> float:
        """The error bound implied by the counter budget (``1/capacity``)."""
        return 1.0 / self.capacity

    def max_error(self) -> int:
        """Upper bound on any element's over-estimation (= min bucket freq
        once the structure is full, 0 before)."""
        if len(self.summary) < self.capacity:
            return 0
        return self.summary.min_freq

    def counts(self) -> List[Tuple[Element, int]]:
        """(element, estimate) pairs sorted by descending estimate."""
        return [(entry.element, entry.count) for entry in self.entries()]
