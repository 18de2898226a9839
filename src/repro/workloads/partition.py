"""Partitioning a stream across parallel threads.

The parallel schemes split the input among ``p`` threads.  The paper's
designs implicitly use contiguous partitions of the buffered input
(:func:`block_partition`); :func:`chunked` cuts a stream into batches
for streaming dispatch.
"""

from __future__ import annotations

import itertools
from typing import Hashable, Iterable, Iterator, List, Sequence, TypeVar

from repro.errors import StreamError

T = TypeVar("T", bound=Hashable)


def block_partition(stream: Sequence[T], parts: int) -> List[List[T]]:
    """Contiguous chunks of (nearly) equal size; order preserved."""
    if parts < 1:
        raise StreamError(f"parts must be >= 1, got {parts}")
    # Slicing a list already yields a fresh list; only non-list
    # sequences (tuples, strings, arrays) need the list() conversion.
    need_copy = not isinstance(stream, list)
    length = len(stream)
    base, extra = divmod(length, parts)
    result: List[List[T]] = []
    start = 0
    for index in range(parts):
        size = base + (1 if index < extra else 0)
        chunk = stream[start : start + size]
        result.append(list(chunk) if need_copy else chunk)
        start += size
    return result


def chunked(iterable: Iterable[T], size: int) -> Iterator[List[T]]:
    """Yield successive lists of at most ``size`` elements.

    Iterator-friendly (the input is consumed lazily, never materialized
    whole), so it suits streaming dispatch: the multiprocess backend
    reads one chunk at a time, routes it to worker shards, and moves on.
    The final chunk may be shorter; an empty input yields nothing.
    """
    if size < 1:
        raise StreamError(f"size must be >= 1, got {size}")
    iterator = iter(iterable)
    while True:
        chunk = list(itertools.islice(iterator, size))
        if not chunk:
            return
        yield chunk
