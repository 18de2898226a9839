"""Stable key <-> ``int64`` coding shared by sketches and data planes.

Born in the mp data plane (PR 6) as the shared vocabulary behind the
shm rings, the codec now also backs the sketch hot paths: hashing a
*code* instead of the builtin ``hash(element)`` makes sketch tables
reproducible across processes (builtin ``hash`` of str/bytes is salted
by ``PYTHONHASHSEED``), and pre-aggregated ``(codes, weights)`` arrays
are what the vectorized kernels consume.  It lives in ``core`` so both
``core.sketches`` and ``mp`` can import it without a layering cycle;
:mod:`repro.mp.shm` re-exports it for backward compatibility.

Coding is two-lane: keys that *are* (or compare equal to) machine-size
ints are coded as ``key << 1`` (even codes, no dictionary, fully
vectorizable), every other key gets a vocabulary index coded
``(index << 1) | 1`` (odd codes).  Vocabulary assignment is
dict-insertion-ordered — a pure function of the key arrival order,
never of ``PYTHONHASHSEED`` — so two processes coding the same stream
produce identical codes.
"""

from __future__ import annotations

import collections
from typing import Hashable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

#: identity-coded ints must survive ``key << 1`` inside int64
INT_CODE_BOUND = 1 << 62

#: query-time stand-in for a key the codec has never seen.  Odd codes
#: are non-negative and identity codes are even, so ``-1`` collides with
#: no real code; estimating it is safe (a fresh key's true count is 0
#: and Count-Min never underestimates).
SENTINEL_CODE = -1


def _int_code(key: Hashable) -> Optional[int]:
    """Identity code of the machine-size int ``key`` equals, else None.

    ``1.0``, ``True`` and ``numpy.int64(1)`` compare and hash equal to
    ``1``, so under dict semantics they *are* key ``1`` and must share
    its even code instead of taking a vocabulary slot of their own.
    """
    if isinstance(key, (str, bytes, tuple)):
        return None
    try:
        value = int(key)
    except (TypeError, ValueError, OverflowError):
        return None
    if value == key and -INT_CODE_BOUND < value < INT_CODE_BOUND:
        return value << 1
    return None


class StreamCodec:
    """Parent-owned key <-> int64 code mapping (the shared vocabulary).

    Even codes are machine-size ints coded as themselves (``key << 1``);
    odd codes index the vocabulary list (``(index << 1) | 1``).  The
    split keeps the overwhelmingly common integer-stream case free of
    any per-key dictionary work while arbitrary hashable keys still
    round-trip exactly.
    """

    __slots__ = ("_codes", "_rev")

    def __init__(self) -> None:
        self._codes: dict = {}
        self._rev: List[Hashable] = []

    @property
    def vocab_size(self) -> int:
        """Distinct non-integer keys registered so far."""
        return len(self._rev)

    def encode_chunk(
        self, chunk: Sequence[Hashable]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Pre-aggregate one chunk into distinct ``(codes, weights)``.

        Returns two aligned ``int64`` arrays: each distinct element of
        ``chunk`` appears once with its occurrence count.  Applying the
        pairs in order is equivalent to consuming the chunk with equal
        elements grouped together.  That reorders the chunk, so unlike
        ``SpaceSaving.process_many`` (exact per element) the summary it
        feeds depends on where the chunk boundaries fall.
        """
        if not len(chunk):
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        if type(chunk[0]) is not int:
            # cheap pre-filter: don't pay numpy dtype inference for
            # streams that obviously aren't integer-keyed
            return self._encode_counter(chunk)
        try:
            # Element inference is the fast-lane gate: a plain int list
            # infers an integer dtype, anything else (floats, strings,
            # objects, tuple keys -> ndim != 1, huge ints -> OverflowError)
            # drops to the Counter lane.
            arr = np.asarray(chunk)
        except (ValueError, OverflowError):
            return self._encode_counter(chunk)
        kind = arr.dtype.kind
        if arr.ndim == 1 and (
            kind == "i" or (kind == "u" and arr.dtype.itemsize <= 4)
        ):
            codes = arr.astype(np.int64, copy=False)
            if (
                arr.dtype.itemsize <= 4
                or kind == "u"
                or (
                    int(codes.min()) > -INT_CODE_BOUND
                    and int(codes.max()) < INT_CODE_BOUND
                )
            ):
                values, weights = np.unique(codes, return_counts=True)
                return values << 1, weights
        return self._encode_counter(chunk)

    def _encode_counter(
        self, chunk: Sequence[Hashable]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Slow lane: one Counter pass, then per-distinct-key coding."""
        counts = collections.Counter(chunk)
        codes = np.empty(len(counts), dtype=np.int64)
        weights = np.empty(len(counts), dtype=np.int64)
        lookup = self._codes
        rev = self._rev
        for slot, (key, count) in enumerate(counts.items()):
            code = lookup.get(key)
            if code is None:
                code = _int_code(key)
                if code is None:
                    code = (len(rev) << 1) | 1
                    rev.append(key)
                lookup[key] = code
            codes[slot] = code
            weights[slot] = count
        return codes, weights

    def encode_one(self, key: Hashable) -> int:
        """Code for a single key, registering it if new (scalar lane)."""
        if type(key) is int and -INT_CODE_BOUND < key < INT_CODE_BOUND:
            return key << 1
        code = self._codes.get(key)
        if code is None:
            code = _int_code(key)
            if code is not None:
                return code
            code = (len(self._rev) << 1) | 1
            self._rev.append(key)
            self._codes[key] = code
        return code

    def peek(self, key: Hashable) -> Optional[int]:
        """Code for a key *without* registering it; None if unknown.

        Query paths use this so estimating a never-ingested key does not
        grow the vocabulary.
        """
        if type(key) is int and -INT_CODE_BOUND < key < INT_CODE_BOUND:
            return key << 1
        code = self._codes.get(key)
        return _int_code(key) if code is None else code

    def decode(self, code: int) -> Hashable:
        """The key behind one code (exact inverse of encoding)."""
        if code & 1:
            return self._rev[code >> 1]
        return code >> 1

    def decode_entries(
        self, entries: Iterable[Tuple[int, int, int]]
    ) -> List[Tuple[Hashable, int, int]]:
        """Decode a shard snapshot's ``(code, count, error)`` triples."""
        decode = self.decode
        return [(decode(code), count, error) for code, count, error in entries]

    def aligned_with(self, other: "StreamCodec") -> bool:
        """True when one vocabulary is a prefix of the other.

        Two codecs whose vocabularies agree on their common prefix
        assign the *same* code to every key either has seen — the
        compatibility condition for merging sketches that coded their
        streams independently.  Identity-coded ints are always aligned.
        """
        short, long = (
            (self._rev, other._rev)
            if len(self._rev) <= len(other._rev)
            else (other._rev, self._rev)
        )
        return long[: len(short)] == short

    def clone(self) -> "StreamCodec":
        """Deep copy (merged sketches get an independent vocabulary)."""
        twin = StreamCodec()
        twin._codes = dict(self._codes)
        twin._rev = list(self._rev)
        return twin
