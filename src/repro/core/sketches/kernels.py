"""Vectorized NumPy kernels shared by the sketch hot paths.

The scalar sketches hash one element at a time with the 2-universal
``h(x) = ((a * x + b) mod p) mod width`` over the Mersenne prime
``p = 2^61 - 1``.  The batched lanes (``process_weighted``) need the
same function over a whole ``int64`` code array at once — but
``a * x`` is a ~122-bit product, far beyond ``uint64``, so a naive
numpy expression silently wraps.  :func:`row_hashes` computes the exact
residue with schoolbook 32-bit limb splitting plus Mersenne folding
(``2^61 ≡ 1 (mod p)`` turns every overflow shift into a cheap rotate),
so the vectorized lane lands in *precisely* the same cells as the
scalar path — pinned by the differential tests in
``tests/core/test_sketch_vectorized.py``.

:func:`collision_free_groups` supports the conservative-update lane:
conservative Count-Min is order-dependent when two batch elements share
a cell, so the batch is split into maximal prefixes in which no row
maps two elements to one cell.  Within such a group the two-phase
gather/scatter update is *exactly* the sequential result, and applying
groups in order preserves the scalar semantics bit-for-bit.
"""

from __future__ import annotations

from typing import Iterator, Tuple

import numpy as np

#: the Mersenne prime 2^61 - 1 used by every sketch hash
MERSENNE_PRIME = (1 << 61) - 1

_P = np.uint64(MERSENNE_PRIME)
_MASK32 = np.uint64(0xFFFFFFFF)
_MASK29 = np.uint64((1 << 29) - 1)
_U61 = np.uint64(61)
_U32 = np.uint64(32)
_U29 = np.uint64(29)
_U8 = np.uint64(8)


def _mod_p(values: np.ndarray) -> np.ndarray:
    """Exact ``values mod p`` for any ``uint64`` input (vectorized).

    Two Mersenne folds bring any 64-bit value under ``2^61 + 7``; the
    final conditional subtraction lands in ``[0, p)``.
    """
    values = (values >> _U61) + (values & _P)
    values = (values >> _U61) + (values & _P)
    return np.where(values >= _P, values - _P, values)


def row_hashes(
    codes: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    width: int,
) -> np.ndarray:
    """``((a_r * x + b_r) mod p) mod width`` for every row r and code x.

    ``codes`` is any integer array (masked to 61 bits exactly like the
    scalar path's ``code & (2^61 - 1)``; two's-complement masking keeps
    negative codes consistent with Python's ``&``).  ``a``/``b`` are the
    per-row ``uint64`` hash parameters.  Returns a ``(depth, n)``
    ``intp`` array of cell indices.

    The 122-bit product is split into 32-bit limbs::

        a*x = a_hi*x_hi*2^64 + (a_hi*x_lo + a_lo*x_hi)*2^32 + a_lo*x_lo

    and each term is reduced with ``2^61 ≡ 1``: the ``2^64`` term
    becomes ``* 8``, the ``2^32`` term a 29/32-bit rotate.  Every
    intermediate stays below ``2^64``, so ``uint64`` arithmetic is exact.
    """
    x = codes.astype(np.uint64) & _P
    x_hi = x >> _U32
    x_lo = x & _MASK32
    a = a.astype(np.uint64).reshape(-1, 1)
    b = b.astype(np.uint64).reshape(-1, 1)
    a_hi = a >> _U32
    a_lo = a & _MASK32
    # high limb: a_hi*x_hi < 2^58, and 2^64 ≡ 8 (mod p) => * 8 < 2^61
    high = (a_hi * x_hi) * _U8
    # middle limbs: sum < 2^62, reduce then rotate by 32 bits
    mid = _mod_p(a_hi * x_lo + a_lo * x_hi)
    mid = ((mid & _MASK29) << _U32) + (mid >> _U29)
    # low limb: a_lo*x_lo < 2^64 exactly fits uint64
    low = _mod_p(a_lo * x_lo)
    total = _mod_p(high + mid + low + b)
    return (total % np.uint64(width)).astype(np.intp)


def collision_free_groups(
    cells: np.ndarray,
) -> Iterator[Tuple[int, int]]:
    """Split a batch into order-preserving groups with no shared cells.

    ``cells`` is the ``(depth, n)`` cell-index matrix of one batch.
    Yields ``(start, stop)`` prefixes such that within each group no two
    batch positions map to the same cell of the same row — the exact
    condition under which a gather/min/scatter conservative update is
    indistinguishable from the sequential per-element loop.  Progress is
    guaranteed: a single element can never collide with itself, so every
    group is non-empty.
    """
    n = cells.shape[1]
    start = 0
    while start < n:
        stop = n
        for row in cells:
            segment = row[start:stop]
            if len(segment) < 2:
                break
            order = np.argsort(segment, kind="stable")
            ranked = segment[order]
            duplicate = ranked[1:] == ranked[:-1]
            if duplicate.any():
                # the *later* original position of each colliding pair is
                # where sequential semantics first diverge; cut before
                # the earliest such position
                later = np.maximum(order[1:][duplicate], order[:-1][duplicate])
                stop = min(stop, start + int(later.min()))
        yield start, stop
        start = stop
