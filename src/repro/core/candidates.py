"""Bitset candidate sets — word-parallel ``Rq``/``Rfree``/``Rver`` algebra.

Data-graph ids are dense ``0..|D|-1`` (the database assigns them by append),
so a candidate set is representable as a Python ``int`` bitmask with bit
``gid`` set.  Intersections and unions — the inner loop of Algorithm 3's Φ/Υ
probes, Algorithm 4's per-level buckets and Algorithm 6's deletion deltas —
become single ``&``/``|`` ops over machine words instead of O(n) hashed-set
walks.  It is the one candidate algebra: every candidate set the engine
computes is computed here.

The module is the conversion boundary: everything outside ``repro.core`` (and
the A2F/A2I ``fsg_bits`` shims) keeps speaking ``frozenset``/``set`` of ids;
callers convert once at the edges with :func:`bits_of`/:func:`ids_of`.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Iterator

from repro.obs.metrics import count as _metric_count

Bits = int


def bits_of(ids: Iterable[int]) -> Bits:
    """Pack an iterable of dense graph ids into a bitmask."""
    mask = 0
    for gid in ids:
        mask |= 1 << gid
    return mask


def ids_of(mask: Bits) -> FrozenSet[int]:
    """Unpack a bitmask into the frozenset of set bit positions."""
    return frozenset(iter_ids(mask))


def iter_ids(mask: Bits) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def count(mask: Bits) -> int:
    """Population count — ``len()`` of the candidate set."""
    return mask.bit_count()


def full_mask(n: int) -> Bits:
    """The candidate set ``{0, …, n-1}`` (all graphs of a database of size n)."""
    return (1 << n) - 1


def intersect_all(masks: Iterable[Bits], universe: Bits = 0) -> Bits:
    """AND-fold, smallest-popcount first, with an early exit on empty.

    Ordering by popcount keeps intermediate results small.

    ``universe`` is the neutral element of the fold: an intersection over
    *zero* constraint sets leaves every graph a candidate, so callers pass
    the all-graphs mask (``full_mask(len(db))``).  An empty fold returning the
    empty set would silently turn "no pruning information" into "provably
    no match" — the exact-candidate emptiness test is load-bearing
    (it triggers PRAGUE's option dialogue), so the distinction matters.
    """
    _metric_count("candidates.intersections")
    ordered = sorted(masks, key=count)
    if not ordered:
        return universe
    out = ordered[0]
    for mask in ordered[1:]:
        out &= mask
        if not out:
            return 0
    return out
