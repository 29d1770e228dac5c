"""Exact substructure candidate generation — Algorithm 3 (ExactSubCandidates).

Given the SPIG vertex of a query fragment:

* a frequent fragment's candidates are its exact FSG ids from the A2F-index;
* a DIF's candidates are its exact FSG ids from the A2I-index;
* a NIF intersects the FSG ids of its frequent largest-proper subgraphs (Φ)
  and of all its DIF subgraphs (Υ) — a superset of the true answer that the
  final *Run* verification filters.

Emptiness of the returned set is *sound*: an empty ``Rq`` proves the fragment
has no exact match in the database (the trigger for PRAGUE's modify/similar
option dialogue).

The FSG-id lists cover the graphs the indexes were built (or incrementally
maintained) over, ids ``0 .. indexes.db_size - 1``.  A graph appended with a
bare ``db.add()`` has a larger id that no list mentions, so every candidate
set also carries those *appended* ids: nothing proves they do not match.

The Φ/Υ intersection runs on int bitmasks (:mod:`repro.core.candidates`) —
graph ids are dense, so each AND is word-parallel — ordered smallest
candidate list first with an early exit on empty.
"""

from __future__ import annotations

from typing import FrozenSet

from repro.core.candidates import bits_of, ids_of, intersect_all
from repro.graph.database import GraphDatabase
from repro.index.builder import ActionAwareIndexes
from repro.spig.spig import SpigVertex


def exact_sub_candidates(
    vertex: SpigVertex,
    indexes: ActionAwareIndexes,
    db_ids: FrozenSet[int],
) -> FrozenSet[int]:
    """``Rq`` for the fragment represented by ``vertex``.

    The frozenset form of :func:`exact_sub_candidates_bits`.  A fragment
    without index information returns ``db_ids`` itself, and while no graph
    was appended an indexed fragment returns the index's cached FSG
    frozenset, so neither case unpacks a bitmask.
    """
    fl = vertex.fragment_list
    if not (fl.dead or fl.is_indexed or fl.phi or fl.upsilon):
        # Fragment larger than the mining bound with no indexed subgraph
        # information at all — no pruning is possible.
        return db_ids
    if len(db_ids) <= indexes.db_size:  # dense ids: nothing was appended
        if fl.dead:
            return frozenset()
        if fl.freq_id is not None:
            return indexes.a2f.fsg_ids(fl.freq_id)
        if fl.dif_id is not None:
            return indexes.a2i.fsg_ids(fl.dif_id)
    return ids_of(exact_sub_candidates_bits(vertex, indexes, bits_of(db_ids)))


def appended_bits(indexes: ActionAwareIndexes, db_bits: int) -> int:
    """The ids of ``db_bits`` the indexes never saw: those at or above
    ``indexes.db_size``."""
    return db_bits >> indexes.db_size << indexes.db_size


def exact_sub_candidates_bits(
    vertex: SpigVertex,
    indexes: ActionAwareIndexes,
    db_bits: int,
) -> int:
    """``Rq`` as an int bitmask — the word-parallel form of Algorithm 3.

    ``db_bits`` is the all-graphs mask (``full_mask(len(db))``): the answer
    when no index information applies, and the source of the appended ids
    every other answer includes.
    """
    fl = vertex.fragment_list
    appended = appended_bits(indexes, db_bits)
    if fl.dead:
        # The fragment uses a label absent from the indexed graphs.
        return appended
    if fl.freq_id is not None:
        return indexes.a2f.fsg_bits(fl.freq_id) | appended
    if fl.dif_id is not None:
        return indexes.a2i.fsg_bits(fl.dif_id) | appended
    if not fl.phi and not fl.upsilon:
        return db_bits
    return _phi_upsilon_bits(vertex, indexes, db_bits) | appended


def _phi_upsilon_bits(
    vertex: SpigVertex, indexes: ActionAwareIndexes, db_bits: int
) -> int:
    fl = vertex.fragment_list
    masks = [indexes.a2f.fsg_bits(a2f_id) for a2f_id in fl.phi]
    masks += [indexes.a2i.fsg_bits(a2i_id) for a2i_id in fl.upsilon]
    return intersect_all(masks, db_bits)


def is_verification_free(
    vertex: SpigVertex, indexes: ActionAwareIndexes, db: GraphDatabase
) -> bool:
    """Whether ``vertex``'s ``Rq`` is already the exact answer.

    True when the fragment is itself indexed (Algorithm 1, line 18) and the
    indexes cover the whole database; an appended graph in ``Rq`` still needs
    its VF2 test.
    """
    return vertex.fragment_list.is_indexed and indexes.db_size == len(db)
