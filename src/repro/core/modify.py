"""Query modification — Algorithm 6 (QueryModification).

Two entry points (Section VII):

* ``suggest_deletion`` — when ``Rq`` became empty and the user asked to
  modify, PRAGUE recommends the edge whose removal yields the *largest*
  non-empty candidate set.  The paper matches each ``q − e_i`` against the
  ``|q′|``-th SPIG level by CAM-code graph isomorphism; our manager's global
  edge-set → vertex map performs the identical lookup in O(1).

* ``apply_deletion`` — delete a chosen edge (suggested or not), prune the
  SPIG set (drop ``S_d``; drop every edge-set, and every emptied vertex, that
  used ``e_d``), leaving exactly the state a fresh formulation of the reduced
  query would have produced — which is why modification costs the paper
  reports are "virtually zero" compared to GBLENDER's full recomputation.

Only single-edge deletions that keep the query connected are permitted; node
relabeling is expressible as deletions plus re-insertions (paper, footnote 5).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import FrozenSet, Iterable, List, Optional, Set

from repro.core.candidates import bits_of, count, ids_of
from repro.core.exact import exact_sub_candidates_bits
from repro.exceptions import QueryError
from repro.index.builder import ActionAwareIndexes
from repro.obs.histogram import observe
from repro.obs.tracer import span
from repro.query_graph import VisualQuery
from repro.spig.manager import SpigManager


@dataclass(frozen=True)
class DeletionSuggestion:
    """The recommended edge to delete and the candidate set it restores."""

    edge_id: int
    candidates: FrozenSet[int]


def deletable_edges(query: VisualQuery) -> List[int]:
    """Edges whose removal keeps the query fragment connected (or empties it)."""
    out: List[int] = []
    ids = query.edge_id_set()
    if len(ids) == 1:
        return sorted(ids)
    for eid in sorted(ids):
        rest = ids - {eid}
        if query.edge_subgraph_by_ids(rest).is_connected():
            out.append(eid)
    return out


def suggest_deletion(
    query: VisualQuery,
    manager: SpigManager,
    indexes: ActionAwareIndexes,
    db_ids: FrozenSet[int],
) -> Optional[DeletionSuggestion]:
    """Algorithm 6, lines 3-8: the deletion restoring the most candidates."""
    start = time.perf_counter()
    try:
        return _suggest_deletion(query, manager, indexes, db_ids)
    finally:
        observe("modify.suggest", time.perf_counter() - start)


def _suggest_deletion(
    query: VisualQuery,
    manager: SpigManager,
    indexes: ActionAwareIndexes,
    db_ids: FrozenSet[int],
) -> Optional[DeletionSuggestion]:
    ids = query.edge_id_set()
    with span("modify.suggest", edges=len(ids)) as sp:
        # Compare modification deltas by popcount; materialise ids once, for
        # the winner only.
        db_bits = bits_of(db_ids)
        best_eid: Optional[int] = None
        best_mask = 0
        best_count = -1
        for eid in deletable_edges(query):
            rest = ids - {eid}
            if not rest:
                continue
            vertex = manager.vertex_for(rest)
            if vertex is None:
                continue  # cannot happen with per-step SPIG maintenance
            mask = exact_sub_candidates_bits(vertex, indexes, db_bits)
            mask_count = count(mask)
            if best_eid is None or mask_count > best_count:
                best_eid, best_mask, best_count = eid, mask, mask_count
        if best_eid is None:
            return None
        sp.set(suggested=best_eid, restored=best_count)
        return DeletionSuggestion(
            edge_id=best_eid, candidates=ids_of(best_mask)
        )


def apply_deletion(
    query: VisualQuery, manager: SpigManager, edge_id: int
) -> None:
    """Algorithm 6, lines 11-14: delete ``e_d`` and prune the SPIG set."""
    if edge_id not in query.edge_id_set():
        raise QueryError(f"edge {edge_id} is not part of the query")
    query.delete_edge(edge_id)  # validates connectivity
    manager.on_delete_edge(edge_id)


def apply_multi_deletion(
    query: VisualQuery, manager: SpigManager, edge_ids: Iterable[int]
) -> List[int]:
    """Delete several edges in one gesture (the paper's "trivial" extension).

    Deletions are applied in an order that keeps the fragment connected at
    every intermediate step; if no such order exists (the removal would split
    the query), nothing is deleted and :class:`QueryError` is raised.
    Returns the order actually applied.
    """
    targets = set(edge_ids)
    unknown = targets - set(query.edge_id_set())
    if unknown:
        raise QueryError(f"edges {sorted(unknown)} are not part of the query")
    if targets == set(query.edge_id_set()):
        order = sorted(targets, reverse=True)
    else:
        remaining_graph = query.edge_subgraph_by_ids(
            query.edge_id_set() - targets
        )
        if remaining_graph.num_edges and not remaining_graph.is_connected():
            raise QueryError(
                "deleting these edges would disconnect the query (Section VII)"
            )
        order = _safe_deletion_order(query, targets)
        if order is None:
            raise QueryError(
                "deleting these edges would disconnect the query (Section VII)"
            )
    applied: List[int] = []
    for eid in order:
        query.remove_edge_unchecked(eid)  # end state validated above
        manager.on_delete_edge(eid)
        applied.append(eid)
    return applied


def _safe_deletion_order(
    query: VisualQuery, targets: Set[int]
) -> Optional[List[int]]:
    """An order over ``targets`` with every intermediate fragment connected."""
    order: List[int] = []
    probe = query.copy()
    pending = set(targets)
    while pending:
        for eid in sorted(pending):
            rest = probe.edge_id_set() - {eid}
            if not rest or probe.edge_subgraph_by_ids(rest).is_connected():
                probe.delete_edge(eid)
                order.append(eid)
                pending.discard(eid)
                break
        else:
            return None
    return order


def relabel_node(
    query: VisualQuery,
    manager: SpigManager,
    node: object,
    new_label: str,
) -> List[int]:
    """Node relabeling via the paper's footnote 5 decomposition.

    "Node relabeling can be expressed as deletion of edge(s) following by
    insertion of new edge(s) and node": every edge incident to ``node`` is
    deleted (SPIG set pruned accordingly), a fresh node with ``new_label``
    takes its place, and the edges are re-drawn — each getting a new
    formulation id and a freshly built SPIG.  Returns the new edge ids.

    Only legal when the query stays connected throughout, which for interior
    nodes means the re-insertion restores connectivity at the end; as in the
    GUI, the whole gesture is atomic (applied on a probe first).
    """
    incident = [
        (eid, *query.edge(eid)[:2], query.edge(eid)[2])
        for eid in query.edge_ids()
        if node in query.edge(eid)[:2]
    ]
    if not incident:
        raise QueryError(f"node {node!r} has no incident edges")
    survivors = query.edge_id_set() - {eid for eid, *_ in incident}
    if survivors:
        if not query.edge_subgraph_by_ids(survivors).is_connected():
            raise QueryError(
                "relabeling this node would transiently disconnect the query"
            )
    # Delete the incident edges; the gesture is atomic, so transiently
    # disconnected intermediates are fine (the end state was checked above).
    for eid, *_ in sorted(incident, reverse=True):
        query.remove_edge_unchecked(eid)
        manager.on_delete_edge(eid)
    fresh = query.fresh_node_id(node)
    query.add_node(fresh, new_label)
    # Re-insert edges anchored in the surviving fragment first so every
    # prefix stays connected (the per-step GUI invariant).
    survivor_nodes: Set[object] = set()
    for eid in survivors:
        u, v, _ = query.edge(eid)
        survivor_nodes.update((u, v))
    def anchored_last(item) -> bool:
        _eid, u, v, _elabel = item
        touches_survivors = u in survivor_nodes or v in survivor_nodes
        return bool(survivor_nodes) and not touches_survivors

    ordered = sorted(incident, key=anchored_last)
    new_ids: List[int] = []
    for _eid, u, v, elabel in ordered:
        a = fresh if u == node else u
        b = fresh if v == node else v
        new_id = query.add_edge(a, b, elabel)
        manager.on_new_edge(query, new_id)
        new_ids.append(new_id)
    return new_ids
