"""SPIG construction — Algorithm 2 (``SpigConstruct``).

Construction proceeds level by level from the new edge ``e_ℓ`` (a breadth-
first realisation of Algorithm 2's vertex queue): level k holds every
isomorphism class of connected k-edge subgraphs of the current query fragment
that contain ``e_ℓ``.

Fragment Lists are *inherited*, never recomputed from scratch (the heart of
Algorithm 2, lines 6-13): a NIF vertex ``g`` collects

* ``Φ(g)`` — the ``a2fId`` of every frequent largest proper subgraph, and
* ``Υ(g)`` — the ``a2iId`` of every DIF subgraph, via the closure
  ``Υ(g) = ⋃_w (Υ(w) ∪ {difId(w)})`` over the connected (|g|−1)-subgraphs
  ``w`` of ``g``

where each ``w`` is found in O(1) through the manager's global
edge-set → vertex map: subgraphs containing ``e_ℓ`` are lower levels of the
SPIG under construction, the subgraph without ``e_ℓ`` lives in an earlier SPIG
(Algorithm 2, lines 9-11).  The closure is complete because every connected
proper subgraph of ``g`` extends, inside ``g``, to a connected
(|g|−1)-subgraph.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, FrozenSet, Set

from repro.exceptions import SpigError
from repro.graph.canonical import canonical_code
from repro.index.builder import ActionAwareIndexes
from repro.obs.metrics import count
from repro.obs.tracer import timed
from repro.query_graph import VisualQuery
from repro.spig.spig import SPIG, FragmentList, SpigVertex

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.spig.manager import SpigManager


def _connected_edge_subset(query: VisualQuery, edge_set: FrozenSet[int]) -> bool:
    return query.edge_subgraph_by_ids(edge_set).is_connected()


def _compute_fragment_list(
    vertex: SpigVertex,
    edge_set: FrozenSet[int],
    query: VisualQuery,
    manager: "SpigManager",
    indexes: ActionAwareIndexes,
) -> FragmentList:
    """Definition 4's Fragment List for a freshly created vertex."""
    freq_id = indexes.a2f.lookup(vertex.code)
    if freq_id is not None:
        return FragmentList(freq_id=freq_id)
    dif_id = indexes.a2i.lookup(vertex.code)
    if dif_id is not None:
        return FragmentList(dif_id=dif_id)
    if len(edge_set) == 1:
        # A single edge outside both indexes carries a label that never
        # occurs in the database: provably unmatched (the A2I-index holds
        # every in-universe label pair, including support-0 ones).
        return FragmentList(dead=True)
    phi: Set[int] = set()
    upsilon: Set[int] = set()
    dead = False
    for eid in edge_set:
        sub = edge_set - {eid}
        if not _connected_edge_subset(query, sub):
            continue
        w = manager.vertex_for(sub)
        if w is None:
            raise SpigError(
                f"missing SPIG vertex for subgraph {sorted(sub)}; "
                "SPIGs were not maintained for every formulation step"
            )
        fl = w.fragment_list
        dead = dead or fl.dead
        if fl.freq_id is not None:
            phi.add(fl.freq_id)
        if fl.dif_id is not None:
            upsilon.add(fl.dif_id)
        upsilon |= fl.upsilon
    return FragmentList(phi=frozenset(phi), upsilon=frozenset(upsilon), dead=dead)


def build_spig(
    query: VisualQuery,
    new_edge_id: int,
    manager: "SpigManager",
    indexes: ActionAwareIndexes,
    dedup: bool = True,
) -> SPIG:
    """Algorithm 2: build ``S_ℓ`` for the new edge and register its vertices.

    ``dedup=False`` keeps one vertex per edge-subset (no canonical-code
    merging) — the ablation configuration.
    """
    if new_edge_id not in query.edge_id_set():
        raise SpigError(f"edge {new_edge_id} is not part of the query")
    spig = SPIG(new_edge_id, dedup=dedup)
    level_sets: Set[FrozenSet[int]] = {frozenset({new_edge_id})}
    level = 1
    with timed("spig.construct", edge=new_edge_id) as region:
        while level_sets:
            # Deterministic order keeps vertex positions stable across runs.
            for edge_set in sorted(level_sets, key=sorted):
                fragment = query.edge_subgraph_by_ids(edge_set)
                code = canonical_code(fragment)
                vertex, created = spig.get_or_create(level, code, fragment)
                vertex.edge_sets.add(edge_set)
                manager.register(edge_set, vertex)
                if created:
                    count("spig.vertices.created")
                    vertex.fragment_list = _compute_fragment_list(
                        vertex, edge_set, query, manager, indexes
                    )
                # Parent links inside S_ℓ: (level−1)-subsets still
                # containing e_ℓ.
                if level > 1:
                    for eid in edge_set:
                        if eid == new_edge_id:
                            continue
                        sub = edge_set - {eid}
                        if not _connected_edge_subset(query, sub):
                            continue
                        parent = manager.vertex_for(sub)
                        if parent is None or parent.spig_id != new_edge_id:
                            continue
                        parent.children.add(vertex)
                        vertex.parents.add(parent)
            # Expand to the next level through edges adjacent to each subset.
            next_sets: Set[FrozenSet[int]] = set()
            for edge_set in level_sets:
                for eid in query.adjacent_edge_ids(edge_set):
                    next_sets.add(edge_set | {eid})
            level_sets = next_sets
            level += 1
        region.set(vertices=spig.num_vertices, levels=level - 1)
    spig.construct_seconds = region.seconds
    return spig
