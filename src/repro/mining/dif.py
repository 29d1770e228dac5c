"""Discriminative infrequent fragment (DIF) mining.

A DIF (Section III) is an infrequent fragment whose proper connected subgraphs
are all frequent (or any infrequent single edge).  DIFs are the "smallest
witnesses of infrequency": every infrequent fragment contains a DIF, so the
A2I-index only needs DIFs to prune candidates for infrequent query fragments.

Generation is Apriori-style, which is complete for DIFs:

* level 1 — every labeled single edge over the database's label universes that
  is not frequent is a DIF (including never-occurring, support-0 edges, which
  are the strongest possible pruners);
* level k ≥ 2 — every DIF is a one-edge extension of one of its (k−1)-edge
  connected subgraphs, all of which are frequent; so extending each frequent
  fragment by (a) an edge between two existing non-adjacent nodes or (b) a
  pendant node with any database label reaches every DIF.  Candidates are
  deduplicated by canonical code (the first parent in catalog order wins) and
  minimality is checked against the frequent catalog.

A candidate's exact ``fsgIds`` are read off gSpan's projected database:
the miner keeps every embedding of each frequent fragment ``f``, so
``f + e`` occurs in a graph iff some embedding of ``f`` there extends by
``e`` (:attr:`repro.mining.gspan.GSpanMiner.extension_supports`) — no
isomorphism test at all.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.graph.canonical import CanonicalCode, canonical_code
from repro.graph.database import GraphDatabase
from repro.graph.labeled_graph import Graph
from repro.mining.fragments import Fragment, FragmentCatalog
from repro.mining.gspan import (
    ExtensionKey,
    ExtensionSupports,
    GSpanMiner,
    LabelTriple,
)


def _single_edge_graph(la: str, le: str, lb: str) -> Graph:
    g = Graph()
    g.add_node(0, la)
    g.add_node(1, lb)
    g.add_edge(0, 1, le if le else None)
    return g


def _one_edge_extensions(
    f: Graph,
    node_labels: Sequence[str],
    edge_labels: Sequence[Optional[str]],
    frequent_triples: Set[LabelTriple],
) -> Iterable[Tuple[ExtensionKey, Graph]]:
    """All graphs obtained from ``f`` by adding exactly one edge whose label
    triple is frequent, each with the
    :data:`~repro.mining.gspan.ExtensionKey` of the edge it adds.

    An extension whose new edge is itself an infrequent single-edge fragment
    contains an infrequent proper subgraph and can never be a DIF (k ≥ 2);
    skipping those prunes the bulk of the Apriori candidate space.
    """

    def triple_ok(la: str, el: str, lb: str) -> bool:
        if la > lb:
            la, lb = lb, la
        return (la, el, lb) in frequent_triples

    nodes = list(f.nodes())
    # (a) close an edge between two existing, non-adjacent nodes.
    for i, u in enumerate(nodes):
        for v in nodes[i + 1 :]:
            if f.has_edge(u, v):
                continue
            lv = f.label(v)
            for el in edge_labels:
                norm = "" if el is None else el
                if not triple_ok(f.label(u), norm, lv):
                    continue
                g = f.copy()
                g.add_edge(u, v, el)
                yield (u, v, norm, lv), g
    # (b) attach a new pendant node with any database label.
    new_id = max((n for n in nodes if isinstance(n, int)), default=-1) + 1
    for u in nodes:
        for label in node_labels:
            for el in edge_labels:
                norm = "" if el is None else el
                if not triple_ok(f.label(u), norm, label):
                    continue
                g = f.copy()
                g.add_node(new_id, label)
                g.add_edge(u, new_id, el)
                yield (u, new_id, norm, label), g


def connected_one_smaller_subgraphs(g: Graph) -> List[Graph]:
    """All connected fragments of ``g`` with one edge fewer.

    Removing an edge may isolate a degree-1 endpoint, which is then dropped
    (fragments have no dangling nodes — Section III).  Removals that truly
    disconnect the graph do not yield fragments.
    """
    out: List[Graph] = []
    for u, v in list(g.edges()):
        h = g.copy()
        h.remove_edge(u, v)
        for node in (u, v):
            if h.degree(node) == 0:
                h.remove_node(node)
        if h.num_nodes > 0 and h.is_connected() and h.num_edges >= 1:
            out.append(h)
    return out


def dif_level1(
    min_support_abs: int,
    node_labels: Sequence[str],
    edge_labels: Sequence[Optional[str]],
    supports: Dict[LabelTriple, Set[int]],
) -> FragmentCatalog:
    """Level-1 DIFs: every infrequent labeled single edge over the universes.

    ``supports`` is the database's single-edge support map
    (:func:`repro.mining.gspan.single_edge_supports`, also kept by the miner
    as :attr:`~repro.mining.gspan.GSpanMiner.edge_supports`).
    """
    difs: FragmentCatalog = {}
    for la in node_labels:
        for lb in node_labels:
            if la > lb:
                continue
            for el in edge_labels:
                key = (la, "" if el is None else el, lb)
                fsg = frozenset(supports.get(key, set()))
                if len(fsg) >= min_support_abs:
                    continue
                g = _single_edge_graph(*key)
                code = canonical_code(g)
                difs[code] = Fragment(code=code, graph=g, fsg_ids=fsg)
    return difs


def dif_extensions(
    frequent: FragmentCatalog,
    extension_supports: Dict[CanonicalCode, ExtensionSupports],
    max_edges: int,
    node_labels: Sequence[str],
    edge_labels: Sequence[Optional[str]],
    frequent_triples: Set[LabelTriple],
) -> FragmentCatalog:
    """Level ≥ 2 DIFs: the one-edge extensions of the frequent fragments.

    ``frequent`` is the complete frequent catalog (minimality checks read
    it) and ``extension_supports`` the miner's record of which graphs
    realize each below-threshold extension
    (:attr:`~repro.mining.gspan.GSpanMiner.extension_supports`); an
    extension it does not list occurs in no graph.  Candidates reached from
    several parents are kept once, from the first parent in catalog order.
    """
    difs: FragmentCatalog = {}
    seen: Set[CanonicalCode] = set()
    for code, frag in frequent.items():
        if frag.size >= max_edges:
            continue  # extension would exceed the indexable size
        realized = extension_supports[code]
        for key, candidate in _one_edge_extensions(
            frag.graph, node_labels, edge_labels, frequent_triples
        ):
            cand_code = canonical_code(candidate)
            if cand_code in seen or cand_code in frequent:
                continue
            seen.add(cand_code)
            if not all(
                canonical_code(s) in frequent
                for s in connected_one_smaller_subgraphs(candidate)
            ):
                continue  # some subgraph infrequent -> candidate is a NIF
            # A fresh empty set per DIF: shared objects would shrink the
            # pickled size accounting (pickle memoizes repeated objects).
            fsg = realized.get(key) or frozenset()
            difs[cand_code] = Fragment(
                code=cand_code, graph=candidate, fsg_ids=fsg
            )
    return difs


def mine_catalogs(
    db: GraphDatabase, min_support_abs: int, max_edges: int
) -> Tuple[FragmentCatalog, FragmentCatalog]:
    """Mine ``(frequent, difs)`` up to ``max_edges`` edges in one pass.

    One gSpan run yields the frequent catalog, the single-edge supports
    (level-1 DIFs) and every extension's support (levels ≥ 2), so DIF
    mining runs no subgraph-isomorphism test.
    """
    miner = GSpanMiner(db, min_support_abs, max_edges)
    frequent = miner.mine()
    node_labels = list(db.node_label_universe())
    edge_labels = list(db.edge_label_universe())
    supports = miner.edge_supports

    # Level 1: infrequent single edges over the label universes.
    difs = dif_level1(min_support_abs, node_labels, edge_labels, supports)

    # Levels >= 2: one-edge extensions of frequent fragments.  Extensions
    # adding an infrequent single edge are pruned inside the generator —
    # they would contain an infrequent proper subgraph.
    frequent_triples: Set[LabelTriple] = {
        key for key, ids in supports.items() if len(ids) >= min_support_abs
    }
    difs.update(
        dif_extensions(
            frequent, miner.extension_supports, max_edges,
            node_labels, edge_labels, frequent_triples,
        )
    )
    return frequent, difs
