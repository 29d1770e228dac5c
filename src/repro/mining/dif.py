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

A candidate's exact ``fsgIds`` come from one of two sources.  The serial
build (:func:`mine_catalogs`) reads them off gSpan's projected database:
the miner keeps every embedding of each frequent fragment ``f``, so
``f + e`` occurs in a graph iff some embedding of ``f`` there extends by
``e`` (:attr:`repro.mining.gspan.GSpanMiner.extension_supports`) — no
isomorphism test at all.  Callers that hold no global projections (the
sharded build's merge) use :func:`recount_support`, which verifies subgraph
isomorphism on the intersection of the frequent subgraphs' FSG lists.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.graph.canonical import CanonicalCode, canonical_code
from repro.graph.database import GraphDatabase
from repro.graph.isomorphism import is_subgraph_isomorphic
from repro.graph.labeled_graph import Graph
from repro.mining.fragments import Fragment, FragmentCatalog
from repro.mining.gspan import ExtensionKey, GSpanMiner, LabelTriple

#: ``support(parent_code, key, candidate, sub_codes)`` -> the candidate's
#: exact FSG ids; ``candidate`` is the parent fragment plus extension ``key``
#: and ``sub_codes`` the codes of its connected one-smaller subgraphs (all
#: frequent).
SupportFn = Callable[
    [CanonicalCode, ExtensionKey, Graph, List[CanonicalCode]], FrozenSet[int]
]


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
    frequent_triples: Optional[Set[LabelTriple]] = None,
) -> Iterable[Tuple[ExtensionKey, Graph]]:
    """All graphs obtained from ``f`` by adding exactly one edge, each with
    the :data:`~repro.mining.gspan.ExtensionKey` of the edge it adds.

    With ``frequent_triples`` given, extensions whose new edge is itself an
    infrequent single-edge fragment are skipped: such a candidate contains an
    infrequent proper subgraph and can never be a DIF (k ≥ 2).  This prunes
    the bulk of the Apriori candidate space.
    """

    def triple_ok(la: str, el: str, lb: str) -> bool:
        if frequent_triples is None:
            return True
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


def recount_support(db: GraphDatabase, frequent: FragmentCatalog) -> SupportFn:
    """Candidate support by subgraph-isomorphism tests on the intersection
    of its frequent subgraphs' FSG lists — for callers without projections."""

    def support(_parent, _key, candidate, sub_codes):
        candidate_ids: Optional[Set[int]] = None
        for sc in sub_codes:
            ids = frequent[sc].fsg_ids
            candidate_ids = set(ids) if candidate_ids is None else candidate_ids & ids
        assert candidate_ids is not None
        return frozenset(
            gid for gid in candidate_ids if is_subgraph_isomorphic(candidate, db[gid])
        )

    return support


def dif_extensions(
    frequent: FragmentCatalog,
    codes: Sequence[CanonicalCode],
    min_support_abs: int,
    max_edges: int,
    node_labels: Sequence[str],
    edge_labels: Sequence[Optional[str]],
    frequent_triples: Set[LabelTriple],
    seen: Set[CanonicalCode],
    support: SupportFn,
) -> FragmentCatalog:
    """Level ≥ 2 DIFs reachable by extending the frequent fragments ``codes``.

    ``frequent`` must be the *complete* global frequent catalog (minimality
    checks read it); ``codes`` selects which fragments to extend — the full
    key set for a serial mine, one chunk of it per worker in the sharded
    build.  Extending different chunks can reach the same DIF; duplicates
    carry identical codes and FSG-id lists (``support`` is exact), so a
    first-wins merge is exact.  ``seen`` is consumed destructively (pass a
    copy to share a baseline).
    """
    difs: FragmentCatalog = {}
    for code in codes:
        frag = frequent[code]
        if frag.size >= max_edges:
            continue  # extension would exceed the indexable size
        for key, candidate in _one_edge_extensions(
            frag.graph, node_labels, edge_labels, frequent_triples
        ):
            cand_code = canonical_code(candidate)
            if cand_code in seen or cand_code in frequent:
                continue
            seen.add(cand_code)
            sub_codes = [
                canonical_code(s) for s in connected_one_smaller_subgraphs(candidate)
            ]
            if not all(sc in frequent for sc in sub_codes):
                continue  # some subgraph infrequent -> candidate is a NIF
            fsg = support(code, key, candidate, sub_codes)
            if len(fsg) >= min_support_abs:
                # Frequent after all — possible only beyond the mining bound;
                # such fragments are neither frequent-indexed nor DIFs.
                continue
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
    miner = GSpanMiner(db, min_support_abs, max_edges, record_extensions=True)
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
    realized = miner.extension_supports

    def support(parent, key, _candidate, _sub_codes):
        # A fresh empty set per DIF: shared objects would shrink the
        # pickled size accounting (pickle memoizes repeated objects).
        return realized[parent].get(key) or frozenset()

    difs.update(
        dif_extensions(
            frequent, list(frequent), min_support_abs, max_edges,
            node_labels, edge_labels, frequent_triples, seen=set(difs),
            support=support,
        )
    )
    return frequent, difs
