"""gSpan frequent-fragment mining (Yan & Han, ICDM'02 — the paper's [13]).

GBLENDER/PRAGUE mine the frequent fragment set ``F`` offline with gSpan and
build the action-aware indexes from it.  This is a from-scratch projected-
database implementation:

* patterns grow by rightmost-path extension of DFS codes;
* each pattern keeps its *embeddings* (DFS-index -> data-node maps) per data
  graph, so extension supports are exact TID lists, no isomorphism re-tests;
* duplicate isomorphism classes are pruned with the minimum-DFS-code test;
* extensions walk per-graph adjacency rows built once and pruned to frequent
  ``(l_u, l_uv, l_v)`` label triples: support is antimonotone, so an edge
  whose triple is infrequent lies in no frequent fragment (and in no DIF
  candidate of size ≥ 2 either);
* patterns of ``max_edges`` edges are never extended, so they carry only
  the ids of the graphs they occur in, not embedding lists.

The miner returns every frequent fragment up to ``max_edges`` together with
its full ``fsgIds`` list — the raw material for the A2F-index and for DIF
generation (:mod:`repro.mining.dif`).  It also keeps, for every fragment
that can still grow, the graph ids realizing each of its one-edge
extensions (:attr:`GSpanMiner.extension_supports`): gSpan stores *every*
embedding of a minimal DFS code, so ``f + e`` occurs in a graph iff some
stored embedding of ``f`` there extends by ``e``.  Those sets are the exact
supports of the DIF candidates.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Set, Tuple, Union

from repro.exceptions import MiningError
from repro.graph.canonical import CanonicalCode, CodeTuple
from repro.graph.database import GraphDatabase
from repro.graph.labeled_graph import NodeId
from repro.mining.dfs_code import DFSCode
from repro.mining.fragments import Fragment, FragmentCatalog

_NO_EDGE_LABEL = ""

# One embedding: DFS index -> data-graph node, as a tuple indexed by DFS index.
_Embedding = Tuple[NodeId, ...]
# Projected database: graph id -> embeddings of the current pattern in it,
# or just the graph ids for patterns that are never extended.
_Projection = Union[Dict[int, List[_Embedding]], Set[int]]
# Pruned adjacency of one data graph: node -> (neighbor, edge label,
# neighbor label) for every incident edge with a frequent label triple.
_Rows = Dict[NodeId, Tuple[Tuple[NodeId, str, str], ...]]

#: ``(la, le, lb)`` with ``la ≤ lb`` and ``le`` normalized (``""`` = none).
LabelTriple = Tuple[str, str, str]
#: The edge a one-edge extension adds, in the fragment's DFS indices:
#: ``(u, v, edge label, label of v)``.  ``v`` below the fragment's vertex
#: count closes an edge between two pattern nodes (``u < v``); ``v`` equal
#: to it attaches a new pendant node.
ExtensionKey = Tuple[int, int, str, str]
#: Graph ids realizing each one-edge extension of one fragment.  Only
#: extensions below the support threshold are kept: the others make
#: frequent fragments, which are never DIF candidates.
ExtensionSupports = Dict[ExtensionKey, FrozenSet[int]]


def _norm(label) -> str:
    return _NO_EDGE_LABEL if label is None else label


def single_edge_supports(db: GraphDatabase) -> Dict[LabelTriple, Set[int]]:
    """``(la, le, lb)`` with ``la ≤ lb`` -> ids of graphs with such an edge."""
    out: Dict[LabelTriple, Set[int]] = {}
    for gid, g in db.items():
        for u, v in g.edges():
            la, lb = g.label(u), g.label(v)
            if la > lb:
                la, lb = lb, la
            key = (la, _norm(g.edge_label(u, v)), lb)
            out.setdefault(key, set()).add(gid)
    return out


class GSpanMiner:
    """Mines all frequent fragments of ``db`` with support ≥ ``min_support_abs``.

    Parameters
    ----------
    db:
        The graph database ``D``.
    min_support_abs:
        Absolute support threshold (``⌈α·|D|⌉`` — see
        :meth:`repro.config.MiningParams.absolute_support`).
    max_edges:
        Fragments larger than this are not mined (the indexes only ever serve
        query fragments up to the maximum visual query size).
    """

    def __init__(
        self, db: GraphDatabase, min_support_abs: int, max_edges: int
    ) -> None:
        if min_support_abs < 1:
            raise MiningError("absolute support threshold must be >= 1")
        if max_edges < 1:
            raise MiningError("max_edges must be >= 1")
        self.db = db
        self.min_support = min_support_abs
        self.max_edges = max_edges
        self._result: FragmentCatalog = {}
        self._rows: Dict[int, _Rows] = {}
        #: Single-edge supports of the whole database (set by :meth:`mine`).
        self.edge_supports: Dict[LabelTriple, Set[int]] = {}
        #: Fragment code -> its extensions' supports, for every fragment
        #: below ``max_edges`` (set by :meth:`mine`).
        self.extension_supports: Dict[CanonicalCode, ExtensionSupports] = {}

    # ------------------------------------------------------------------
    def mine(self) -> FragmentCatalog:
        """Run the mining and return {canonical code -> Fragment}."""
        self._result = {}
        self.extension_supports = {}
        self.edge_supports = single_edge_supports(self.db)
        frequent_triples = {
            key for key, ids in self.edge_supports.items()
            if len(ids) >= self.min_support
        }
        self._rows = self._pruned_rows(frequent_triples)
        try:
            # Every seed is frequent: the rows hold frequent triples only.
            for tup, projection in sorted(self._single_edge_projections().items()):
                self._grow(DFSCode((tup,)), projection)
        finally:
            self._rows = {}
        return self._result

    # ------------------------------------------------------------------
    def _pruned_rows(self, frequent_triples: Set[LabelTriple]) -> Dict[int, _Rows]:
        """Each graph's adjacency, keeping only frequent-triple edges."""
        out: Dict[int, _Rows] = {}
        for gid, g in self.db.items():
            rows: _Rows = {}
            for u in g.nodes():
                lu = g.label(u)
                row = []
                for w in g.neighbors(u):
                    lw = g.label(w)
                    el = _norm(g.edge_label(u, w))
                    triple = (lu, el, lw) if lu <= lw else (lw, el, lu)
                    if triple in frequent_triples:
                        row.append((w, el, lw))
                rows[u] = tuple(row)
            out[gid] = rows
        return out

    def _single_edge_projections(self) -> Dict[CodeTuple, Dict[int, List[_Embedding]]]:
        """Seed patterns: every frequent labeled edge with its embeddings.

        Symmetric single edges (``la == lb``) get both orientations.
        """
        seeds: Dict[CodeTuple, Dict[int, List[_Embedding]]] = {}
        for gid, rows in self._rows.items():
            g = self.db[gid]
            for u, row in rows.items():
                lu = g.label(u)
                for w, el, lw in row:
                    if lu <= lw:
                        seeds.setdefault((0, 1, lu, el, lw), {}).setdefault(
                            gid, []
                        ).append((u, w))
        return seeds

    def _grow(self, code: DFSCode, projection: _Projection) -> None:
        """Record the (minimal) ``code`` as frequent and expand its children."""
        fragment_graph = code.to_graph().copy()
        self._result[code.canonical()] = Fragment(
            code=code.canonical(),
            graph=fragment_graph,
            fsg_ids=frozenset(projection),
        )
        if len(code) >= self.max_edges:
            return
        extensions = self._extensions(code, projection)
        for tup in sorted(extensions):
            child_proj = extensions[tup]
            if len(child_proj) < self.min_support:
                continue
            child = code.child(tup)
            if not child.is_minimal():
                continue  # this isomorphism class is reached via its min code
            self._grow(child, child_proj)

    def _extensions(
        self, code: DFSCode, projection: Dict[int, List[_Embedding]]
    ) -> Dict[CodeTuple, _Projection]:
        """All rightmost-path extensions with their projected databases.

        The same walk visits every pattern node (not just the rightmost
        path) and records the graph ids realizing each one-edge extension
        into :attr:`extension_supports`.  Children that will never be
        extended (size ``max_edges``) only need the ids of the graphs they
        occur in, which are read off the same per-graph sets of realized
        extensions instead of building embeddings.
        """
        pattern = code.to_graph()
        nv = code.num_vertices
        rmp = code.rightmost_path
        rm = rmp[-1]  # the rightmost vertex has the largest DFS index
        on_rmp = [i in rmp for i in range(nv)]
        plabel = [pattern.label(i) for i in range(nv)]
        padj = [frozenset(pattern.neighbors(i)) for i in range(nv)]
        # Backward targets: rightmost-path ancestors not yet adjacent to rm.
        backward = frozenset(j for j in rmp[:-1] if j not in padj[rm])
        grow = len(code) + 1 < self.max_edges  # children will be extended
        out: Dict[CodeTuple, _Projection] = {}
        realized: Dict[ExtensionKey, List[int]] = {}
        for gid, embeddings in projection.items():
            rows = self._rows[gid]
            local: Dict[CodeTuple, List[_Embedding]] = {}
            keys: Set[ExtensionKey] = set()
            for emb in embeddings:
                for i in range(nv):
                    for w, el, lw in rows[emb[i]]:
                        if w in emb:
                            # Closing edge (j, i); each is met from both
                            # ends, so handle it from the larger index.
                            j = emb.index(w)
                            if j >= i or j in padj[i]:
                                continue
                            keys.add((j, i, el, plabel[i]))
                            if grow and i == rm and j in backward:
                                tup: CodeTuple = (rm, j, plabel[rm], el, lw)
                                local.setdefault(tup, []).append(emb)
                            continue
                        keys.add((i, nv, el, lw))
                        if grow and on_rmp[i]:
                            tup = (i, nv, plabel[i], el, lw)
                            local.setdefault(tup, []).append(emb + (w,))
            if grow:
                for tup, embs in local.items():
                    out.setdefault(tup, {})[gid] = embs
            else:
                for u, v, el, lv in keys:
                    if v == nv:
                        if not on_rmp[u]:
                            continue
                        tup = (u, nv, plabel[u], el, lv)
                    elif v == rm and u in backward:
                        tup = (rm, u, plabel[rm], el, plabel[u])
                    else:
                        continue
                    out.setdefault(tup, set()).add(gid)
            for key in keys:
                realized.setdefault(key, []).append(gid)
        self.extension_supports[code.canonical()] = {
            key: frozenset(gids)
            for key, gids in realized.items()
            if len(gids) < self.min_support
        }
        return out


def mine_frequent_fragments(
    db: GraphDatabase, min_support_abs: int, max_edges: int
) -> FragmentCatalog:
    """Convenience wrapper around :class:`GSpanMiner`."""
    return GSpanMiner(db, min_support_abs, max_edges).mine()
