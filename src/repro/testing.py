"""Testing utilities: brute-force oracles and formulation helpers.

Shipped as part of the library (rather than hidden in the test tree) because
downstream users extending PRAGUE need the same oracles to validate their
changes: exhaustive connected-subgraph enumeration, brute-force isomorphism,
and helpers to drive engines from plain graphs.
"""

from __future__ import annotations

import itertools
import random
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.graph.database import GraphDatabase
from repro.graph.labeled_graph import EdgeKey, Graph, NodeId


def connected_order(g: Graph) -> List[Tuple[NodeId, NodeId]]:
    """A deterministic edge order whose every prefix is connected."""
    edges = sorted(g.edges(), key=repr)
    if not edges:
        return []
    order = [edges[0]]
    nodes: Set[NodeId] = set(edges[0])
    rest = edges[1:]
    while rest:
        for i, e in enumerate(rest):
            if e[0] in nodes or e[1] in nodes:
                order.append(e)
                nodes.update(e)
                del rest[i]
                break
        else:
            order.append(rest.pop(0))
            nodes.update(order[-1])
    return order


def drive_engine(engine, g: Graph) -> List:
    """Feed ``g`` into any engine with add_node/add_edge (connected order)."""
    for node in g.nodes():
        engine.add_node(node, g.label(node))
    return [
        engine.add_edge(u, v, g.edge_label(u, v)) for u, v in connected_order(g)
    ]


def brute_force_isomorphic(a: Graph, b: Graph) -> bool:
    """Graph isomorphism by trying every node permutation (tiny graphs only)."""
    na, nb = list(a.nodes()), list(b.nodes())
    if len(na) != len(nb) or a.num_edges != b.num_edges:
        return False
    for perm in itertools.permutations(nb):
        mapping = dict(zip(na, perm))
        if any(a.label(n) != b.label(mapping[n]) for n in na):
            continue
        if all(
            b.has_edge(mapping[u], mapping[v])
            and a.edge_label(u, v) == b.edge_label(mapping[u], mapping[v])
            for u, v in a.edges()
        ):
            return True
    return False


def brute_force_embeddings(pattern: Graph, target: Graph) -> int:
    """Count injective label/edge-preserving maps by brute force."""
    p_nodes = list(pattern.nodes())
    t_nodes = list(target.nodes())
    count = 0
    for image in itertools.permutations(t_nodes, len(p_nodes)):
        mapping = dict(zip(p_nodes, image))
        if any(pattern.label(n) != target.label(mapping[n]) for n in p_nodes):
            continue
        ok = True
        for u, v in pattern.edges():
            if not target.has_edge(mapping[u], mapping[v]) or (
                pattern.edge_label(u, v)
                != target.edge_label(mapping[u], mapping[v])
            ):
                ok = False
                break
        if ok:
            count += 1
    return count


def all_connected_edge_subsets(
    g: Graph, max_edges: Optional[int] = None
) -> Set[FrozenSet[EdgeKey]]:
    """Every connected edge subset of ``g`` (up to ``max_edges`` edges)."""
    edges = list(g.edges())
    limit = max_edges if max_edges is not None else len(edges)
    results: Set[FrozenSet[EdgeKey]] = set()
    frontier: Set[FrozenSet[EdgeKey]] = {frozenset([e]) for e in edges}
    while frontier:
        results |= frontier
        grown: Set[FrozenSet[EdgeKey]] = set()
        for subset in frontier:
            if len(subset) >= limit:
                continue
            nodes: Set[NodeId] = set()
            for e in subset:
                nodes.update(e)
            for e in edges:
                if e not in subset and (e[0] in nodes or e[1] in nodes):
                    grown.add(subset | {e})
        frontier = grown - results
    return results


def brute_force_frequent(
    db: GraphDatabase, min_support: int, max_edges: int
) -> Dict[Tuple, Set[int]]:
    """Ground truth for frequent-fragment mining: every connected fragment
    of every graph (up to ``max_edges`` edges) with support ≥
    ``min_support``, as canonical code -> ids of the graphs containing it."""
    from repro.graph.canonical import canonical_code

    support: Dict[Tuple, Set[int]] = {}
    for gid, g in db.items():
        codes = set()
        for subset in all_connected_edge_subsets(g, max_edges):
            codes.add(canonical_code(g.edge_subgraph(subset)))
        for code in codes:
            support.setdefault(code, set()).add(gid)
    return {
        code: ids for code, ids in support.items() if len(ids) >= min_support
    }


def brute_force_mccs(q: Graph, g: Graph) -> int:
    """``|mccs(g, q)|`` by exhaustive subset enumeration + brute embedding."""
    from repro.graph.isomorphism import is_subgraph_isomorphic

    best = 0
    for subset in all_connected_edge_subsets(q):
        if len(subset) <= best:
            continue
        if is_subgraph_isomorphic(q.edge_subgraph(subset), g):
            best = len(subset)
    return best


def sample_subgraph(rng: random.Random, db: GraphDatabase, lo: int, hi: int) -> Graph:
    """A random connected subgraph with lo..hi edges from a random data graph.

    Clamps the size to the chosen graph and retries, so it always succeeds.
    """
    from repro.graph.generators import random_connected_subgraph

    while True:
        base = db[rng.randrange(len(db))]
        k = rng.randint(lo, hi)
        if base.num_edges < lo:
            continue
        sub = random_connected_subgraph(rng, base, min(k, base.num_edges))
        if sub is not None:
            return sub


def small_database(
    seed: int = 0,
    num_graphs: int = 30,
    labels: str = "ABC",
    min_nodes: int = 3,
    max_nodes: int = 7,
) -> GraphDatabase:
    """A reproducible small random database for unit tests."""
    from repro.graph.generators import random_connected_graph

    rng = random.Random(seed)
    return GraphDatabase(
        random_connected_graph(
            rng,
            rng.randint(min_nodes, max_nodes),
            rng.randint(min_nodes - 1, max_nodes + 2),
            labels,
        )
        for _ in range(num_graphs)
    )


def graph_from_spec(
    labels: Dict[NodeId, str], edges: Iterable[Tuple[NodeId, NodeId]]
) -> Graph:
    """Terse literal graphs for tests: ``graph_from_spec({0:'C',1:'O'}, [(0,1)])``."""
    g = Graph()
    for node, label in labels.items():
        g.add_node(node, label)
    for u, v in edges:
        g.add_edge(u, v)
    return g
