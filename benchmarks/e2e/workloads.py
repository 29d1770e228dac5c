"""Seeded inputs and reference answers for the end-to-end service benchmark.

Each workload is a corpus (written as a gSpan ``.lg`` file, the only thing
the server receives) plus a list of formulation scripts (the only thing the
client receives).  A script is the gesture sequence of one GUI session and
the answer its *Run* must return, computed here without any index -- by
:func:`repro.baselines.naive.naive_containment_search` for exact answers and
by :func:`similarity_reference` (a corpus-wide form of the naive MCCS scan)
for similarity answers -- never by the engine.

Input generation reaches only ``repro.datasets.aids``, ``repro.graph`` and
``repro.baselines.naive``: no code of ``core``/``spig``/``index``/``service``
runs while inputs are made, so a change to the engine cannot change the
workload it is measured on.  The same seed gives byte-identical files.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.baselines.naive import naive_containment_search
from repro.datasets.aids import generate_aids_like
from repro.graph.canonical import canonical_code
from repro.graph.database import GraphDatabase
from repro.graph.generators import random_connected_subgraph
from repro.graph.isomorphism import compile_pattern
from repro.graph.labeled_graph import Graph
from repro.graph.mccs import iter_connected_subgraph_levels
from repro.graph.serialization import read_database, write_database

Edge = Tuple[int, int]

CORPUS_FILE = "corpus.lg"
SCRIPTS_FILE = "scripts.json"


@dataclass(frozen=True)
class Workload:
    """One traffic mix: corpus shape, index parameters and script family."""

    name: str
    why: str
    corpus_size: int
    alpha: float
    beta: int
    max_edges: int
    #: ``containment`` (sampled subgraphs, exact answers), ``similarity``
    #: (naive answer empty, Run answered by SimVerify) or ``modify``
    #: (draw to the bold edge, delete/undo/redo, delete the bold edge, Run).
    kind: str
    scripts: int
    min_edges: int
    max_edges_query: int
    #: containment scripts are kept only with at least this many answers.
    min_answers: int = 1
    sigma: int = 3
    warmup_s: float = 2.0


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "gesture-light",
            "3-edge containment on aids-200: engine work is far below 1 ms, "
            "so latency is transport, handler and session bookkeeping",
            corpus_size=200, alpha=0.15, beta=3, max_edges=4,
            kind="containment", scripts=8, min_edges=3, max_edges_query=3,
        ),
        Workload(
            "containment-heavy",
            "6-8-edge containment on aids-1000 with >= 100 answers: Run is "
            "exact VF2 verification through the warm pool",
            corpus_size=1000, alpha=0.1, beta=4, max_edges=4,
            kind="containment", scripts=60, min_edges=6, max_edges_query=8,
            min_answers=100,
        ),
        Workload(
            "similarity-heavy",
            "7-edge queries with no exact match on aids-1000: once Rq empties "
            "every New refreshes Rfree/Rver, and Run runs SimVerify",
            corpus_size=1000, alpha=0.1, beta=4, max_edges=4,
            kind="similarity", scripts=40, min_edges=7, max_edges_query=7,
        ),
        Workload(
            "modify-undo",
            "draw to the bold edge, accept the deletion suggestion, undo, "
            "redo, undo, delete the bold edge, Run: the write side of a session",
            corpus_size=1000, alpha=0.1, beta=4, max_edges=4,
            kind="modify", scripts=40, min_edges=7, max_edges_query=7,
        ),
    )
}


def smoke_variant(w: Workload) -> Workload:
    """The same workload on a tiny corpus, for a quick end-to-end check.

    The heavy corpora keep 100 graphs so that a 6+-edge Run still reaches
    the 64-candidate floor of the verification pool.
    """
    size = 50 if w.corpus_size <= 200 else 100
    return Workload(
        w.name, w.why, corpus_size=size, alpha=w.alpha, beta=w.beta,
        max_edges=w.max_edges, kind=w.kind, scripts=min(w.scripts, 4),
        min_edges=w.min_edges, max_edges_query=w.max_edges_query,
        min_answers=max(1, w.min_answers * size // w.corpus_size),
        sigma=w.sigma, warmup_s=0.5,
    )


# ----------------------------------------------------------------------
# scripts
# ----------------------------------------------------------------------
def _draw_order(
    edges: Iterable[Edge], rng: random.Random, prefix: Sequence[Edge] = ()
) -> List[Edge]:
    """An edge order in which every prefix is connected (GUI-drawable),
    starting with ``prefix``."""
    rest = sorted(set(edges) - set(prefix))
    rng.shuffle(rest)
    order = list(prefix) or [rest.pop(0)]
    nodes = {n for e in order for n in e}
    while rest:
        i = next(i for i, (u, v) in enumerate(rest) if u in nodes or v in nodes)
        edge = rest.pop(i)
        order.append(edge)
        nodes.update(edge)
    return order


def _gestures(g: Graph, order: Sequence[Edge]) -> List[dict]:
    """``add_node``/``add_edge`` gestures drawing ``order``; canvas nodes are
    numbered 0, 1, ... as they are dropped."""
    ids: Dict[int, int] = {}
    ops: List[dict] = []
    for u, v in order:
        for node in (u, v):
            if node not in ids:
                ids[node] = len(ids)
                ops.append({"op": "add_node", "args": [ids[node], g.label(node)]})
        ops.append(
            {"op": "add_edge", "args": [ids[u], ids[v], g.edge_label(u, v)]}
        )
    return ops


def _sample(db: GraphDatabase, rng: random.Random, edges: int) -> Optional[Graph]:
    return random_connected_subgraph(rng, db[rng.randrange(len(db))], edges)


def _perturbed(
    db: GraphDatabase, rng: random.Random, edges: int, labels: Sequence[str],
    real: int,
) -> Optional[Tuple[Graph, List[Edge]]]:
    """(graph, draw order): a real ``edges - 1``-edge subgraph plus one edge
    to a new node with one of ``labels``, drawn right after the first
    ``real`` real edges."""
    sub = _sample(db, rng, edges - 1)
    if sub is None:
        return None
    order = _draw_order(sub.edges(), rng)
    anchor = rng.choice(sorted({n for e in order[:real] for n in e}))
    g = sub.copy()
    new = max(g.nodes()) + 1
    g.add_node(new, rng.choice(labels))
    g.add_edge(anchor, new)
    new_edge = next(e for e in g.edges() if new in e)
    return g, order[:real] + [new_edge] + order[real:]


def _bridged(
    db: GraphDatabase, rng: random.Random, edges: int, first: int
) -> Optional[Tuple[Graph, List[Edge]]]:
    """(graph, draw order): a real ``first``-edge motif, a bridge edge, and a
    second real motif, drawn in that order."""
    a = _sample(db, rng, first)
    b = _sample(db, rng, edges - 1 - first)
    if a is None or b is None:
        return None
    offset = max(a.nodes()) + 1
    b = b.relabel_nodes({n: n + offset for n in b.nodes()})
    g = a.copy()
    for node in b.nodes():
        g.add_node(node, b.label(node))
    for u, v in b.edges():
        g.add_edge(u, v, b.edge_label(u, v))
    bridge = (rng.choice(sorted(a.nodes())), rng.choice(sorted(b.nodes())))
    g.add_edge(*bridge)
    bridge = next(e for e in g.edges() if set(e) == set(bridge))
    order = _draw_order(a.edges(), rng)
    order = _draw_order(g.edges(), rng, prefix=order + [bridge])
    return g, order


def _bold_step(
    db: GraphDatabase, g: Graph, order: Sequence[Edge], real: int, last: int
) -> Optional[int]:
    """1-based step, at most ``last``, of the first drawn prefix with no
    exact match (naive); the first ``real`` prefixes are real subgraphs."""
    for step in range(real + 1, last + 1):
        if not naive_containment_search(g.edge_subgraph(order[:step]), db):
            return step
    return None


def _containment_scripts(
    db: GraphDatabase, w: Workload, rng: random.Random
) -> List[dict]:
    scripts: List[dict] = []
    seen = set()
    for _ in range(100 * w.scripts):
        if len(scripts) == w.scripts:
            break
        q = _sample(db, rng, rng.randint(w.min_edges, w.max_edges_query))
        if q is None or canonical_code(q) in seen:
            continue
        seen.add(canonical_code(q))  # memoised on q
        answer = naive_containment_search(q, db)
        if len(answer) < w.min_answers:
            continue
        ops = _gestures(q, _draw_order(q.edges(), rng))
        ops.append({"op": "run", "args": []})
        scripts.append({"ops": ops, "expect": {"exact": answer}})
    return scripts


def _rare_labels(db: GraphDatabase) -> List[str]:
    """Node labels rarer than the average label: attaching one to a real
    motif most often leaves no exact match."""
    freq = db.label_frequencies()
    mean = sum(freq.values()) / len(freq)
    return sorted(label for label, n in freq.items() if n < mean)


def _unmatched_candidates(
    db: GraphDatabase, w: Workload, rng: random.Random, real: int,
    bridged: bool,
):
    """Yield distinct (graph, order) queries whose first ``real`` edges are
    real: perturbed subgraphs, alternating with bridged motifs if
    ``bridged``.  Most have no exact match; callers check."""
    labels = _rare_labels(db)
    seen = set()
    for attempt in range(400 * w.scripts):
        if not bridged or attempt % 2 == 0:
            made = _perturbed(db, rng, w.max_edges_query, labels, real)
        else:
            made = _bridged(db, rng, w.max_edges_query, real)
        if made is None:
            continue
        g, order = made
        code = canonical_code(g)
        if code not in seen:
            seen.add(code)
            yield g, order


def similarity_reference(q: Graph, db: GraphDatabase, sigma: int) -> Dict[int, int]:
    """id -> subgraph distance for every graph with ``dist(q, g) <= sigma``.

    The MCCS definition evaluated across the corpus instead of graph by
    graph: ``g`` is at distance ``|q| - k`` for the largest ``k`` such that a
    connected ``k``-edge subgraph of ``q`` embeds in ``g``.  Levels are
    scanned top-down and a graph leaves the scan at its first hit.  The
    answers equal :func:`repro.baselines.naive.naive_similarity_search`
    (the benchmark's tests compare them) at a twentieth of its cost.
    """
    freq = db.label_frequencies()
    remaining = set(db.ids())
    out: Dict[int, int] = {}
    for k, subsets in iter_connected_subgraph_levels(q):
        distance = q.num_edges - k
        if distance > sigma:
            break
        codes = set()
        for subset in subsets:
            sub = q.edge_subgraph(subset)
            code = canonical_code(sub)
            if code in codes:
                continue
            codes.add(code)
            pattern = compile_pattern(sub, freq)
            found = {gid for gid in remaining if pattern.embeds_in(db[gid])}
            out.update(dict.fromkeys(found, distance))
            remaining -= found
    return out


def _similarity_scripts(
    db: GraphDatabase, w: Workload, rng: random.Random
) -> List[dict]:
    scripts: List[dict] = []
    for g, order in _unmatched_candidates(db, w, rng, real=1, bridged=True):
        if naive_containment_search(g, db):
            continue
        found = similarity_reference(g, db, w.sigma)
        ops = _gestures(g, order)
        ops.append({"op": "run", "args": []})
        expect = [[gid, found[gid]] for gid in sorted(found)]
        scripts.append({"ops": ops, "expect": {"similar": expect}})
        if len(scripts) == w.scripts:
            break
    return scripts


def _modify_scripts(
    db: GraphDatabase, w: Workload, rng: random.Random
) -> List[dict]:
    scripts: List[dict] = []
    # Two real edges first: the bold edge is at step 3 or later, so deleting
    # it leaves a query with a real match and a choice of edges to suggest.
    # The bold edge falls within the index's mining bound, where the
    # engine's candidate set can empty as well and raise the option dialogue.
    for g, order in _unmatched_candidates(db, w, rng, real=2, bridged=False):
        bold = _bold_step(db, g, order, 2, w.max_edges)
        if bold is None:
            continue
        ops = _gestures(g, order[:bold])
        bold_op = len(ops) - 1
        ops += [
            {"op": "delete_edge", "args": [None]},  # accept Alg. 6's choice
            {"op": "undo", "args": []},
            {"op": "redo", "args": []},
            {"op": "undo", "args": []},
            # the edge id the server returned for the bold edge
            {"op": "delete_edge", "args": [], "ref": bold_op},
            {"op": "run", "args": []},
        ]
        answer = naive_containment_search(g.edge_subgraph(order[:bold - 1]), db)
        scripts.append({"ops": ops, "expect": {"exact": answer}})
        if len(scripts) == w.scripts:
            break
    return scripts


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def build_inputs(w: Workload, seed: int, out_dir: Path) -> None:
    """Write ``corpus.lg`` and ``scripts.json`` for workload ``w`` at ``seed``.

    The corpus is read back before scripts are sampled, so references are
    computed on exactly the graphs (and graph ids) the server will load.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    corpus_path = out_dir / CORPUS_FILE
    write_database(generate_aids_like(w.corpus_size, seed=seed), corpus_path)
    db = read_database(corpus_path)
    rng = random.Random(f"{w.name}/{seed}")
    if w.kind == "containment":
        scripts = _containment_scripts(db, w, rng)
    elif w.kind == "similarity":
        scripts = _similarity_scripts(db, w, rng)
    elif w.kind == "modify":
        scripts = _modify_scripts(db, w, rng)
    else:
        raise ValueError(f"unknown workload kind {w.kind!r}")
    if len(scripts) < w.scripts:
        raise RuntimeError(
            f"{w.name}: found only {len(scripts)} of {w.scripts} scripts "
            f"at seed {seed}"
        )
    payload = {
        "workload": w.name,
        "seed": seed,
        "sigma": w.sigma,
        "scripts": scripts,
    }
    (out_dir / SCRIPTS_FILE).write_text(
        json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    )


def load_scripts(in_dir: Path) -> dict:
    return json.loads((in_dir / SCRIPTS_FILE).read_text())
