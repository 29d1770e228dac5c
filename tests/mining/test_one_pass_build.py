"""The one-pass build: DIF supports read off gSpan's projections.

:func:`repro.mining.dif.mine_catalogs` must produce exactly what a
brute-force scan of the database says, while running no
subgraph-isomorphism test.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import MiningParams
from repro.graph import GraphDatabase, canonical_code, is_subgraph_isomorphic
from repro.graph.isomorphism import CompiledPattern
from repro.graph.labeled_graph import Graph
from repro.index import build_indexes
from repro.mining import connected_one_smaller_subgraphs, mine_catalogs
from repro.testing import (
    all_connected_edge_subsets,
    brute_force_frequent,
    small_database,
)


def _with_edge_labels(db, seed):
    """The same graphs with some edges labeled ``s``/``d`` (rest unlabeled)."""
    rng = random.Random(seed)
    out = []
    for _, g in db.items():
        h = Graph()
        for node in g.nodes():
            h.add_node(node, g.label(node))
        for u, v in g.edges():
            h.add_edge(u, v, rng.choice((None, None, "s", "d")))
        out.append(h)
    return GraphDatabase(out)


def _params(db, min_sup, max_edges):
    """Mining parameters whose ``⌈α·|D|⌉`` is exactly ``min_sup``."""
    params = MiningParams(
        min_support=(min_sup - 0.5) / len(db), max_fragment_edges=max_edges
    )
    assert params.absolute_support(len(db)) == min_sup
    return params


def _scan(graph, db):
    return frozenset(gid for gid, g in db.items() if is_subgraph_isomorphic(graph, g))


def _in_db_difs(db, min_sup, max_edges, frequent_codes):
    """Brute-force DIFs among the fragments occurring in ``db``: code ->
    ids of the graphs containing it."""
    support = {}
    rep = {}
    for gid, g in db.items():
        for subset in all_connected_edge_subsets(g, max_edges):
            sub = g.edge_subgraph(subset)
            code = canonical_code(sub)
            support.setdefault(code, set()).add(gid)
            rep.setdefault(code, sub)
    out = {}
    for code, ids in support.items():
        if len(ids) >= min_sup:
            continue
        smaller = connected_one_smaller_subgraphs(rep[code])
        if all(canonical_code(s) in frequent_codes for s in smaller):
            out[code] = ids  # a single edge has no smaller fragment
    return out


class TestNoIsomorphismTests:
    @pytest.fixture
    def no_vf2(self, monkeypatch):
        def refuse(*_args, **_kwargs):
            raise AssertionError("VF2 ran during the build")

        monkeypatch.setattr(CompiledPattern, "iter_embeddings", refuse)

    def test_serial_build_runs_no_vf2(self, no_vf2):
        db = small_database(seed=3, num_graphs=24, max_nodes=7)
        idx = build_indexes(db, _params(db, 4, 4))
        assert any(f.size >= 2 for f in idx.difs.values())

    def test_patch_catches_a_vf2_test(self, no_vf2):
        db = small_database(seed=3, num_graphs=24, max_nodes=7)
        with pytest.raises(AssertionError, match="VF2 ran"):
            is_subgraph_isomorphic(db[0], db[1])


class TestExactness:
    @given(
        st.integers(0, 10_000),
        st.integers(2, 5),
        st.integers(1, 5),
        st.booleans(),
    )
    @settings(max_examples=30, deadline=None)
    def test_matches_brute_force(self, seed, min_sup, max_edges, labeled):
        db = small_database(seed=seed, num_graphs=12, max_nodes=6)
        if labeled:
            db = _with_edge_labels(db, seed)
        frequent, difs = mine_catalogs(db, min_sup, max_edges)

        truth = brute_force_frequent(db, min_sup, max_edges)
        assert set(frequent) == set(truth)
        for code, frag in frequent.items():
            assert frag.fsg_ids == truth[code]

        in_db = _in_db_difs(db, min_sup, max_edges, set(truth))
        assert {code for code, frag in difs.items() if frag.fsg_ids} == set(in_db)
        for code, ids in in_db.items():
            assert difs[code].fsg_ids == ids
        for frag in difs.values():  # zero-support DIFs are minimal too
            smaller = connected_one_smaller_subgraphs(frag.graph)
            assert all(canonical_code(s) in truth for s in smaller)

        for catalog in (frequent, difs):
            for frag in catalog.values():
                assert frag.fsg_ids == _scan(frag.graph, db)
