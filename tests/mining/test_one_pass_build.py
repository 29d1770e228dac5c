"""The one-pass serial build: DIF supports read off gSpan's projections.

:func:`repro.mining.dif.mine_catalogs` must produce exactly what the VF2
recount produces (the sharded build, which keeps it) and what a brute-force
scan of the database says, while running no subgraph-isomorphism test.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import MiningParams
from repro.graph import GraphDatabase, is_subgraph_isomorphic
from repro.graph.isomorphism import CompiledPattern
from repro.graph.labeled_graph import Graph
from repro.index import build_indexes
from repro.index.sharded import mine_sharded
from repro.mining import mine_catalogs
from repro.testing import small_database


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


class TestNoIsomorphismTests:
    @pytest.fixture
    def no_vf2(self, monkeypatch):
        def refuse(*_args, **_kwargs):
            raise AssertionError("VF2 ran during the serial build")

        monkeypatch.setattr(CompiledPattern, "iter_embeddings", refuse)

    def test_serial_build_runs_no_vf2(self, no_vf2):
        db = small_database(seed=3, num_graphs=24, max_nodes=7)
        idx = build_indexes(db, _params(db, 4, 4), workers=1)
        assert any(f.size >= 2 for f in idx.difs.values())

    def test_patch_catches_the_vf2_recount(self, no_vf2):
        """The sharded build still recounts by VF2, so the patch bites."""
        db = small_database(seed=3, num_graphs=24, max_nodes=7)
        with pytest.raises(AssertionError, match="VF2 ran"):
            mine_sharded(db, _params(db, 4, 4), 1, shards=3)


class TestExactness:
    @given(
        st.integers(0, 10_000),
        st.integers(2, 5),
        st.integers(1, 5),
        st.booleans(),
    )
    @settings(max_examples=30, deadline=None)
    def test_matches_vf2_recount_and_scan(self, seed, min_sup, max_edges, labeled):
        db = small_database(seed=seed, num_graphs=12, max_nodes=6)
        if labeled:
            db = _with_edge_labels(db, seed)
        frequent, difs = mine_catalogs(db, min_sup, max_edges)
        ref_frequent, ref_difs = mine_sharded(
            db, _params(db, min_sup, max_edges), 1, shards=3
        )
        for mined, ref in ((frequent, ref_frequent), (difs, ref_difs)):
            assert set(mined) == set(ref)
            for code, frag in mined.items():
                assert frag.fsg_ids == ref[code].fsg_ids
                assert frag.fsg_ids == _scan(frag.graph, db)
