"""DIF mining: the three DIF properties of Section III plus completeness."""

from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import GraphDatabase, canonical_code, is_subgraph_isomorphic
from repro.mining import connected_one_smaller_subgraphs, mine_catalogs
from repro.testing import all_connected_edge_subsets, graph_from_spec, small_database


@pytest.fixture(scope="module")
def mined():
    db = small_database(seed=1, num_graphs=20, max_nodes=6)
    min_sup, max_edges = 5, 4
    frequent, difs = mine_catalogs(db, min_sup, max_edges)
    return db, min_sup, max_edges, frequent, difs


class TestDifProperties:
    def test_difs_are_infrequent(self, mined):
        _, min_sup, _, _, difs = mined
        assert all(f.support < min_sup for f in difs.values())

    def test_all_proper_subgraphs_frequent(self, mined):
        """The defining minimality: sub(g) ⊂ F (or |g| = 1)."""
        _, _, _, frequent, difs = mined
        for frag in difs.values():
            if frag.size == 1:
                continue
            for sub in connected_one_smaller_subgraphs(frag.graph):
                assert canonical_code(sub) in frequent

    def test_disjoint_from_frequent(self, mined):
        _, _, _, frequent, difs = mined
        assert not (set(difs) & set(frequent))

    def test_fsg_ids_exact(self, mined):
        db, _, _, _, difs = mined
        for frag in difs.values():
            truth = {
                gid for gid, g in db.items()
                if is_subgraph_isomorphic(frag.graph, g)
            }
            assert set(frag.fsg_ids) == truth

    def test_supergraph_of_dif_is_infrequent(self, mined):
        """Paper property 1: g ∈ Id and g ⊂ g' implies g' ∈ I."""
        db, min_sup, max_edges, frequent, difs = mined
        # Check via the frequent catalog: no frequent fragment may contain
        # a DIF as a subgraph.
        for dif in list(difs.values())[:30]:
            for frag in frequent.values():
                if frag.size <= dif.size:
                    continue
                assert not is_subgraph_isomorphic(dif.graph, frag.graph)


class TestCompleteness:
    @given(st.integers(0, 500))
    @settings(max_examples=12, deadline=None)
    def test_every_in_db_dif_is_mined(self, seed):
        db = small_database(seed=seed, num_graphs=12, max_nodes=6)
        min_sup, max_edges = 4, 3
        frequent, difs = mine_catalogs(db, min_sup, max_edges)
        # brute-force DIFs among fragments occurring in the database
        support = defaultdict(set)
        rep = {}
        for gid, g in db.items():
            for subset in all_connected_edge_subsets(g, max_edges):
                sub = g.edge_subgraph(subset)
                code = canonical_code(sub)
                support[code].add(gid)
                rep.setdefault(code, sub)
        for code, ids in support.items():
            if len(ids) >= min_sup:
                continue
            sub = rep[code]
            if sub.num_edges > 1:
                smaller = connected_one_smaller_subgraphs(sub)
                if not all(canonical_code(s) in frequent for s in smaller):
                    continue  # a NIF
            assert code in difs, f"missed DIF {code}"
            assert set(difs[code].fsg_ids) == ids

    def test_zero_support_label_pairs_included(self):
        """Single edges over the universe that never occur are support-0 DIFs."""
        g1 = graph_from_spec({0: "A", 1: "A"}, [(0, 1)])
        g2 = graph_from_spec({0: "B", 1: "B"}, [(0, 1)])
        db = GraphDatabase([g1, g2])
        frequent, difs = mine_catalogs(db, 2, 3)
        ab = canonical_code(graph_from_spec({0: "A", 1: "B"}, [(0, 1)]))
        assert ab in difs
        assert difs[ab].support == 0

    def test_size_cap_respected(self, mined):
        _, _, max_edges, _, difs = mined
        assert all(f.size <= max_edges for f in difs.values())


class TestConnectedOneSmaller:
    def test_bridge_removal_excluded(self):
        # path A-B-C: removing the middle edge disconnects -> only the two
        # leaf-edge removals yield fragments.
        g = graph_from_spec(
            {0: "A", 1: "B", 2: "C", 3: "D"}, [(0, 1), (1, 2), (2, 3)]
        )
        subs = connected_one_smaller_subgraphs(g)
        assert len(subs) == 2
        assert all(s.num_edges == 2 and s.is_connected() for s in subs)

    def test_leaf_removal_drops_isolated_node(self):
        g = graph_from_spec({0: "A", 1: "B", 2: "C"}, [(0, 1), (1, 2)])
        for sub in connected_one_smaller_subgraphs(g):
            assert sub.num_nodes == 2  # dangling endpoint removed

    def test_cycle_all_removals_valid(self):
        g = graph_from_spec(
            {0: "A", 1: "A", 2: "A"}, [(0, 1), (1, 2), (2, 0)]
        )
        assert len(connected_one_smaller_subgraphs(g)) == 3

    def test_single_edge_yields_nothing(self):
        g = graph_from_spec({0: "A", 1: "B"}, [(0, 1)])
        assert connected_one_smaller_subgraphs(g) == []
