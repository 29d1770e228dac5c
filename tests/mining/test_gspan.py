"""gSpan: exact agreement with brute-force frequent-fragment enumeration."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import MiningError
from repro.graph import GraphDatabase, canonical_code
from repro.mining import mine_frequent_fragments
from repro.testing import brute_force_frequent, graph_from_spec, small_database


class TestAgainstBruteForce:
    @given(st.integers(0, 1_000), st.integers(2, 8), st.integers(1, 4))
    @settings(max_examples=25, deadline=None)
    def test_fragments_and_supports_match(self, seed, min_sup, max_edges):
        db = small_database(seed=seed, num_graphs=12, max_nodes=6)
        truth = brute_force_frequent(db, min_sup, max_edges)
        mined = mine_frequent_fragments(db, min_sup, max_edges)
        assert set(mined) == set(truth)
        for code, frag in mined.items():
            assert set(frag.fsg_ids) == truth[code]

    def test_single_graph_database(self):
        g = graph_from_spec({0: "A", 1: "B", 2: "A"}, [(0, 1), (1, 2)])
        db = GraphDatabase([g])
        mined = mine_frequent_fragments(db, 1, 2)
        # fragments: A-B (x1 class), A-B-A path
        assert len(mined) == 2


class TestProperties:
    def test_downward_closure(self, small_db):
        """Every subgraph of a frequent fragment is frequent (anti-monotone)."""
        from repro.mining.dif import connected_one_smaller_subgraphs

        mined = mine_frequent_fragments(small_db, 5, 4)
        for frag in mined.values():
            for sub in connected_one_smaller_subgraphs(frag.graph):
                assert canonical_code(sub) in mined

    def test_support_monotone(self, small_db):
        from repro.mining.dif import connected_one_smaller_subgraphs

        mined = mine_frequent_fragments(small_db, 5, 4)
        for frag in mined.values():
            for sub in connected_one_smaller_subgraphs(frag.graph):
                parent = mined[canonical_code(sub)]
                assert frag.fsg_ids <= parent.fsg_ids

    def test_max_edges_respected(self, small_db):
        mined = mine_frequent_fragments(small_db, 5, 3)
        assert all(f.size <= 3 for f in mined.values())

    def test_keys_are_canonical(self, small_db):
        mined = mine_frequent_fragments(small_db, 5, 3)
        for code, frag in mined.items():
            assert canonical_code(frag.graph) == code

    def test_fragment_graphs_connected(self, small_db):
        mined = mine_frequent_fragments(small_db, 5, 4)
        assert all(f.graph.is_connected() for f in mined.values())

    def test_higher_support_fewer_fragments(self, small_db):
        low = mine_frequent_fragments(small_db, 3, 3)
        high = mine_frequent_fragments(small_db, 10, 3)
        assert set(high) <= set(low)


class TestValidation:
    def test_rejects_zero_support(self, small_db):
        with pytest.raises(MiningError):
            mine_frequent_fragments(small_db, 0, 3)

    def test_rejects_zero_max_edges(self, small_db):
        with pytest.raises(MiningError):
            mine_frequent_fragments(small_db, 1, 0)

    def test_empty_database(self):
        assert mine_frequent_fragments(GraphDatabase(), 1, 3) == {}
