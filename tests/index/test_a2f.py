"""A2F-index: DAG structure, delId deltas, MF/DF split, fragment clusters."""

import pytest

from repro.exceptions import IndexError_
from repro.graph import canonical_code
from repro.index.a2f import A2FIndex
from repro.mining import mine_catalogs
from repro.testing import small_database


@pytest.fixture(scope="module")
def setup():
    db = small_database(seed=2, num_graphs=25, max_nodes=7)
    frequent, _ = mine_catalogs(db, 5, 5)
    beta = 2
    return db, frequent, A2FIndex(frequent, beta), beta


class TestLookup:
    def test_every_frequent_fragment_indexed(self, setup):
        _, frequent, a2f, _ = setup
        assert len(a2f) == len(frequent)
        for code in frequent:
            assert code in a2f
            assert a2f.lookup(code) is not None

    def test_unknown_code_absent(self, setup):
        _, _, a2f, _ = setup
        assert a2f.lookup((("nope",),)) is None

    def test_vertex_ids_match_lookup(self, setup):
        _, frequent, a2f, _ = setup
        for code in frequent:
            vid = a2f.lookup(code)
            assert a2f.vertex(vid).code == code


class TestDeltas:
    def test_fsg_reconstruction_equals_mined(self, setup):
        """delId(f) ∪ ⋃ children fsgIds == fsgIds(f) (the FG-Index property)."""
        _, frequent, a2f, _ = setup
        for code, frag in frequent.items():
            vid = a2f.lookup(code)
            assert a2f.fsg_ids(vid) == frag.fsg_ids

    def test_containment_along_edges(self, setup):
        """f' ⊂ f implies fsgIds(f) ⊆ fsgIds(f')."""
        _, _, a2f, _ = setup
        for vid in range(len(a2f)):
            v = a2f.vertex(vid)
            for cid in v.children:
                assert a2f.fsg_ids(cid) <= a2f.fsg_ids(vid)

    def test_delta_strictly_smaller_when_children_exist(self, setup):
        _, _, a2f, _ = setup
        for vid in range(len(a2f)):
            v = a2f.vertex(vid)
            if v.children:
                assert v.del_ids <= a2f.fsg_ids(vid)

    def test_support_helper(self, setup):
        _, frequent, a2f, _ = setup
        for code, frag in frequent.items():
            assert a2f.support(a2f.lookup(code)) == frag.support

    def test_edges_are_one_bigger(self, setup):
        _, _, a2f, _ = setup
        for vid in range(len(a2f)):
            v = a2f.vertex(vid)
            for cid in v.children:
                assert a2f.vertex(cid).size == v.size + 1
            for pid in v.parents:
                assert a2f.vertex(pid).size == v.size - 1


class TestMfDfSplit:
    def test_partition_by_beta(self, setup):
        _, _, a2f, beta = setup
        mf = a2f.mf_vertices()
        df = a2f.df_vertices()
        assert all(v.size <= beta for v in mf)
        assert all(v.size > beta for v in df)
        assert len(mf) + len(df) == len(a2f)

    def test_clusters_cover_df(self, setup):
        _, _, a2f, _ = setup
        clustered = set()
        for cluster in a2f.clusters:
            clustered.update(cluster.vertex_ids)
        assert clustered == {v.a2f_id for v in a2f.df_vertices()}

    def test_cluster_roots_have_no_df_parents(self, setup):
        _, _, a2f, beta = setup
        for cluster in a2f.clusters:
            for root in cluster.roots:
                v = a2f.vertex(root)
                assert all(a2f.vertex(p).size <= beta for p in v.parents)

    def test_leaf_cluster_lists(self, setup):
        """MF leaves (size == β) point to clusters holding their children."""
        _, _, a2f, beta = setup
        for v in a2f.mf_vertices():
            if v.size != beta:
                assert v.cluster_list == ()
                continue
            for cid in v.cluster_list:
                members = set(a2f.clusters[cid].vertex_ids)
                assert any(c in members for c in v.children)

    def test_spill_to_disk(self, setup, tmp_path):
        _, _, a2f, _ = setup
        paths = a2f.spill_df_index(tmp_path)
        assert len(paths) == len(a2f.clusters)
        assert all(p.exists() and p.stat().st_size > 0 for p in paths)


class TestValidation:
    def test_rejects_bad_beta(self, setup):
        _, frequent, _, _ = setup
        with pytest.raises(IndexError_):
            A2FIndex(frequent, 0)

    def test_rejects_non_closed_catalog(self, setup):
        _, frequent, _, _ = setup
        # Remove a size-1 fragment that has supergraphs: closure broken.
        broken = dict(frequent)
        small = min(broken.values(), key=lambda f: f.size)
        victim_code = small.code
        has_super = any(
            victim_code
            in {
                canonical_code(s)
                for s in __import__(
                    "repro.mining.dif", fromlist=["connected_one_smaller_subgraphs"]
                ).connected_one_smaller_subgraphs(f.graph)
            }
            for f in broken.values()
            if f.size == small.size + 1
        )
        del broken[victim_code]
        if has_super:
            with pytest.raises(IndexError_):
                A2FIndex(broken, 2)
