"""Index persistence and the size accounting behind Table II.

Covers the on-disk format (the catalog pickle and the fingerprint of the
database it was mined from), including the property that loading restores
indexes with the live indexes' A2F/A2I lookup results and
``pickled_size_bytes`` accounting."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import MiningParams
from repro.exceptions import ReproError
from repro.graph import canonical
from repro.graph.database import GraphDatabase
from repro.graph.labeled_graph import Graph
from repro.index import (
    a2f_size_bytes,
    a2i_size_bytes,
    build_indexes,
    load_indexes,
    pickled_size_bytes,
    prague_index_size_bytes,
    save_indexes,
)
from repro.testing import small_database


@pytest.fixture(scope="module")
def db():
    return small_database(seed=4, num_graphs=20, max_nodes=6)


@pytest.fixture(scope="module")
def idx(db):
    return build_indexes(db, MiningParams(0.2, 2, 4))


class TestSizes:
    def test_pickled_size_positive(self):
        assert pickled_size_bytes({"a": 1}) > 0

    def test_components_sum(self, idx):
        parts = a2f_size_bytes(idx)
        total = prague_index_size_bytes(idx)
        assert total == parts["mf_bytes"] + parts["df_bytes"] + a2i_size_bytes(idx)

    def test_mf_and_df_both_accounted(self, idx):
        parts = a2f_size_bytes(idx)
        assert parts["mf_bytes"] > 0
        # beta=2, max_edges=4 -> DF fragments exist in this corpus
        assert parts["df_bytes"] > 0

    def test_sizes_ignore_label_object_identity(self):
        """Pickle memoizes by identity: equal label strings that are
        distinct objects must not cost bytes of their own."""
        def relabelled(db):
            graphs = []
            for g in db:
                h = Graph()
                for node in g.nodes():
                    h.add_node(node, "".join(["", g.label(node)]))
                for u, v in g.edges():
                    h.add_edge(u, v, g.edge_label(u, v))
                graphs.append(h)
            return GraphDatabase(graphs)

        params = MiningParams(0.2, 3, 3)
        sizes = []
        for db in (small_database(seed=5, num_graphs=12),
                   relabelled(small_database(seed=5, num_graphs=12))):
            canonical.clear_cache()
            idx = build_indexes(db, params)
            sizes.append((a2f_size_bytes(idx), a2i_size_bytes(idx)))
        assert sizes[0] == sizes[1]


class TestSaveLoad:
    def test_round_trip(self, db, idx, tmp_path):
        path = tmp_path / "indexes.pkl"
        written = save_indexes(idx, path, db)
        assert written == path.stat().st_size
        loaded = load_indexes(path, db)
        assert set(loaded.frequent) == set(idx.frequent)
        assert set(loaded.difs) == set(idx.difs)
        assert loaded.params == idx.params
        assert loaded.db_size == idx.db_size

    def test_loaded_indexes_probe_identically(self, db, idx, tmp_path):
        path = tmp_path / "indexes.pkl"
        save_indexes(idx, path, db)
        loaded = load_indexes(path, db)
        for code in idx.frequent:
            a = idx.a2f.fsg_ids(idx.a2f.lookup(code))
            b = loaded.a2f.fsg_ids(loaded.a2f.lookup(code))
            assert a == b

    def test_catalog_refuses_another_database(self, db, idx, tmp_path):
        path = tmp_path / "indexes.pkl"
        save_indexes(idx, path, db)
        other = small_database(seed=5, num_graphs=20, max_nodes=6)
        assert len(other) == len(db)
        with pytest.raises(ReproError, match="different database"):
            load_indexes(path, other)

    def test_catalog_without_fingerprint_is_refused(self, db, idx, tmp_path):
        path = tmp_path / "indexes.pkl"
        path.write_bytes(pickle.dumps(
            (idx.frequent, idx.difs, idx.params, idx.db_size)
        ))
        with pytest.raises(ReproError, match="repro index"):
            load_indexes(path, db)


class TestSaveLoadProperty:
    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_save_load_parity_with_live_indexes(self, seed, tmp_path_factory):
        """Property: for any mined corpus, indexes loaded from the pickle
        format answer every A2F/A2I probe like the live indexes and account
        for the same sizes."""
        corpus = small_database(seed=seed, num_graphs=12, max_nodes=5)
        idx = build_indexes(corpus, MiningParams(0.25, 2, 4))
        out = tmp_path_factory.mktemp(f"fmt-{seed}")
        save_indexes(idx, out / "indexes.pkl", corpus)
        loaded = load_indexes(out / "indexes.pkl", corpus)

        assert set(loaded.frequent) == set(idx.frequent)
        assert set(loaded.difs) == set(idx.difs)
        for code in idx.frequent:
            live = idx.a2f.fsg_ids(idx.a2f.lookup(code))
            assert loaded.a2f.fsg_ids(loaded.a2f.lookup(code)) == live
        for code in idx.difs:
            live = idx.a2i.fsg_ids(idx.a2i.lookup(code))
            assert loaded.a2i.fsg_ids(loaded.a2i.lookup(code)) == live
        assert a2f_size_bytes(loaded) == a2f_size_bytes(idx)
        assert a2i_size_bytes(loaded) == a2i_size_bytes(idx)
        assert prague_index_size_bytes(loaded) == prague_index_size_bytes(idx)
