"""Index builder: assembly, parameterisation, content-hash caching."""

import pytest

from repro.config import MiningParams
from repro.graph import GraphDatabase
from repro.index import build_indexes, database_fingerprint
from repro.testing import brute_force_frequent, small_database


@pytest.fixture(scope="module")
def db():
    return small_database(seed=4, num_graphs=20, max_nodes=6)


class TestBuild:
    def test_catalogs_consistent_with_indexes(self, db):
        idx = build_indexes(db, MiningParams(0.2, 2, 4))
        assert len(idx.a2f) == len(idx.frequent)
        assert len(idx.a2i) == len(idx.difs)
        assert idx.db_size == len(db)

    def test_absolute_support(self, db):
        idx = build_indexes(db, MiningParams(0.2, 2, 4))
        assert idx.min_support_abs == 4  # ceil(0.2 * 20)

    def test_alpha_bounds_enforced(self, db):
        with pytest.raises(ValueError):
            build_indexes(db, MiningParams(min_support=1.5))

    def test_default_params(self, db):
        idx = build_indexes(db)
        assert idx.params.min_support == 0.1


class TestDegenerate:
    def test_empty_database(self):
        idx = build_indexes(GraphDatabase(), MiningParams(0.2, 2, 4))
        assert idx.frequent == {} and idx.difs == {}
        assert idx.db_size == 0

    def test_single_graph(self):
        """Support 1: every fragment of the one graph is frequent, and every
        DIF occurs nowhere."""
        db = small_database(seed=2, num_graphs=1, max_nodes=5)
        idx = build_indexes(db, MiningParams(0.2, 2, 4))
        assert idx.min_support_abs == 1
        truth = brute_force_frequent(db, 1, 4)
        assert set(idx.frequent) == set(truth)
        assert all(f.fsg_ids == {0} for f in idx.frequent.values())
        assert idx.difs and all(not f.fsg_ids for f in idx.difs.values())

    def test_alpha_validated_before_mining(self, db, monkeypatch):
        """An out-of-range alpha is refused before any mining starts."""

        def refuse(*args, **kwargs):
            raise AssertionError("mined with an invalid alpha")

        monkeypatch.setattr("repro.index.builder.mine_catalogs", refuse)
        with pytest.raises(ValueError):
            build_indexes(db, MiningParams(min_support=1.5))


class TestCaching:
    def test_cache_round_trip(self, db, tmp_path):
        params = MiningParams(0.2, 2, 4)
        first = build_indexes(db, params, cache_dir=tmp_path)
        files = list(tmp_path.glob("indexes_*.pkl"))
        assert len(files) == 1
        second = build_indexes(db, params, cache_dir=tmp_path)
        assert set(second.frequent) == set(first.frequent)
        assert set(second.difs) == set(first.difs)
        for code, frag in first.frequent.items():
            assert second.frequent[code].fsg_ids == frag.fsg_ids

    def test_fingerprint_depends_on_params(self, db):
        fp1 = database_fingerprint(db, MiningParams(0.2, 2, 4))
        fp2 = database_fingerprint(db, MiningParams(0.3, 2, 4))
        assert fp1 != fp2

    def test_fingerprint_depends_on_contents(self, db):
        other = small_database(seed=5, num_graphs=20, max_nodes=6)
        params = MiningParams(0.2, 2, 4)
        assert database_fingerprint(db, params) != database_fingerprint(
            other, params
        )

    def test_fingerprint_stable(self, db):
        params = MiningParams(0.2, 2, 4)
        assert database_fingerprint(db, params) == database_fingerprint(db, params)
