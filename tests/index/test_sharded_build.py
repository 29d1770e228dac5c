"""Sharded parallel index builds: equivalence to serial, determinism, knobs.

The pipeline's contract (:mod:`repro.index.sharded`): for any worker/shard
count, the merged catalogs contain exactly the serial mine's canonical codes
with exactly the serial FSG-id lists — sharding changes how the mining work
is partitioned, never what comes out.
"""

import pytest

from repro.config import MiningParams
from repro.graph.canonical import canonical_code
from repro.graph.database import GraphDatabase
from repro.index import build_indexes
from repro.index.sharded import merge_shard_catalogs, mine_sharded, partition_ids
from repro.mining.dif import mine_catalogs
from repro.testing import small_database

PARAMS = MiningParams(min_support=0.25, size_threshold=3, max_fragment_edges=4)


@pytest.fixture(scope="module")
def db():
    return small_database(seed=11, num_graphs=24, labels="ABC", max_nodes=7)


@pytest.fixture(scope="module")
def serial(db):
    min_sup = PARAMS.absolute_support(len(db))
    return mine_catalogs(db, min_sup, PARAMS.max_fragment_edges)


def _assert_equivalent(sharded_catalog, serial_catalog):
    assert set(sharded_catalog) == set(serial_catalog)
    for code, frag in serial_catalog.items():
        assert sharded_catalog[code].fsg_ids == frag.fsg_ids
    for code, frag in sharded_catalog.items():
        assert canonical_code(frag.graph) == code


class TestEquivalence:
    @pytest.mark.parametrize(
        "workers,shards", [(1, 2), (1, 3), (2, 0), (3, 0), (3, 5), (2, 7)]
    )
    def test_matches_serial_mine(self, db, serial, workers, shards):
        frequent, difs = mine_sharded(db, PARAMS, workers, shards)
        _assert_equivalent(frequent, serial[0])
        _assert_equivalent(difs, serial[1])

    def test_output_is_worker_count_invariant(self, db):
        a = mine_sharded(db, PARAMS, 1, shards=3)
        b = mine_sharded(db, PARAMS, 3, shards=3)
        assert list(a[0]) == list(b[0])  # same codes, same (sorted) order
        assert list(a[1]) == list(b[1])
        for catalog_a, catalog_b in zip(a, b):
            for code in catalog_a:
                assert catalog_a[code].fsg_ids == catalog_b[code].fsg_ids

    def test_output_is_shard_count_invariant(self, db):
        a = mine_sharded(db, PARAMS, 1, shards=2)
        b = mine_sharded(db, PARAMS, 1, shards=6)
        assert list(a[0]) == list(b[0])
        assert list(a[1]) == list(b[1])

    def test_more_shards_than_graphs(self, db, serial):
        frequent, difs = mine_sharded(db, PARAMS, 1, shards=len(db) + 10)
        _assert_equivalent(frequent, serial[0])
        _assert_equivalent(difs, serial[1])


class TestMerge:
    def test_merge_filters_locally_frequent_globally_infrequent(self, db, serial):
        """Shard miners over-approximate: their union holds fragments that a
        biased shard found frequent but the whole database does not.  The
        merge must recount them away and keep exactly the serial catalog."""
        import math

        from repro.index.sharded import _ShardView
        from repro.mining.gspan import GSpanMiner

        min_sup = PARAMS.absolute_support(len(db))
        shard_catalogs = []
        for part in partition_ids([gid for gid, _ in db.items()], 3):
            local = max(1, math.ceil(PARAMS.min_support * len(part)))
            shard_catalogs.append(
                GSpanMiner(
                    _ShardView(db, part), local, PARAMS.max_fragment_edges
                ).mine()
            )
        union = {code for cat in shard_catalogs for code in cat}
        assert union > set(serial[0])  # strictly more candidates than answers

        merged = merge_shard_catalogs(db, shard_catalogs, min_sup)
        _assert_equivalent(merged, serial[0])
        assert list(merged) == sorted(merged)  # deterministic order

    def test_merge_empty_inputs(self, db):
        min_sup = PARAMS.absolute_support(len(db))
        assert merge_shard_catalogs(db, [], min_sup) == {}


class TestDegenerate:
    def test_empty_database(self):
        frequent, difs = mine_sharded(GraphDatabase(), PARAMS, 4)
        assert frequent == {} and difs == {}

    def test_single_graph(self):
        db = small_database(seed=2, num_graphs=1, max_nodes=5)
        frequent, difs = mine_sharded(db, PARAMS, 4)
        min_sup = PARAMS.absolute_support(len(db))
        ref_frequent, ref_difs = mine_catalogs(
            db, min_sup, PARAMS.max_fragment_edges
        )
        assert set(frequent) == set(ref_frequent)
        assert set(difs) == set(ref_difs)

    def test_alpha_validated_before_mining(self, db):
        with pytest.raises(ValueError):
            mine_sharded(db, MiningParams(min_support=1.5), 2)


class TestPartition:
    def test_partitions_cover_and_are_disjoint(self):
        parts = partition_ids(range(23), 4)
        assert [gid for part in parts for gid in part] == list(range(23))
        assert len(parts) == 4
        assert max(len(p) for p in parts) - min(len(p) for p in parts) <= 1

    def test_clamped_to_population(self):
        assert partition_ids(range(3), 10) == [[0], [1], [2]]
        assert partition_ids([], 4) == [[]]


class TestProgressEvents:
    def test_sharded_build_reports_phases(self, db):
        events = []
        mine_sharded(
            db, PARAMS, 1, shards=3,
            progress=lambda kind, fields: events.append((kind, fields)),
        )
        kinds = [kind for kind, _ in events]
        assert kinds[0] == "index.build.start"
        assert kinds.count("index.build.shard") == 3
        assert "index.build.merge" in kinds
        assert kinds[-1] == "index.build.done"
        start = events[0][1]
        assert start["db_size"] == len(db) and start["shards"] == 3
        shards_seen = {f["shard"] for k, f in events if k == "index.build.shard"}
        assert shards_seen == {0, 1, 2}


class TestBuilderRouting:
    def test_env_knob_routes_to_sharded(self, db, serial, monkeypatch):
        monkeypatch.setenv("REPRO_BUILD_WORKERS", "2")
        idx = build_indexes(db, PARAMS)
        _assert_equivalent(idx.frequent, serial[0])
        _assert_equivalent(idx.difs, serial[1])

    def test_explicit_args_override_env(self, db, monkeypatch):
        monkeypatch.setenv("REPRO_BUILD_WORKERS", "1")
        events = []
        build_indexes(
            db, PARAMS, workers=1, shards=2,
            progress=lambda kind, fields: events.append(kind),
        )
        assert "index.build.merge" in events  # the sharded pipeline ran

    def test_default_stays_serial(self, db, monkeypatch):
        monkeypatch.delenv("REPRO_BUILD_WORKERS", raising=False)
        monkeypatch.delenv("REPRO_BUILD_SHARDS", raising=False)
        events = []
        idx = build_indexes(
            db, PARAMS, progress=lambda kind, fields: events.append(kind)
        )
        assert events == []  # serial path emits no sharded-build events
        assert len(idx.frequent) > 0

    def test_cache_round_trip_from_sharded_build(self, db, serial, tmp_path):
        first = build_indexes(db, PARAMS, cache_dir=tmp_path, workers=2)
        second = build_indexes(db, PARAMS, cache_dir=tmp_path)  # cache hit
        _assert_equivalent(second.frequent, serial[0])
        assert set(second.difs) == set(first.difs)
