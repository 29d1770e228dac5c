"""Metric counters across the hot-path config matrix.

The counters must *tell the truth about which path ran*: with a pool
(``REPRO_WORKERS=3``) and a large batch the pool counters move, serially the
serial counter does; engine action samples and SPIG counters are the same
whatever the worker count.
"""

import pytest

from repro import obs
from repro.core.verification import verify_batch
from repro.oracle.fuzzer import generate_trace
from repro.oracle.replay import OracleConfig, applied, replay_trace
from repro.testing import sample_subgraph

CONFIGS = [
    OracleConfig(canonical_cache=True, workers=workers)
    for workers in (1, 3)
]


def _ids(config):
    return config.name


@pytest.mark.parametrize("config", CONFIGS, ids=_ids)
class TestPathCountersAcrossMatrix:
    def test_engine_action_counters_cover_the_session(self, config):
        trace = generate_trace(seed=5)
        with applied(config), obs.trace():
            replay_trace(trace, config)
            histograms = obs.full_snapshot()["histograms"]
        action_total = sum(
            summary["count"]
            for name, summary in histograms.items()
            if name.startswith("action.")
        )
        # every engine-processed gesture records itself exactly once, and a
        # fuzzed trace always ends in at least one run
        assert action_total > 0
        assert histograms.get("action.run", {}).get("count", 0) >= 1

    def test_counters_identical_across_configs_where_shared(self, config):
        """SPIG construction volume is knob-independent."""
        trace = generate_trace(seed=5)
        reference = OracleConfig(canonical_cache=True, workers=1)
        with applied(reference), obs.trace():
            replay_trace(trace, reference)
            base = obs.full_snapshot()["counters"]
        with applied(config), obs.trace():
            replay_trace(trace, config)
            other = obs.full_snapshot()["counters"]
        assert other.get("spig.vertices.created") == base.get(
            "spig.vertices.created"
        )


class TestVerificationPoolCounters:
    @pytest.fixture(autouse=True)
    def _pool_floor_16(self, monkeypatch):
        # The default REPRO_POOL_MIN_CANDIDATES (64) exceeds the 30-graph
        # corpus; pin it down so the pool-path tests actually pool.
        monkeypatch.setenv("REPRO_POOL_MIN_CANDIDATES", "16")

    @pytest.fixture
    def batch(self, small_db):
        import random

        pattern = sample_subgraph(random.Random(3), small_db, 2, 3)
        return pattern, list(small_db.ids())  # 30 ids >= the parallel floor

    def test_serial_path_counts_serial(self, batch, small_db):
        pattern, ids = batch
        with obs.trace():
            result = verify_batch(pattern, ids, small_db, workers=1)
            counters = obs.full_snapshot()["counters"]
        assert counters.get("verify.serial", 0) >= 1
        assert counters.get("verify.pool.runs", 0) == 0
        assert result  # a sampled subgraph matches its source at least

    def test_pool_path_counts_runs_and_chunks(self, batch, small_db):
        pattern, ids = batch
        with obs.trace():
            pooled = verify_batch(pattern, ids, small_db, workers=3)
            snapshot = obs.full_snapshot()
        counters = snapshot["counters"]
        pool_ran = counters.get("verify.pool.runs", 0) >= 1
        fell_back = counters.get("verify.pool.fallbacks", 0) >= 1
        assert pool_ran
        if not fell_back:
            assert snapshot["histograms"]["verify.chunk"]["count"] >= 2
        with obs.trace():
            serial = verify_batch(pattern, ids, small_db, workers=1)
        assert pooled == serial

    def test_small_batches_never_touch_the_pool(self, small_db):
        import random

        pattern = sample_subgraph(random.Random(3), small_db, 2, 3)
        with obs.trace():
            verify_batch(pattern, [0, 1, 2], small_db, workers=3)
            counters = obs.full_snapshot()["counters"]
        assert counters.get("verify.pool.runs", 0) == 0
        assert counters.get("verify.serial", 0) >= 1


class TestCanonicalBridge:
    def test_snapshot_merges_canonical_cache_stats(self):
        from repro.graph import canonical
        from repro.testing import small_database

        canonical.clear_cache()
        db = small_database(seed=11, num_graphs=4)
        with obs.trace():
            for g in db:
                canonical.canonical_code(g)
            snapshot = obs.full_snapshot()
        counters = snapshot["counters"]
        total = (
            counters.get("canonical.graph_hits", 0)
            + counters.get("canonical.lru_hits", 0)
            + counters.get("canonical.misses", 0)
        )
        assert total >= len(db)
        assert "canonical.lru_size" in snapshot["gauges"]
