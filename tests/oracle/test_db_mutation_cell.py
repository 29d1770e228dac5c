"""``db.add()`` between replays: answers must follow the database.

Two matrix cells that grow the database behind the indexes' back:

* after a pooled replay warmed the pool, one graph is appended; the pooled
  replay must still match the serial reference observation-for-observation
  (the pool is respawned with the grown database);
* a copy of every graph is appended with a bare ``db.add()`` — one that no
  :class:`~repro.index.maintenance.IncrementalIndexMaintainer` saw, so no
  FSG-id list mentions the copies — and every fuzzed session must still
  agree with the naive scan and with a fresh replay.

The corpora are private replicas — the shared ``corpus_for`` cache must
never see a mutated database.
"""

import warnings

import pytest

import repro.core.pool as pool_mod
from repro import obs
from repro.index import build_indexes
from repro.oracle import fresh_replay_check, naive_baseline_check
from repro.oracle.corpus import CorpusSpec, OracleCorpus
from repro.oracle.diff import first_divergence
from repro.oracle.fuzzer import generate_trace
from repro.oracle.replay import OracleConfig, replay_trace
from repro.testing import small_database


@pytest.fixture(autouse=True)
def _fresh_pool(monkeypatch):
    monkeypatch.setenv("REPRO_POOL_MIN_CANDIDATES", "16")
    pool_mod.shutdown()
    yield
    pool_mod.shutdown()


def _private_corpus(spec: CorpusSpec) -> OracleCorpus:
    db = small_database(
        seed=spec.seed,
        num_graphs=spec.num_graphs,
        labels=spec.labels,
        min_nodes=spec.min_nodes,
        max_nodes=spec.max_nodes,
    )
    return OracleCorpus(
        spec=spec, db=db, indexes=build_indexes(db, spec.mining_params())
    )


def test_db_add_invalidation_keeps_pooled_run_parity():
    spec = CorpusSpec(seed=31)
    trace = generate_trace(seed=3, spec=spec)  # two Runs that verify
    corpus = _private_corpus(spec)
    pooled = OracleConfig(workers=3)

    # First pooled replay: leaves a warm pool behind.
    with obs.trace():
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            replay_trace(trace, pooled, corpus=corpus)
        warm = obs.full_snapshot()["counters"]
    assert warm.get("verify.pool.spawns", 0) == 1
    assert warm.get("verify.pool.reuses", 0) >= 1

    corpus.db.add(corpus.db[0].copy())  # respawns on the next dispatch

    reference = replay_trace(trace, OracleConfig(workers=1), corpus=corpus)
    with obs.trace():
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            cell = replay_trace(trace, pooled, corpus=corpus)
        grown = obs.full_snapshot()["counters"]
    divergence = first_divergence(
        reference.observations, cell.observations,
        "workers=1", cell.config.name,
    )
    assert divergence is None
    # One respawn for the grown database, and never a fallback.
    assert grown.get("verify.pool.spawns", 0) == 1
    assert grown.get("verify.pool.respawns", 0) == 1
    assert grown.get("verify.pool.fallbacks", 0) == 0


def test_bare_appends_reach_every_answer():
    spec = CorpusSpec()
    corpus = _private_corpus(spec)
    for gid in list(corpus.db.ids()):
        corpus.db.add(corpus.db[gid].copy())
    assert corpus.indexes.db_size == len(corpus.db) // 2

    for seed in range(40):
        session = replay_trace(generate_trace(seed, spec), corpus=corpus)
        divergences = naive_baseline_check(session)
        divergences += fresh_replay_check(session)
        assert not divergences, f"seed {seed}:\n" + "\n\n".join(
            d.describe() for d in divergences
        )
