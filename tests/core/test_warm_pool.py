"""The warm verification pool and the shared-memory arena, end to end.

Lifecycle (spawn once, reuse, respawn on reconfigure/TTL/breakage), the
candidate-count floor, arena invalidation on ``db.add()``, the postmortem
rate limiter, and answer invariance: serial and warm-pool verification must
return byte-identical results — through plain ``verify_batch`` calls and
through the differential oracle's full-session replay.
"""

import os
import time
import warnings
from unittest import mock

import pytest

import repro.core.pool as pool_mod
import repro.core.verification as verif
from repro import obs
from repro.core.verification import sim_verify_scan, verify_batch
from repro.datasets import generate_aids_like
from repro.graph.generators import random_connected_subgraph
from repro.obs.recorder import RECORDER
from repro.oracle.diff import first_divergence
from repro.oracle.fuzzer import generate_trace
from repro.oracle.replay import OracleConfig, replay_trace
from repro.testing import small_database


@pytest.fixture(autouse=True)
def _fresh_pool(monkeypatch):
    """Every test starts and ends poolless, with a low dispatch floor."""
    monkeypatch.setenv("REPRO_POOL_MIN_CANDIDATES", "16")
    pool_mod.shutdown()
    yield
    pool_mod.shutdown()


@pytest.fixture(scope="module")
def corpus():
    return generate_aids_like(60, seed=11)


def _query(db, seed, edges=4):
    import random

    rng = random.Random(seed)
    while True:
        g = db[rng.randrange(len(db))]
        sub = random_connected_subgraph(rng, g, min(edges, g.num_edges))
        if sub is not None:
            return sub


class TestWarmPoolLifecycle:
    def test_second_dispatch_reuses_the_pool(self, corpus):
        query = _query(corpus, seed=1)
        ids = list(corpus.ids())
        with obs.trace():
            first = verify_batch(query, ids, corpus, workers=2)
            second = verify_batch(query, ids, corpus, workers=2)
            counters = obs.full_snapshot()["counters"]
        assert first == second
        assert counters.get("verify.pool.spawns", 0) == 1
        assert counters.get("verify.pool.reuses", 0) == 1

    def test_worker_count_change_respawns(self, corpus):
        query = _query(corpus, seed=2)
        ids = list(corpus.ids())
        with obs.trace():
            verify_batch(query, ids, corpus, workers=2)
            verify_batch(query, ids, corpus, workers=3)
            counters = obs.full_snapshot()["counters"]
        assert counters.get("verify.pool.spawns", 0) == 2
        assert counters.get("verify.pool.respawns", 0) == 1

    def test_idle_ttl_recycles_the_pool(self, corpus, monkeypatch):
        monkeypatch.setenv("REPRO_POOL_TTL", "0.01")
        query = _query(corpus, seed=3)
        ids = list(corpus.ids())
        with obs.trace():
            verify_batch(query, ids, corpus, workers=2)
            time.sleep(0.05)
            verify_batch(query, ids, corpus, workers=2)
            counters = obs.full_snapshot()["counters"]
        assert counters.get("verify.pool.expired", 0) == 1
        assert counters.get("verify.pool.spawns", 0) == 2

    def test_ttl_zero_disables_expiry(self, corpus, monkeypatch):
        monkeypatch.setenv("REPRO_POOL_TTL", "0")
        query = _query(corpus, seed=3)
        ids = list(corpus.ids())
        with obs.trace():
            verify_batch(query, ids, corpus, workers=2)
            time.sleep(0.02)
            verify_batch(query, ids, corpus, workers=2)
            counters = obs.full_snapshot()["counters"]
        assert counters.get("verify.pool.expired", 0) == 0
        assert counters.get("verify.pool.reuses", 0) == 1

    def test_broken_pool_is_respawned_on_next_dispatch(
        self, corpus, small_arena
    ):
        ids = list(range(32))
        with pytest.warns(RuntimeWarning, match="serial"):
            out = verif._run_batch(
                _identity_worker,
                lambda chunk: (chunk, lambda g: g),  # lambda: unpicklable
                ids,
                workers=2,
                arena=small_arena,
            )
        assert out == ids
        # The failed dispatch tore the pool down; the next one respawns
        # cleanly and succeeds without a fallback.
        query = _query(corpus, seed=4)
        with obs.trace():
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                pooled = verify_batch(
                    query, list(corpus.ids()), corpus, workers=2
                )
            counters = obs.full_snapshot()["counters"]
        assert counters.get("verify.pool.fallbacks", 0) == 0
        assert pooled == verify_batch(
            query, list(corpus.ids()), corpus, workers=1
        )

    def test_shutdown_unlinks_published_arenas(self, corpus):
        from multiprocessing import shared_memory

        query = _query(corpus, seed=5)
        verify_batch(query, list(corpus.ids()), corpus, workers=2)
        arena = pool_mod.arena_for(corpus)
        if arena is None:
            pytest.skip("shared memory unavailable on this platform")
        name = arena.publish()
        pool_mod.shutdown()
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)


class TestDispatchFloor:
    def test_small_batches_stay_serial(self, corpus, monkeypatch):
        monkeypatch.setenv("REPRO_POOL_MIN_CANDIDATES", "1000")
        query = _query(corpus, seed=6)
        with obs.trace():
            verify_batch(query, list(corpus.ids()), corpus, workers=4)
            counters = obs.full_snapshot()["counters"]
        assert counters.get("verify.serial", 0) == 1
        assert counters.get("verify.pool.runs", 0) == 0

    def test_floor_is_inclusive_below(self, corpus, monkeypatch):
        monkeypatch.setenv("REPRO_POOL_MIN_CANDIDATES", "16")
        query = _query(corpus, seed=6)
        with obs.trace():
            verify_batch(query, list(corpus.ids())[:15], corpus, workers=4)
            counters = obs.full_snapshot()["counters"]
        assert counters.get("verify.serial", 0) == 1
        assert counters.get("verify.pool.runs", 0) == 0


class TestArenaPlane:
    def test_db_add_invalidates_the_arena(self):
        db = small_database(seed=21, num_graphs=20)
        first = pool_mod.arena_for(db)
        if first is None:
            pytest.skip("shared memory unavailable on this platform")
        version = first.version
        assert pool_mod.arena_for(db) is first  # stable while db is stable
        db.add(db[0].copy())
        second = pool_mod.arena_for(db)
        assert second is not first
        assert second.version != version
        pool_mod.shutdown()

    def test_resolve_distinguishes_mismatch_from_missing_attach(
        self, monkeypatch
    ):
        """Regression: a stale forked worker's version mismatch used to be
        reported as 'worker initializer failed?'."""
        class _Stub:
            version = "stale-version"

            def items(self, ids):  # pragma: no cover - never reached
                raise AssertionError

        payload = (pool_mod.ARENA_REF, "fresh-version", [1, 2])
        monkeypatch.setattr(pool_mod, "_WORKER_ARENA", _Stub())
        with obs.trace():
            with pytest.raises(RuntimeError, match="version mismatch"):
                pool_mod.resolve_items(payload)
            counters = obs.full_snapshot()["counters"]
        assert counters.get("arena.version_mismatch", 0) == 1

        monkeypatch.setattr(pool_mod, "_WORKER_ARENA", None)
        with pytest.raises(RuntimeError, match="no arena attached"):
            pool_mod.resolve_items(payload)


class TestAnswerInvariance:
    def test_verify_batch_matches_serial(self, corpus):
        query = _query(corpus, seed=7)
        ids = list(corpus.ids())
        serial = verify_batch(query, ids, corpus, workers=1)
        pooled = verify_batch(query, ids, corpus, workers=4)
        assert pooled == serial

    def test_sim_verify_scan_matches_serial(self, corpus):
        fragments = [_query(corpus, seed=s, edges=3) for s in (8, 9)]
        ids = list(corpus.ids())
        serial = sim_verify_scan(fragments, ids, corpus, workers=1)
        pooled = sim_verify_scan(fragments, ids, corpus, workers=4)
        assert pooled == serial

    def test_oracle_replay_divergence_free(self):
        """Full-session acceptance: a replay at workers=4 is
        observation-identical to the serial reference."""
        trace = generate_trace(seed=13)
        reference = replay_trace(trace, OracleConfig(workers=1))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            cell = replay_trace(trace, OracleConfig(workers=4))
        divergence = first_divergence(
            reference.observations, cell.observations,
            "workers=1", cell.config.name,
        )
        assert divergence is None


class TestPostmortemRateLimit:
    def test_one_bundle_per_exception_type(self, tmp_path, small_arena):
        verif.reset_postmortem_limiter()
        RECORDER.force(True)
        RECORDER.reset()
        try:
            with mock.patch.dict(
                os.environ, {"REPRO_POSTMORTEM_DIR": str(tmp_path)}
            ):
                for _ in range(3):
                    with pytest.warns(RuntimeWarning, match="serial"):
                        verif._run_batch(
                            _identity_worker,
                            lambda chunk: (chunk, lambda g: g),
                            list(range(32)),
                            workers=2,
                            arena=small_arena,
                        )
        finally:
            RECORDER.force(None)
            RECORDER.reset()
        assert len(list(tmp_path.glob("postmortem-*.json"))) == 1

    def test_unwritten_bundle_does_not_consume_the_slot(
        self, tmp_path, small_arena
    ):
        verif.reset_postmortem_limiter()
        RECORDER.force(True)
        RECORDER.reset()
        try:
            # First fallback: no dir configured, nothing written...
            with mock.patch.dict(os.environ, {"REPRO_POSTMORTEM_DIR": ""}):
                with pytest.warns(RuntimeWarning, match="serial"):
                    verif._run_batch(
                        _identity_worker,
                        lambda chunk: (chunk, lambda g: g),
                        list(range(16)),
                        workers=2,
                        arena=small_arena,
                    )
            # ...so the same exception type still dumps once a dir exists.
            with mock.patch.dict(
                os.environ, {"REPRO_POSTMORTEM_DIR": str(tmp_path)}
            ):
                with pytest.warns(RuntimeWarning, match="serial"):
                    verif._run_batch(
                        _identity_worker,
                        lambda chunk: (chunk, lambda g: g),
                        list(range(16)),
                        workers=2,
                        arena=small_arena,
                    )
        finally:
            RECORDER.force(None)
            RECORDER.reset()
        assert len(list(tmp_path.glob("postmortem-*.json"))) == 1

    def test_reset_reopens_the_slot(self, tmp_path, small_arena):
        verif.reset_postmortem_limiter()
        RECORDER.force(True)
        RECORDER.reset()
        try:
            with mock.patch.dict(
                os.environ, {"REPRO_POSTMORTEM_DIR": str(tmp_path)}
            ):
                for _ in range(2):
                    verif.reset_postmortem_limiter()
                    with pytest.warns(RuntimeWarning, match="serial"):
                        verif._run_batch(
                            _identity_worker,
                            lambda chunk: (chunk, lambda g: g),
                            list(range(16)),
                            workers=2,
                            arena=small_arena,
                        )
        finally:
            RECORDER.force(None)
            RECORDER.reset()
        assert len(list(tmp_path.glob("postmortem-*.json"))) == 2


def _identity_worker(payload):
    chunk, transform = payload
    return [transform(gid) for gid in chunk]


_SIGTERM_CHILD = r"""
import glob, json, os, signal, sys, time

# Like the service's serve_forever: SIGTERM only sets a stop flag.
signal.signal(signal.SIGTERM, lambda signum, frame: None)

from multiprocessing.connection import wait

from repro.core.pool import WarmPool
from repro.index.arena import IndexArena
from repro.testing import small_database


def rendezvous(prefix):
    # Returns once both workers run a task, i.e. both have initialized.
    open(f"{prefix}.{os.getpid()}", "w").close()
    deadline = time.monotonic() + 10.0
    while len(glob.glob(prefix + ".*")) < 2 and time.monotonic() < deadline:
        time.sleep(0.01)
    return os.getpid()


def busy(marker):
    open(marker, "w").close()
    time.sleep(60)


# The workers attach to a published arena.  os._exit below skips the atexit
# unlink, so this process disposes of the segment itself.
arena = IndexArena.build(small_database(seed=0, num_graphs=4))
assert arena.publish() is not None, "shared memory unavailable"
try:
    # 1. Idle workers die on SIGTERM.  (This pool is left behind: CPython's
    #    pool cannot recover from a worker killed while it held the
    #    task-queue lock, which an idle worker always does.)
    idle = WarmPool()
    pids = idle.map(rendezvous, [sys.argv[1] + ".ready"] * 2, 2, arena)
    assert len(set(pids)) == 2
    workers = list(idle._pool._pool)
    for proc in workers:
        os.kill(proc.pid, signal.SIGTERM)
    # Exit shows on each worker's sentinel; its exit code is no witness,
    # since the pool's own thread may reap the worker first.
    pending = {proc.sentinel: proc.pid for proc in workers}
    deadline = time.monotonic() + 5.0
    while pending and time.monotonic() < deadline:
        for ready in wait(list(pending), timeout=deadline - time.monotonic()):
            del pending[ready]
    survivors = sorted(pending.values())
    print(json.dumps({"survivors": survivors}), flush=True)

    # 2. shutdown() returns while workers are mid-task: terminate() takes
    #    the task-queue lock for good, so only SIGTERM can stop these
    #    workers.
    pool = WarmPool()
    assert pool.map(abs, [-1, -2], 2, arena) == [1, 2]
    markers = [sys.argv[1] + f".{i}" for i in range(2)]
    pool._pool.map_async(busy, markers, chunksize=1)
    deadline = time.monotonic() + 5.0
    while not all(os.path.exists(m) for m in markers):
        assert time.monotonic() < deadline, "workers never started"
        time.sleep(0.01)
    start = time.monotonic()
    pool.shutdown()
    print(json.dumps({"shutdown_s": time.monotonic() - start}), flush=True)
finally:
    arena.dispose()
os._exit(0)
"""


class TestWorkerSignals:
    def test_workers_die_on_sigterm_under_a_parent_handler(self, tmp_path):
        """A parent with a Python SIGTERM handler (the service) forks its
        workers after installing it; the workers must still die on SIGTERM,
        or ``Pool.terminate()`` (which joins without a timeout) hangs."""
        import json
        import signal
        import subprocess
        import sys

        import repro

        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        # Output goes to files, not pipes: the left-behind pool's workers
        # inherit them and would hold a pipe open until they are killed.
        out_path, err_path = tmp_path / "out", tmp_path / "err"
        with open(out_path, "w") as out, open(err_path, "w") as err:
            proc = subprocess.Popen(
                [sys.executable, "-c", _SIGTERM_CHILD, str(tmp_path / "busy")],
                stdout=out, stderr=err, env=env, start_new_session=True,
            )
        try:
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                pass
            out, err = out_path.read_text(), err_path.read_text()
            lines = [json.loads(line) for line in out.splitlines() if line]
            assert lines, f"child printed nothing (stderr: {err[-500:]})"
            assert lines[0]["survivors"] == [], "workers survived SIGTERM"
            assert len(lines) == 2, "shutdown() hung with busy workers"
            assert lines[1]["shutdown_s"] < 5.0
            assert proc.returncode == 0, err[-500:]
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
