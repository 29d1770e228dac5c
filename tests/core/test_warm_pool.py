"""The warm verification pool, end to end.

Lifecycle (spawn once, reuse, respawn on reconfigure/TTL/breakage), the
candidate-count floor, the respawn on ``db.add()`` and the worker-side
database length check, the postmortem rate limiter, worker signals and
killed workers, and answer invariance: serial and warm-pool verification
must return byte-identical results — through plain ``verify_batch`` calls
and through the differential oracle's full-session replay.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time
import warnings
from concurrent.futures.process import _ExecutorManagerThread
from unittest import mock

import pytest

import repro
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

    def test_small_batches_reuse_the_configured_pool(
        self, corpus, monkeypatch
    ):
        """A batch with fewer candidates than workers runs on the pool of
        the configured size; it does not fork a smaller one."""
        monkeypatch.setenv("REPRO_POOL_MIN_CANDIDATES", "1")
        query = _query(corpus, seed=2)
        ids = list(corpus.ids())
        with obs.trace():
            for n in (2, 10, 2, 10):
                assert verify_batch(query, ids[:n], corpus, workers=3) == \
                    verify_batch(query, ids[:n], corpus, workers=1)
            counters = obs.full_snapshot()["counters"]
        assert counters.get("verify.pool.runs", 0) == 4
        assert counters.get("verify.pool.spawns", 0) == 1
        assert counters.get("verify.pool.respawns", 0) == 0

    def test_idle_ttl_recycles_the_pool(self, corpus, monkeypatch):
        monkeypatch.setattr(pool_mod.POOL, "ttl_s", 0.01)
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
        monkeypatch.setattr(pool_mod.POOL, "ttl_s", 0.0)
        query = _query(corpus, seed=3)
        ids = list(corpus.ids())
        with obs.trace():
            verify_batch(query, ids, corpus, workers=2)
            time.sleep(0.02)
            verify_batch(query, ids, corpus, workers=2)
            counters = obs.full_snapshot()["counters"]
        assert counters.get("verify.pool.expired", 0) == 0
        assert counters.get("verify.pool.reuses", 0) == 1

    def test_broken_pool_is_respawned_on_next_dispatch(self, corpus):
        ids = list(range(32))
        with pytest.warns(RuntimeWarning, match="BrokenProcessPool"):
            out = verif._run_batch(
                _exit_in_worker,
                lambda chunk: (chunk, os.getpid()),
                ids,
                workers=2,
                db=corpus,
            )
        assert out == ids
        # The dead worker broke the pool; the next dispatch respawns it
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
        assert counters.get("verify.pool.respawns", 0) == 1
        assert pooled == verify_batch(
            query, list(corpus.ids()), corpus, workers=1
        )


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


class TestDatabaseGrowth:
    def test_db_add_respawns_the_pool(self):
        db = small_database(seed=21, num_graphs=20)
        query = _query(db, seed=5, edges=3)
        with obs.trace():
            first = verify_batch(query, list(db.ids()), db, workers=2)
            assert first, "the query is a subgraph of a database graph"
            appended = db.add(db[first[0]].copy())
            second = verify_batch(query, list(db.ids()), db, workers=2)
            counters = obs.full_snapshot()["counters"]
        # Only workers forked after the append can see the new graph.
        assert second == first + [appended]
        assert counters.get("verify.pool.spawns", 0) == 2
        assert counters.get("verify.pool.respawns", 0) == 1
        assert counters.get("verify.pool.fallbacks", 0) == 0

    def test_stale_chunk_raises_and_falls_back(self, monkeypatch):
        """A ``db.add()`` that lands after the chunks were cut respawns the
        pool with more graphs than the chunks claim: the workers refuse
        them, and the batch is answered serially."""
        db = small_database(seed=22, num_graphs=20)
        query = _query(db, seed=6, edges=3)
        ids = list(db.ids())
        serial = verify_batch(query, ids, db, workers=1)

        def cut_then_append(chunk):
            if len(db) == len(ids):
                db.add(db[0].copy())
            return (query, chunk)

        monkeypatch.setattr(RECORDER, "enabled", True)
        RECORDER.reset()
        try:
            with pytest.warns(RuntimeWarning, match="serial"):
                out = verif._run_batch(
                    verif._verify_chunk, cut_then_append, ids,
                    workers=2, db=db,
                )
            events = RECORDER.snapshot()
        finally:
            RECORDER.reset()
        assert out == serial
        fallback = next(e for e in events if e["kind"] == "pool.fallback")
        assert fallback["cause"] == (
            "RuntimeError: database length mismatch: the worker holds "
            f"{len(ids) + 1} graphs but the chunk was cut from {len(ids)}"
        )


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
    def test_one_bundle_per_exception_type(
        self, tmp_path, small_db, monkeypatch
    ):
        verif.reset_postmortem_limiter()
        monkeypatch.setattr(RECORDER, "enabled", True)
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
                            db=small_db,
                        )
        finally:
            RECORDER.reset()
        assert len(list(tmp_path.glob("postmortem-*.json"))) == 1

    def test_unwritten_bundle_does_not_consume_the_slot(
        self, tmp_path, small_db, monkeypatch
    ):
        verif.reset_postmortem_limiter()
        monkeypatch.setattr(RECORDER, "enabled", True)
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
                        db=small_db,
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
                        db=small_db,
                    )
        finally:
            RECORDER.reset()
        assert len(list(tmp_path.glob("postmortem-*.json"))) == 1

    def test_reset_reopens_the_slot(self, tmp_path, small_db, monkeypatch):
        verif.reset_postmortem_limiter()
        monkeypatch.setattr(RECORDER, "enabled", True)
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
                            db=small_db,
                        )
        finally:
            RECORDER.reset()
        assert len(list(tmp_path.glob("postmortem-*.json"))) == 2


def _fail_first(payload):
    """Chunk 0 raises at once; every other chunk sleeps ``delay`` seconds."""
    index, delay = payload
    if index == 0:
        raise ValueError("chunk 0 fails")
    time.sleep(delay)
    return index


class TestFailedDispatch:
    def test_failed_dispatch_kills_no_executor_thread(self, monkeypatch):
        """A chunk raises while others wait behind it: the pool is torn down
        and the error propagates, but no thread dies.  Cancelling the queued
        chunks let CPython 3.11's ``terminate_broken`` fail a cancelled
        future, which killed the executor's management thread with
        ``InvalidStateError`` in 5-10 of every 100 such dispatches on a
        2-CPU box, hence the repetition."""
        died = []
        monkeypatch.setattr(threading, "excepthook", died.append)
        db = small_database(seed=0, num_graphs=4)
        pool = pool_mod.WarmPool()
        payloads = [(i, 0.002) for i in range(8)]
        try:
            for _ in range(80):
                with pytest.raises(ValueError, match="chunk 0 fails"):
                    pool.map(_fail_first, payloads, 2, db)
                for thread in threading.enumerate():
                    if isinstance(thread, _ExecutorManagerThread):
                        thread.join(5.0)
        finally:
            pool.shutdown()
        assert not died, [f"{a.thread}: {a.exc_value!r}" for a in died]

    def test_stopping_waits_for_the_management_thread(self):
        """The thread holds the executor's shutdown lock while it winds
        down.  A worker of the next pool forked meanwhile inherits the lock
        held, and blocks for good when its collector frees its copy of the
        old executor, whose weakref callback takes that lock."""
        db = small_database(seed=0, num_graphs=4)
        pool = pool_mod.WarmPool()
        try:
            assert pool.map(_fail_first, [(1, 0.0), (2, 0.0)], 2, db) == [1, 2]
            manager = pool._executor._executor_manager_thread
        finally:
            pool.shutdown()
        assert not manager.is_alive()


def _identity_worker(db, payload):
    chunk, transform = payload
    return [transform(gid) for gid in chunk], []


def _exit_in_worker(db, payload):
    """Dies on a pool worker; the in-process fallback returns the ids."""
    chunk, parent = payload
    if os.getpid() != parent:
        os._exit(1)
    return list(chunk), []




def _run_child(script, tmp_path, timeout=30.0):
    """Run ``script`` in a fresh interpreter and process group.

    Returns its JSON output lines, its stderr and its exit code (``None``
    when it was still running at ``timeout``).  Output goes to files, not
    pipes: a worker the child leaves behind would hold a pipe open.
    """
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    out_path, err_path = tmp_path / "out", tmp_path / "err"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        proc = subprocess.Popen(
            [sys.executable, "-c", script, str(tmp_path / "mark")],
            stdout=out, stderr=err, env=env, start_new_session=True,
        )
    try:
        returncode = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        returncode = None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    lines = [json.loads(line) for line in out_path.read_text().splitlines()
             if line]
    return lines, err_path.read_text(), returncode


_SIGTERM_CHILD = r"""
import glob, json, os, signal, sys, time

# Like the service's serve_forever: SIGTERM only sets a stop flag.
signal.signal(signal.SIGTERM, lambda signum, frame: None)

from multiprocessing.connection import wait

from repro.core.pool import WarmPool
from repro.testing import small_database

db = small_database(seed=0, num_graphs=4)


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


# 1. Idle workers die on SIGTERM, and their pool still shuts down.
idle = WarmPool()
pids = idle.map(rendezvous, [sys.argv[1] + ".ready"] * 2, 2, db)
assert len(set(pids)) == 2
workers = list(idle._executor._processes.values())
for proc in workers:
    os.kill(proc.pid, signal.SIGTERM)
# Exit shows on each worker's sentinel; its exit code is no witness, since
# the executor's own thread may reap the worker first.
pending = {proc.sentinel: proc.pid for proc in workers}
deadline = time.monotonic() + 5.0
while pending and time.monotonic() < deadline:
    for ready in wait(list(pending), timeout=deadline - time.monotonic()):
        del pending[ready]
idle.shutdown()
print(json.dumps({"survivors": sorted(pending.values())}), flush=True)

# 2. shutdown() returns while workers are mid-task.
pool = WarmPool()
assert pool.map(abs, [-1, -2], 2, db) == [1, 2]
markers = [sys.argv[1] + f".{i}" for i in range(2)]
for marker in markers:
    pool._executor.submit(busy, marker)
deadline = time.monotonic() + 5.0
while not all(os.path.exists(m) for m in markers):
    assert time.monotonic() < deadline, "workers never started"
    time.sleep(0.01)
start = time.monotonic()
pool.shutdown()
print(json.dumps({"shutdown_s": time.monotonic() - start}), flush=True)
"""


class TestWorkerSignals:
    def test_workers_die_on_sigterm_under_a_parent_handler(self, tmp_path):
        """A parent with a Python SIGTERM handler (the service) forks its
        workers after installing it; the workers must still die on SIGTERM,
        which is how ``shutdown()`` stops them, busy or idle."""
        lines, err, returncode = _run_child(_SIGTERM_CHILD, tmp_path)
        assert lines, f"child printed nothing (stderr: {err[-500:]})"
        assert lines[0]["survivors"] == [], "workers survived SIGTERM"
        assert len(lines) == 2, "shutdown() hung with busy workers"
        assert lines[1]["shutdown_s"] < 5.0
        # A clean exit: no pool was left behind for interpreter exit to join.
        assert returncode == 0, err[-500:]


_IDLE_KILL_CHILD = r"""
import json, multiprocessing, os, signal, time
from multiprocessing.connection import wait

os.environ["REPRO_POOL_MIN_CANDIDATES"] = "1"

from repro import obs
from repro.core import pool
from repro.core.verification import verify_batch
from repro.testing import small_database

db = small_database(seed=0, num_graphs=30)
query, ids = db[0], list(db.ids())
serial = verify_batch(query, ids, db, workers=1)
assert verify_batch(query, ids, db, workers=2) == serial  # spawns the pool

workers = multiprocessing.active_children()
assert len(workers) == 2, workers
for proc in workers:
    os.kill(proc.pid, signal.SIGKILL)
pending = [proc.sentinel for proc in workers]
deadline = time.monotonic() + 5.0
while pending and time.monotonic() < deadline:
    for ready in wait(pending, timeout=max(0.0, deadline - time.monotonic())):
        pending.remove(ready)
assert not pending, "workers survived SIGKILL"

start = time.monotonic()
answer = verify_batch(query, ids, db, workers=2)
print(json.dumps({"run_s": time.monotonic() - start,
                  "correct": answer == serial}), flush=True)

start = time.monotonic()
pool.shutdown()
print(json.dumps({"shutdown_s": time.monotonic() - start}), flush=True)

with obs.trace():
    answer = verify_batch(query, ids, db, workers=2)
    counters = obs.full_snapshot()["counters"]
pool.shutdown()
print(json.dumps({"correct": answer == serial,
                  "spawns": counters.get("verify.pool.spawns", 0),
                  "fallbacks": counters.get("verify.pool.fallbacks", 0)}),
      flush=True)
"""


class TestKilledWorkers:
    def test_run_after_idle_workers_die_falls_back_then_recovers(
        self, tmp_path
    ):
        """SIGKILL to both idle workers of a warm pool: the next pooled Run
        returns the serial answer promptly, ``shutdown()`` returns, and the
        Run after that is served by a fresh pool."""
        lines, err, returncode = _run_child(_IDLE_KILL_CHILD, tmp_path)
        assert lines, f"the Run after the kill hung (stderr: {err[-500:]})"
        assert lines[0]["correct"]
        assert lines[0]["run_s"] < 10.0
        assert len(lines) >= 2, f"shutdown() hung (stderr: {err[-500:]})"
        assert lines[1]["shutdown_s"] < 5.0
        assert len(lines) == 3, err[-500:]
        assert lines[2] == {"correct": True, "spawns": 1, "fallbacks": 0}
        assert returncode == 0, err[-500:]
