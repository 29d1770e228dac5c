"""The persistent verification pool.

Before this module existed every ``_run_batch`` call built a fresh
``multiprocessing.Pool`` — fork/spawn startup on *every* Run action — and
pickled the candidate graphs into each chunk payload.  Both costs land
squarely inside the SRT budget the paper optimizes, so this module keeps the
workers warm instead:

* :class:`WarmPool` wraps one ``concurrent.futures.ProcessPoolExecutor``:
  lazily spawned by the first pooled batch, reused while the database, its
  length and the worker count stay put, expired after
  :attr:`WarmPool.ttl_s` idle seconds (300), discarded after any
  dispatch failure (the next dispatch respawns it), and shut down for good at
  interpreter exit.  A worker that dies, busy or idle, breaks the executor at
  once, so the batch in flight falls back to the serial path instead of
  hanging.
* Workers read the :class:`~repro.graph.database.GraphDatabase` they were
  forked with: it is the executor's ``initargs``, which fork inherits rather
  than pickles (without fork it is pickled to each worker once, at spawn).
  ``db.add()`` only ever appends, so a chunk carries the length of the
  database it was cut from and :func:`worker_db` refuses a chunk whose length
  differs from the worker's; a chunk payload is candidate ids, never graphs.

Everything here is wall-clock machinery only: after any pool failure a batch
runs on the serial in-process path with identical answers
(:mod:`repro.core.verification`).
"""

from __future__ import annotations

import atexit
import multiprocessing
import signal
import threading
import time
import weakref
from concurrent.futures import ProcessPoolExecutor, wait
from typing import List, Optional, Tuple

from repro.obs.exporter import EXPORTER
from repro.obs.metrics import count, gauge
from repro.obs.recorder import RECORDER
from repro.obs.tracer import TRACER


def _pool_context():
    """Prefer fork (cheap, COW share of the parent); fall back otherwise."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else None)


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
_WORKER_DB = None


def _init_worker(db) -> None:
    """Executor initializer: keep the inherited database for every chunk.

    Switches off the recorder, tracer and exporter the worker inherited: a
    chunk returns what it observed and the parent records it
    (:func:`repro.core.verification._pool_chunk`), so nothing a worker
    records is ever read, and a suspended exporter never writes to the
    parent's export files.

    Also restores the default signal dispositions a forked worker would
    otherwise inherit from the parent: the service's SIGTERM handler only
    sets a stop event, but :func:`_stop_workers` relies on SIGTERM killing
    the workers, so a worker that survived it would outlive the pool.
    SIGINT is ignored: a terminal's Ctrl-C reaches the whole process group,
    and the parent's shutdown stops the workers.
    """
    global _WORKER_DB
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    EXPORTER.suspend()
    RECORDER.enabled = False
    TRACER.enabled = False
    _WORKER_DB = db


def worker_db(size: int):
    """This worker's database, which must hold ``size`` graphs.

    ``size`` is the length of the database the chunk was cut from.  A
    ``db.add()`` between the cut and the worker's fork leaves the two
    lengths apart, so a mismatch raises and the parent's batch falls back to
    the serial path.
    """
    db = _WORKER_DB
    if len(db) != size:
        raise RuntimeError(
            f"database length mismatch: the worker holds {len(db)} graphs "
            f"but the chunk was cut from {size}"
        )
    return db


def _stop_workers(executor: ProcessPoolExecutor) -> None:
    """Stop ``executor`` and its workers now, busy or idle.

    ``shutdown(wait=True)`` would wait for running chunks, so this does what
    CPython 3.14's ``terminate_workers()`` does: it takes the processes
    before ``shutdown`` forgets them, then terminates each one and waits up
    to 5 s for it to exit.  Queued chunks are not cancelled: the broken
    pool fails them, and in CPython 3.11 failing a cancelled chunk kills
    the executor's management thread (``InvalidStateError``).

    It then waits for that management thread to finish.  The thread holds
    the executor's shutdown lock while it winds down, and a worker forked
    meanwhile inherits the lock held: when its garbage collector frees its
    copy of this executor, the executor's weakref callback takes that lock
    and the worker blocks for good.
    """
    processes = list((executor._processes or {}).values())
    manager = executor._executor_manager_thread
    executor.shutdown(wait=False)
    for proc in processes:
        proc.terminate()
    for proc in processes:
        proc.join(5.0)
    if manager is not None:
        manager.join(5.0)


# ----------------------------------------------------------------------
# the warm pool
# ----------------------------------------------------------------------
class WarmPool:
    """One long-lived verification pool per process.

    The pool is (re)spawned whenever the database, its length or the
    requested worker count changes, after an idle TTL, or after a dispatch
    failure; between those events every batch reuses the running workers,
    which is where the cold-start milliseconds of each Run action go to die.
    The worker count is the configured one (``REPRO_WORKERS``), never a
    batch's candidate count, so small and large batches share the workers.

    Workers are shared across HTTP requests and sessions — per-request
    correlation is *not* pool state.  A chunk returns what it observed, and
    the dispatching thread records it under its own request id
    (:func:`repro.core.verification._run_batch`), so a warm worker serving
    interleaved requests needs no id of its own.
    """

    #: Seconds an idle pool survives before the next dispatch respawns it;
    #: ``0`` disables expiry.
    ttl_s: float = 300.0

    def __init__(self) -> None:
        self._executor: Optional[ProcessPoolExecutor] = None
        #: The database the workers were forked with, compared by identity
        #: (a weakref: the pool must not keep a dropped database alive).
        self._db = None
        self._key: Optional[Tuple[int, int]] = None  # (len(db), workers)
        self._last_used = 0.0
        self._respawn_pending = False
        # Lifecycle lock only: concurrent ``submit`` calls are safe, but two
        # service threads must not race a spawn/discard/TTL decision.
        self._lock = threading.RLock()

    # -- lifecycle -----------------------------------------------------
    def _spawn(self, workers: int, db) -> None:
        self._executor = ProcessPoolExecutor(
            workers, mp_context=_pool_context(),
            initializer=_init_worker, initargs=(db,),
        )
        self._db = weakref.ref(db)
        self._key = (len(db), workers)
        self._last_used = time.monotonic()
        if self._respawn_pending:
            self._respawn_pending = False
            count("verify.pool.respawns")
        count("verify.pool.spawns")
        gauge("pool.workers", workers)
        RECORDER.record("pool.spawn", workers=workers, graphs=len(db))

    def _discard(self, reason: str) -> None:
        with self._lock:
            if self._executor is None:
                return
            executor, self._executor = self._executor, None
            self._db = self._key = None
        try:
            _stop_workers(executor)
        except Exception:
            pass
        RECORDER.record("pool.discard", reason=reason)

    def shutdown(self) -> None:
        """Explicitly stop the warm workers (idempotent)."""
        self._discard("shutdown")

    # -- dispatch ------------------------------------------------------
    def _ensure(self, workers: int, db) -> ProcessPoolExecutor:
        with self._lock:
            if self._executor is not None:
                idle = time.monotonic() - self._last_used
                if self._db() is not db or self._key != (len(db), workers):
                    self._discard("reconfigured")
                    self._respawn_pending = True
                elif self.ttl_s and idle > self.ttl_s:
                    count("verify.pool.expired")
                    self._discard("idle-ttl")
                    self._respawn_pending = True
            if self._executor is None:
                self._spawn(workers, db)
            else:
                count("verify.pool.reuses")
                RECORDER.transition("pool.dispatch", "reuse")
            return self._executor

    def map(self, func, payloads: List, workers: int, db) -> List:
        """Run ``func`` over ``payloads`` on workers forked with ``db``.

        Every chunk is submitted and awaited before any result is read, so
        a failing chunk cancels none queued behind it (see
        :func:`_stop_workers`).  Any failure, a dead worker included, tears
        the pool down so the next dispatch respawns cleanly, then propagates
        to the caller's serial fallback.
        """
        executor = self._ensure(workers, db)
        try:
            futures = [executor.submit(func, payload) for payload in payloads]
            wait(futures)
            out = [future.result() for future in futures]
        except Exception:
            with self._lock:
                if self._executor is executor:  # not yet replaced
                    self._discard("broken")
                    self._respawn_pending = True
            raise
        self._last_used = time.monotonic()
        return out


#: The process-wide warm pool.
POOL = WarmPool()

#: Stop the warm pool (idempotent); also run at interpreter exit, so a test
#: run leaves no worker processes behind.
shutdown = POOL.shutdown
atexit.register(shutdown)
