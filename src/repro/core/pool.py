"""The persistent verification pool and the process-wide arena registry.

Before this module existed every ``_run_batch`` call built a fresh
``multiprocessing.Pool`` — fork/spawn startup on *every* Run action — and
pickled the candidate graphs into each chunk payload.  Both costs land
squarely inside the SRT budget the paper optimizes, so this module keeps the
machinery warm instead:

* :func:`arena_for` maintains one shared-memory
  :class:`~repro.index.arena.IndexArena` — the database's graphs — per live
  database, keyed by the database object and invalidated whenever
  ``len(db)`` changes (``db.add()`` only ever appends).
* :class:`WarmPool` is the long-lived pool: lazily spawned on the first
  parallel batch, reused while the worker count and arena version stay put,
  expired after :func:`repro.config.pool_idle_ttl` idle seconds, torn down
  and respawned automatically after a broken-pool failure, and shut down for
  good at interpreter exit (so no orphaned processes or shared-memory
  segments survive pytest).
* :func:`resolve_items` is the payload boundary: pooled chunks reference
  candidates as ``("arena", version, ids)`` and workers materialize them
  from the arena they attached at spawn (decoded graphs are memoised per
  worker, so a graph crosses the pickle boundary zero times).

Everything here is wall-clock machinery only: without shared memory, and
after any pool failure, a batch runs on the serial in-process path with
identical answers (:mod:`repro.core.verification`).
"""

from __future__ import annotations

import atexit
import multiprocessing
import signal
import threading
import time
import weakref
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.config import pool_idle_ttl
from repro.obs.metrics import count, gauge
from repro.obs.profiler import profile_block
from repro.obs.recorder import RECORDER

#: Payload tag for arena-resident chunks (see :func:`resolve_items`).
ARENA_REF = "arena"


def _pool_context():
    """Prefer fork (cheap, COW share of the parent); fall back otherwise."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else None)


# ----------------------------------------------------------------------
# arena registry (parent side)
# ----------------------------------------------------------------------
#: id(db) -> (db weakref, db length at build, arena) — the length pins the
#: invalidation: ``db.add()`` appends, so a length change means new content.
_ARENAS: Dict[int, Tuple[Any, int, Any]] = {}
#: arena version -> arena, for parent-side payload resolution (fallbacks).
_BY_VERSION: Dict[str, Any] = {}
#: Serializes registry mutation: the service layer runs sessions on
#: ``ThreadingHTTPServer`` threads, so two first-Run actions can race into
#: ``arena_for`` (and the weakref death callback can fire on any thread).
_REGISTRY_LOCK = threading.RLock()


def _drop_arena(key: int) -> None:
    """Dispose ``key``'s arena (the database grew or died)."""
    with _REGISTRY_LOCK:
        entry = _ARENAS.pop(key, None)
        if entry is not None:
            _, _, arena = entry
            _BY_VERSION.pop(arena.version, None)
            arena.dispose()


def arena_for(db) -> Optional[Any]:
    """The published shared-memory arena for ``db`` (built on first use).

    Returns ``None`` when shared memory is unavailable — callers then verify
    serially in-process.  A stale entry (the database grew) is disposed and
    rebuilt, which also forces the warm pool to respawn against the new
    version.
    """
    key = id(db)
    with _REGISTRY_LOCK:
        entry = _ARENAS.get(key)
        if entry is not None:
            ref, length, arena = entry
            if ref() is db and length == len(db):
                return arena
            _drop_arena(key)
            count("arena.invalidations")
            RECORDER.record("arena.invalidate", db_size=len(db))
        from repro.index.arena import IndexArena

        start = time.perf_counter()
        with profile_block("arena.build"):
            arena = IndexArena.build(db)
        if arena.publish() is None:  # no shared memory on this platform
            arena.dispose()
            return None
        _ARENAS[key] = (
            weakref.ref(db, lambda _r, k=key: _drop_arena(k)), len(db), arena
        )
        _BY_VERSION[arena.version] = arena
        count("arena.builds")
        gauge("arena.bytes", arena.nbytes)
        RECORDER.record(
            "arena.build", version=arena.version, bytes=arena.nbytes,
            graphs=arena.db_size, seconds=time.perf_counter() - start,
        )
        return arena


def arena_segment_bytes() -> int:
    """Total bytes of live published arena segments in this process.

    The memory gauge behind ``arena.segment_bytes`` in ``full_snapshot()``:
    shared-memory segments do not show up in ``tracemalloc`` (they are not
    Python allocations) and only partially in RSS (pages fault in lazily),
    so the arena registry reports them explicitly.
    """
    with _REGISTRY_LOCK:
        return sum(arena.nbytes for _, _, arena in _ARENAS.values())


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
_WORKER_ARENA = None


def _attach_worker_arena(name: str, version: str) -> None:
    """Pool initializer: attach the published arena once per worker.

    Must never raise — a failing ``Pool`` initializer makes the pool respawn
    workers in a loop.  On any failure the worker simply has no arena and
    the first chunk raises, which the parent turns into a serial fallback.

    Also restores the default signal dispositions a forked worker would
    otherwise inherit from the parent: the service's SIGTERM handler only
    sets a stop event, but ``Pool.terminate()`` relies on SIGTERM killing
    the workers (it then joins them without a timeout), so a worker that
    survived it would hang the parent's shutdown.  SIGINT is ignored: a
    terminal's Ctrl-C reaches the whole process group, and the parent's
    shutdown stops the workers.
    """
    global _WORKER_ARENA
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        from repro.index.arena import IndexArena

        _WORKER_ARENA = IndexArena.attach(name, expected_version=version)
    except Exception:
        _WORKER_ARENA = None


def resolve_items(items) -> Sequence[Tuple[int, Any]]:
    """Materialize a chunk payload's ``(gid, graph)`` pairs.

    ``items`` is an arena reference, ``(ARENA_REF, version, ids)``.  It
    resolves against the worker's attached arena, or against the
    parent-side registry when the chunk runs in-process (the serial
    fallback path).
    """
    _, version, ids = items
    attached = _WORKER_ARENA
    if attached is not None and attached.version == version:
        return attached.items(ids)
    arena = _BY_VERSION.get(version)
    if arena is not None:
        return arena.items(ids)
    if attached is not None:
        count("arena.version_mismatch")
        raise RuntimeError(
            f"arena version mismatch: worker attached {attached.version!r} "
            f"but the chunk references {version!r} "
            "(stale forked worker dispatched after an arena rebuild)"
        )
    raise RuntimeError(
        f"no arena attached for version {version!r} "
        "(worker initializer failed)"
    )


# ----------------------------------------------------------------------
# the warm pool
# ----------------------------------------------------------------------
class WarmPool:
    """One long-lived verification pool per process.

    The pool is (re)spawned whenever the requested worker count or the arena
    version changes, after an idle TTL, or after a dispatch failure; between
    those events every batch reuses the running workers, which is where the
    cold-start milliseconds of each Run action go to die.

    Workers are shared across HTTP requests and sessions — per-request
    correlation is *not* pool state.  Each dispatched chunk carries its own
    observability context (including the dispatching request's id, see
    :func:`repro.obs.snapshot.worker_context`), applied at chunk entry, so
    a warm worker serving interleaved requests still labels every recorded
    event with the right id.
    """

    def __init__(self) -> None:
        self._pool = None
        self._key: Optional[Tuple[int, str]] = None
        self._last_used = 0.0
        self._respawn_pending = False
        # Lifecycle lock only: concurrent ``Pool.map`` calls are safe, but
        # two service threads must not race a spawn/discard/TTL decision.
        self._lock = threading.RLock()

    # -- lifecycle -----------------------------------------------------
    def _spawn(self, workers: int, arena) -> None:
        ctx = _pool_context()
        self._pool = ctx.Pool(
            workers,
            initializer=_attach_worker_arena,
            initargs=(arena.publish(), arena.version),
        )
        self._key = (workers, arena.version)
        self._last_used = time.monotonic()
        if self._respawn_pending:
            self._respawn_pending = False
            count("verify.pool.respawns")
        count("verify.pool.spawns")
        gauge("pool.workers", workers)
        RECORDER.record("pool.spawn", workers=workers, arena=arena.version)

    def _discard(self, reason: str) -> None:
        with self._lock:
            if self._pool is None:
                return
            pool, self._pool, self._key = self._pool, None, None
        try:
            pool.terminate()
            pool.join()
        except Exception:
            pass
        RECORDER.record("pool.discard", reason=reason)

    def shutdown(self) -> None:
        """Explicitly stop the warm workers (idempotent)."""
        self._discard("shutdown")

    # -- dispatch ------------------------------------------------------
    def _ensure(self, workers: int, arena):
        with self._lock:
            if self._pool is not None:
                ttl = pool_idle_ttl()
                if self._key != (workers, arena.version):
                    self._discard("reconfigured")
                    self._respawn_pending = True
                elif ttl and time.monotonic() - self._last_used > ttl:
                    count("verify.pool.expired")
                    self._discard("idle-ttl")
                    self._respawn_pending = True
            if self._pool is None:
                self._spawn(workers, arena)
            else:
                count("verify.pool.reuses")
                RECORDER.transition("pool.dispatch", "reuse")
            return self._pool

    def map(self, func, payloads: List, workers: int, arena) -> List:
        """Run ``func`` over ``payloads`` on the warm pool.

        The workers are attached to ``arena``, a published
        :class:`~repro.index.arena.IndexArena`.  Any failure tears the pool
        down so the next dispatch respawns cleanly, then propagates to the
        caller's serial fallback.
        """
        pool = self._ensure(workers, arena)
        try:
            out = pool.map(func, payloads)
        except Exception:
            self._discard("broken")
            self._respawn_pending = True
            raise
        self._last_used = time.monotonic()
        return out


#: The process-wide warm pool.
POOL = WarmPool()


def shutdown(dispose_arenas: bool = True) -> None:
    """Stop the warm pool and (by default) unlink every published arena.

    Safe to call repeatedly; registered at interpreter exit so a test run
    leaves no worker processes and no shared-memory segments behind.
    """
    POOL.shutdown()
    if dispose_arenas:
        for key in list(_ARENAS):
            _drop_arena(key)


atexit.register(shutdown)
