"""Verification: exact subgraph-isomorphism tests and MCCS SimVerify.

* Exact verification (Algorithm 1, line 18): when the full query fragment is
  itself indexed (frequent or DIF) its candidate set is already exact —
  verification-free, the FG-Index insight the action-aware indexes inherit.
  Otherwise each candidate undergoes a VF2 subgraph-isomorphism test.

* ``SimVerify`` (Algorithm 5, line 4): a candidate attached to SPIG level
  ``i`` is an approximate match at distance ``|q| − i`` iff some connected
  i-edge subgraph of the query embeds in it.  Across the SPIG set, the
  level-i vertices enumerate exactly those subgraphs, so VF2 against the
  level-i fragments realises MCCS verification without computing a full MCCS
  (the paper's "we extend VF2 [3] to handle MCCS-based similarity
  verification").  Only NIF fragments need testing: had the candidate
  contained an *indexed* level-i fragment it would already sit in
  ``Rfree(i)``.

Both verification flavours run through batch APIs (:func:`verify_batch`,
:func:`sim_verify_scan`): patterns are compiled once per scan against
corpus-wide label statistics, and large candidate lists are chunked across
the **warm** verification pool (:mod:`repro.core.pool`) — long-lived workers
that read the database they were forked with, so chunk payloads carry the
pattern and candidate ids, never graphs.  The worker count comes from
:func:`repro.config.verification_workers` (``REPRO_WORKERS``; ``1`` = the
serial path, deterministic and pool-free — what CI pins), and batches below
:func:`repro.config.pool_min_candidates` candidates skip the pool entirely.
The worker count never affects *results*, only wall-clock: every path
returns the same id sets.

Each scan is one timed region (``verify.scan``, ``verify.sim``, inside
``verify.exact`` for a Run), each chunk another (``verify.chunk``), and each
VF2 test one ``verify.candidate`` / ``verify.sim.candidate`` histogram
sample.  A chunk returns the time of each VF2 test with its ids, and the
calling thread records them — on the serial path, the pool path and the
fallback alike.  A pool chunk also returns its duration, its worker's pid
and, while the sampler runs, its profile; the parent records those as one
``verify.chunk`` sample, one ``pool.chunk`` event and a merged profile.  So
the histograms hold the same samples whether the batch ran serially or
across any pool size (``tests/obs/test_worker_telemetry.py``).
"""

from __future__ import annotations

import os
import pickle
import time
import warnings
from typing import FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.config import pool_min_candidates, verification_workers
from repro.core.pool import POOL, worker_db
from repro.graph.database import GraphDatabase
from repro.graph.isomorphism import CompiledPattern, compile_pattern
from repro.graph.labeled_graph import Graph
from repro.obs.histogram import observe
from repro.obs.metrics import count
from repro.obs.profiler import PROFILER
from repro.obs.recorder import RECORDER
from repro.obs.requests import current_request_id
from repro.obs.tracer import timed
from repro.spig.manager import SpigManager
from repro.spig.spig import SpigVertex

def _chunks(ids: Sequence[int], size: int) -> List[Sequence[int]]:
    return [ids[i:i + size] for i in range(0, len(ids), size)]


def _test_pattern(
    compiled: CompiledPattern, db: GraphDatabase, ids: Sequence[int]
) -> Tuple[List[int], List[float]]:
    """Ids among ``ids`` whose graph in ``db`` contains the compiled
    pattern, and the seconds each VF2 test took.

    The single shared inner loop of exact verification — the serial path,
    the pool workers and the pool fallback all run through it, and each
    time becomes one ``verify.candidate`` sample (:func:`_record`), so
    sample counts match across every ``REPRO_WORKERS`` setting by
    construction.  Samples inside a ``verify.*`` region, not regions: an
    inline clock pair costs half a :func:`~repro.obs.tracer.timed` handle.
    """
    out: List[int] = []
    times: List[float] = []
    for gid in ids:
        graph = db[gid]
        test_start = time.perf_counter()
        hit = compiled.embeds_in(graph)
        times.append(time.perf_counter() - test_start)
        if hit:
            out.append(gid)
    return out, times


def _test_fragments(
    compiled: List[CompiledPattern], db: GraphDatabase, ids: Sequence[int]
) -> Tuple[List[int], List[float]]:
    """Ids among ``ids`` whose graph in ``db`` contains *any* compiled
    fragment, and the seconds each candidate took.

    SimVerify's shared inner loop; one ``verify.sim.candidate`` time per
    candidate graph (not per fragment — the ``any`` short-circuit makes
    fragment counts path-dependent, graph counts are not).
    """
    out: List[int] = []
    times: List[float] = []
    for gid in ids:
        graph = db[gid]
        test_start = time.perf_counter()
        hit = any(c.embeds_in(graph) for c in compiled)
        times.append(time.perf_counter() - test_start)
        if hit:
            out.append(gid)
    return out, times


def _record(site: str, times: Sequence[float]) -> None:
    """One histogram ``site`` sample per candidate time."""
    for seconds in times:
        observe(site, seconds)


def _verify_chunk(
    db: GraphDatabase, payload
) -> Tuple[List[int], List[float]]:
    """Ids of the chunk's graphs in ``db`` that contain the pattern, and
    their VF2 times.

    ``payload`` is ``(pattern, chunk_ids)``; ``db`` is the database a pool
    worker was forked with, or the caller's on the serial paths.
    """
    pattern, ids = payload
    return _test_pattern(
        compile_pattern(pattern, db.label_frequencies()), db, ids
    )


def _sim_verify_chunk(
    db: GraphDatabase, payload
) -> Tuple[List[int], List[float]]:
    """Ids of the chunk's graphs in ``db`` containing *any* of the
    fragments, and their times; ``payload`` is ``(fragments, chunk_ids)``."""
    fragments, ids = payload
    label_freq = db.label_frequencies()
    compiled = [CompiledPattern(f, label_freq) for f in fragments]
    return _test_fragments(compiled, db, ids)


def _pool_chunk(blob: bytes):
    """Pool entry point: one chunk, returning what it observed.

    Receives the pickled ``(hz, request_id, worker, size, payload)`` (see
    :func:`_run_batch`); the worker's database must hold ``size`` graphs
    (:func:`repro.core.pool.worker_db`).  Returns ``(ids, times, seconds,
    pid, profile)``: what ``worker(db, payload)`` returned, the chunk's
    duration, this worker's pid and, while the parent's sampler runs at
    ``hz``, the chunk's profile scoped to the dispatching request (else
    ``None``).  The parent records all of it; the worker's own registries
    are switched off (:func:`repro.core.pool._init_worker`).
    """
    hz, request_id, worker, size, payload = pickle.loads(blob)
    db = worker_db(size)
    PROFILER.set_hz(hz)
    if hz:
        PROFILER.reset()
        PROFILER.set_scope(request_id, "verify.chunk")
    with timed("verify.chunk") as region:
        ids, times = worker(db, payload)
    profile = PROFILER.collect() if hz and PROFILER.samples else None
    return ids, times, region.seconds, os.getpid(), profile


def _worker_traceback(exc: BaseException) -> Optional[str]:
    """The worker-side traceback text, when the pool preserved one.

    ``concurrent.futures`` re-raises worker exceptions in the parent with
    ``__cause__`` set to a ``_RemoteTraceback`` whose string is the
    *worker's* formatted traceback, wrapped in lines of triple quotes.
    Parent-side failures (unpicklable payloads, dead workers) have no
    remote frame — ``None`` then.
    """
    cause = getattr(exc, "__cause__", None)
    if cause is not None and type(cause).__name__ == "_RemoteTraceback":
        return str(cause)
    return None


#: Exception type names whose pool-fallback postmortem bundle was already
#: written this session — one bundle per distinct failure mode, not one per
#: fallback, so a hot loop that keeps tripping the same error can't flood
#: ``REPRO_POSTMORTEM_DIR``.
_FALLBACK_DUMPED: Set[str] = set()


def reset_postmortem_limiter() -> None:
    """Forget which fallback exception types already dumped a bundle."""
    _FALLBACK_DUMPED.clear()


def _pooled(candidates: int, workers: int) -> bool:
    """Whether a batch runs on the pool: more than one worker with a
    candidate to test, and at least :func:`repro.config.pool_min_candidates`
    candidates."""
    return min(workers, candidates) > 1 and \
        candidates >= pool_min_candidates()


def _run_batch(
    worker,
    make_payload,
    ids: List[int],
    workers: int,
    db: GraphDatabase,
    site: str = "verify.candidate",
) -> List[int]:
    """Chunk ``ids`` across the warm pool, falling back to in-process runs.

    ``worker(db, payload)`` runs once per chunk and returns the chunk's ids
    and per-candidate times: on a pool worker against the database that
    worker was forked with, and on the fallback against ``db``.  Pool
    failures (unpicklable payloads, dead workers, a worker forked before a
    ``db.add()``) must degrade a *Run* action to the slower serial path,
    not abort it: the answer is computable without a pool, so compute it.
    The fallback executes the same worker on the same payloads, hence
    returns the identical id list.

    Each chunk is pickled here, before any dispatch, so an unpicklable
    payload fails in the calling thread instead of the executor's feeder
    thread.  It carries the length of ``db`` on entry, which a pool worker
    checks against its own, and the sampler rate and request id a worker
    profiles under.  The pool is keyed and sized on ``workers``, the
    configured count; a batch with fewer candidates than workers is cut
    into one chunk per candidate and leaves the spare workers idle, rather
    than forking a smaller one.

    Observations are recorded here, in the calling thread, so they carry
    its request id: each time one histogram ``site`` sample and each chunk
    one ``verify.chunk`` sample, on either path; each pool chunk also one
    ``pool.chunk`` event labelled ``src=pid-<worker>`` and its profile.
    """
    size = len(db)
    db.label_frequencies()  # cached before the workers fork, read by each
    chunk_size = max(1, -(-len(ids) // (workers * 4)))  # ~4 chunks per worker
    payloads = [make_payload(chunk) for chunk in _chunks(ids, chunk_size)]
    count("verify.pool.runs")
    RECORDER.record(
        "pool.run", chunks=len(payloads), workers=workers,
        candidates=len(ids),
    )
    scope = (PROFILER.hz, current_request_id())
    out: List[int] = []
    try:
        blobs = [
            pickle.dumps(
                scope + (worker, size, payload), pickle.HIGHEST_PROTOCOL
            )
            for payload in payloads
        ]
        outputs = POOL.map(_pool_chunk, blobs, workers, db)
    except Exception as exc:  # pickling/OS/pool-management failures
        count("verify.pool.fallbacks")
        worker_tb = _worker_traceback(exc)
        # The pool re-raises worker errors with a generic parent-side frame;
        # the last traceback line inside the quotes is the worker's actual
        # exception (e.g. a database length mismatch), which is what the
        # postmortem should lead with.
        provenance = {"cause": f"{type(exc).__name__}: {exc}"}
        if worker_tb is not None:
            provenance["worker_traceback"] = worker_tb
            lines = worker_tb.strip().strip("\"'").strip().splitlines()
            if lines:
                provenance["cause"] = lines[-1].strip()
        RECORDER.record_exception(
            "pool.fallback", exc, chunks=len(payloads), workers=workers,
            **provenance,
        )
        exc_type = type(exc).__name__
        if exc_type not in _FALLBACK_DUMPED:
            # Mark the type consumed only when a bundle was actually
            # written — a disabled recorder or unset dir must not burn
            # the one slot this failure mode gets.
            if RECORDER.dump_to_dir("pool-fallback", **provenance) is not None:
                _FALLBACK_DUMPED.add(exc_type)
        warnings.warn(
            f"verification pool failed ({type(exc).__name__}: {exc}); "
            "falling back to the serial path",
            RuntimeWarning,
            stacklevel=3,
        )
        for payload in payloads:
            with timed("verify.chunk"):
                part, times = worker(db, payload)
            _record(site, times)
            out.extend(part)
        return out
    for part, times, seconds, pid, profile in outputs:
        _record(site, times)
        observe("verify.chunk", seconds)
        source = f"pid-{pid}"
        RECORDER.record(
            "pool.chunk", pid=pid, hits=len(part), seconds=seconds,
            src=source,
        )
        PROFILER.merge(profile, source=source)
        out.extend(part)  # chunks are ascending and disjoint: concat is sorted
    return out


def verify_batch(
    pattern: Graph,
    graph_ids: Iterable[int],
    db: GraphDatabase,
    workers: Optional[int] = None,
) -> List[int]:
    """Ids among ``graph_ids`` whose data graph contains ``pattern`` (sorted).

    The pattern is compiled once against corpus label statistics.  With
    ``workers > 1`` (default: ``repro.config.verification_workers()``) the
    candidates are chunked across a process pool; ``workers=1`` is the exact
    serial path.  Results are identical for any worker count.
    """
    ids = sorted(graph_ids)
    if not ids:
        return []
    if workers is None:
        workers = verification_workers()
    with timed("verify.scan", candidates=len(ids), workers=workers):
        if _pooled(len(ids), workers):
            return _run_batch(
                _verify_chunk, lambda chunk: (pattern, chunk),
                ids, workers, db,
            )
        count("verify.serial")
        out, times = _verify_chunk(db, (pattern, ids))
        _record("verify.candidate", times)
        return out


def sim_verify_scan(
    fragments: Sequence[Graph],
    graph_ids: Iterable[int],
    db: GraphDatabase,
    workers: Optional[int] = None,
) -> Set[int]:
    """Ids among ``graph_ids`` containing *any* of ``fragments`` (SimVerify).

    Each fragment is compiled once for the whole scan instead of once per
    (fragment, candidate) pair; large candidate lists are chunked across the
    verification pool exactly like :func:`verify_batch`.
    """
    ids = sorted(graph_ids)
    if not ids or not fragments:
        return set()
    if workers is None:
        workers = verification_workers()
    with timed(
        "verify.sim",
        candidates=len(ids), fragments=len(fragments), workers=workers,
    ):
        fragments = list(fragments)
        if _pooled(len(ids), workers):
            return set(_run_batch(
                _sim_verify_chunk, lambda chunk: (fragments, chunk),
                ids, workers, db, "verify.sim.candidate",
            ))
        count("verify.serial")
        out, times = _sim_verify_chunk(db, (fragments, ids))
        _record("verify.sim.candidate", times)
        return set(out)


def exact_verification(
    query_fragment: Graph,
    candidates: FrozenSet[int],
    db: GraphDatabase,
    verification_free: bool,
    workers: Optional[int] = None,
) -> List[int]:
    """Final exact results from ``Rq`` (sorted ids)."""
    with timed(
        "verify.exact",
        candidates=len(candidates), free=verification_free,
    ):
        if verification_free:
            count("verify.free")
            return sorted(candidates)
        return verify_batch(query_fragment, candidates, db, workers=workers)


def level_fragments_to_verify(
    manager: SpigManager, level: int
) -> List[SpigVertex]:
    """The NIF vertices at ``level`` — the only fragments SimVerify must test."""
    return [
        v
        for v in manager.vertices_at_level(level)
        if not v.fragment_list.is_indexed
    ]


def sim_verify(
    vertices: Iterable[SpigVertex],
    target: Graph,
    label_freq=None,
) -> bool:
    """True iff any of the given fragments embeds in ``target``.

    Runs through :func:`compile_pattern` — the same matcher as the batch
    :func:`sim_verify_scan` — so serial spot-checks and batched scans cannot
    drift apart.  Pass the corpus ``label_freq``
    (:meth:`GraphDatabase.label_frequencies`) to also reproduce the scan's
    label-rarity matching order exactly; without it the fragment's own label
    statistics drive the order (answers are identical either way).
    """
    return any(
        compile_pattern(v.fragment, label_freq).embeds_in(target)
        for v in vertices
    )
