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
that attach to the database's shared-memory arena once at spawn, so chunk
payloads carry ``(arena_version, chunk_ids)`` instead of pickled graphs.
The worker count comes from :func:`repro.config.verification_workers`
(``REPRO_WORKERS``; ``1`` = the serial path, deterministic and pool-free —
what CI pins), and batches below
:func:`repro.config.pool_min_candidates` candidates skip the pool entirely,
as does every batch when shared memory is unavailable.  The worker count
never affects *results*, only wall-clock: every path returns the same id
sets.

Telemetry is cross-process: every chunk runs under worker-local observation
capture (:mod:`repro.obs.snapshot`) and returns its counter/histogram/
recorder delta alongside its ids, which the parent merges back — so the
per-candidate ``verify.tested`` counters and ``verify.candidate`` latency
histograms report identical totals whether the batch ran serially or across
any pool size (``tests/obs/test_worker_telemetry.py``).
"""

from __future__ import annotations

import os
import time
import warnings
from typing import FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.config import pool_min_candidates, verification_workers
from repro.core.pool import ARENA_REF, POOL, arena_for, resolve_items
from repro.graph.database import GraphDatabase
from repro.graph.isomorphism import CompiledPattern, compile_pattern
from repro.graph.labeled_graph import Graph
from repro.obs.histogram import observe
from repro.obs.metrics import count
from repro.obs.recorder import RECORDER
from repro.obs.snapshot import (
    begin_worker_capture,
    collect_worker_delta,
    merge_worker_delta,
    worker_context,
)
from repro.obs.tracer import span
from repro.spig.manager import SpigManager
from repro.spig.spig import SpigVertex

def _chunks(ids: Sequence[int], size: int) -> List[Sequence[int]]:
    return [ids[i:i + size] for i in range(0, len(ids), size)]


def _test_pattern(compiled: CompiledPattern, items) -> List[int]:
    """Ids among ``items`` whose graph contains the compiled pattern.

    The single shared inner loop of exact verification — the serial path,
    the pool workers and the pool fallback all run through it, so its
    instrumentation (one ``verify.candidate`` histogram sample per VF2 test,
    the ``verify.tested`` counter) is *path-invariant*: totals match across
    every ``REPRO_WORKERS`` setting by construction.
    """
    out: List[int] = []
    for gid, graph in items:
        test_start = time.perf_counter()
        hit = compiled.embeds_in(graph)
        observe("verify.candidate", time.perf_counter() - test_start)
        if hit:
            out.append(gid)
    count("verify.tested", len(items))
    return out


def _test_fragments(compiled: List[CompiledPattern], items) -> List[int]:
    """Ids among ``items`` whose graph contains *any* compiled fragment.

    SimVerify's shared inner loop; one ``verify.sim.candidate`` sample and
    one ``verify.sim.tested`` unit per candidate graph (not per fragment —
    the ``any`` short-circuit makes fragment counts path-dependent, graph
    counts are not).
    """
    out: List[int] = []
    for gid, graph in items:
        test_start = time.perf_counter()
        hit = any(c.embeds_in(graph) for c in compiled)
        observe("verify.sim.candidate", time.perf_counter() - test_start)
        if hit:
            out.append(gid)
    count("verify.sim.tested", len(items))
    return out


def _verify_chunk(payload) -> List[int]:
    """Worker: ids of the chunk's graphs that contain the pattern.

    ``items`` is an ``(ARENA_REF, arena_version, chunk_ids)`` reference that
    :func:`repro.core.pool.resolve_items` materializes from the worker's
    attached shared-memory arena.
    """
    pattern, items, label_freq = payload
    return _test_pattern(
        CompiledPattern(pattern, label_freq), resolve_items(items)
    )


def _sim_verify_chunk(payload) -> List[int]:
    """Worker: ids of the chunk's graphs containing *any* of the fragments."""
    fragments, items, label_freq = payload
    compiled = [CompiledPattern(f, label_freq) for f in fragments]
    return _test_fragments(compiled, resolve_items(items))


def _obs_chunk(args) -> Tuple[List[int], dict]:
    """Pool entry point: one chunk under worker-local telemetry capture.

    Receives ``(ctx, worker, payload)``: the parent's observability context
    is applied, the inherited registries are reset to start a clean delta
    (:func:`repro.obs.snapshot.begin_worker_capture`), the real worker runs,
    and the chunk's ids come back *with* the worker's observation delta for
    the parent to merge.  The ``pool.chunk`` recorder event gives merged
    timelines a per-chunk anchor (pid, duration, hits) — and because the
    context carries the dispatching HTTP request's id, the worker-local
    recorder stamps it onto every event here, so a merged ``pool.chunk``
    is attributable to the exact request that triggered the batch.
    """
    ctx, worker, payload = args
    begin_worker_capture(ctx)
    chunk_start = time.perf_counter()
    result = worker(payload)
    seconds = time.perf_counter() - chunk_start
    observe("verify.chunk", seconds)
    RECORDER.record(
        "pool.chunk", pid=os.getpid(), hits=len(result), seconds=seconds,
    )
    return result, collect_worker_delta()


def _worker_traceback(exc: BaseException) -> Optional[str]:
    """The worker-side traceback text, when the pool preserved one.

    ``multiprocessing.pool`` re-raises worker exceptions in the parent with
    ``__cause__`` set to a ``RemoteTraceback`` whose string is the *worker's*
    formatted traceback.  Parent-side failures (unpicklable payloads, broken
    pools) have no remote frame — ``None`` then.
    """
    cause = getattr(exc, "__cause__", None)
    if cause is not None and type(cause).__name__ == "RemoteTraceback":
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


def _pool_arena(db: GraphDatabase, candidates: int, workers: int):
    """The published arena when a batch should run on the pool, else ``None``.

    ``None`` means serial: one worker, a batch below the
    :func:`repro.config.pool_min_candidates` floor, or no shared memory.
    """
    if workers == 1 or candidates < pool_min_candidates():
        return None
    return arena_for(db)


def _arena_ref(arena, chunk: Sequence[int]):
    """The payload form of a chunk of candidate ids (see
    :func:`repro.core.pool.resolve_items`)."""
    return (ARENA_REF, arena.version, tuple(chunk))


def _run_batch(
    worker,
    make_payload,
    ids: List[int],
    workers: int,
    arena,
) -> List[int]:
    """Chunk ``ids`` across the warm pool, falling back to in-process runs.

    Pool failures (unpicklable payloads on spawn platforms, broken workers,
    fork unavailability) must degrade a *Run* action to the slower serial
    path, not abort it: the answer is computable without a pool, so compute
    it.  The fallback executes the same worker on the same payloads, hence
    returns the identical id list — arena references resolve in-process
    against the parent-side registry.  ``arena`` is the published arena the
    pool workers attach to.

    On the pool path every chunk's observation delta is merged back here,
    so nothing a worker recorded is lost (see :mod:`repro.obs.snapshot`);
    on the fallback path the worker runs in-process and its observations
    land in the parent registries directly.  Either way the current
    request-id scope propagates: :func:`worker_context` snapshots it into
    the chunk payloads, and in-process fallbacks inherit the thread's
    scope, so correlation survives the degradation.
    """
    chunk_size = max(1, -(-len(ids) // (workers * 4)))  # ~4 chunks per worker
    payloads = [make_payload(chunk) for chunk in _chunks(ids, chunk_size)]
    count("verify.pool.runs")
    count("verify.pool.chunks", len(payloads))
    RECORDER.record(
        "pool.run", chunks=len(payloads), workers=workers,
        candidates=len(ids), arena=arena.version,
    )
    ctx = worker_context()
    try:
        outputs = POOL.map(
            _obs_chunk,
            [(ctx, worker, payload) for payload in payloads],
            workers,
            arena=arena,
        )
        parts = []
        for part, delta in outputs:
            parts.append(part)
            merge_worker_delta(delta)
    except Exception as exc:  # pickling/OS/pool-management failures
        count("verify.pool.fallbacks")
        worker_tb = _worker_traceback(exc)
        # The pool re-raises worker errors with a generic parent-side frame;
        # the last traceback line is the worker's actual exception (e.g. an
        # arena version mismatch), which is what the postmortem should lead
        # with.
        provenance = {"cause": f"{type(exc).__name__}: {exc}"}
        if worker_tb is not None:
            provenance["worker_traceback"] = worker_tb
            lines = [l for l in worker_tb.strip().splitlines() if l.strip()]
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
        parts = []
        for payload in payloads:
            chunk_start = time.perf_counter()
            parts.append(worker(payload))
            observe("verify.chunk", time.perf_counter() - chunk_start)
    out: List[int] = []
    for part in parts:  # chunks are ascending and disjoint: concat is sorted
        out.extend(part)
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
    workers = max(1, min(workers, len(ids)))
    start = time.perf_counter()
    with span("verify.scan", candidates=len(ids), workers=workers):
        label_freq = db.label_frequencies()
        arena = _pool_arena(db, len(ids), workers)
        if arena is None:
            count("verify.serial")
            compiled = compile_pattern(pattern, label_freq)
            out = _test_pattern(compiled, [(gid, db[gid]) for gid in ids])
        else:
            out = _run_batch(
                _verify_chunk,
                lambda chunk: (pattern, _arena_ref(arena, chunk), label_freq),
                ids, workers, arena,
            )
    observe("verify.scan", time.perf_counter() - start)
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
    workers = max(1, min(workers, len(ids)))
    start = time.perf_counter()
    with span(
        "verify.sim",
        candidates=len(ids), fragments=len(fragments), workers=workers,
    ):
        label_freq = db.label_frequencies()
        arena = _pool_arena(db, len(ids), workers)
        if arena is None:
            count("verify.serial")
            compiled = [CompiledPattern(f, label_freq) for f in fragments]
            out = set(
                _test_fragments(compiled, [(gid, db[gid]) for gid in ids])
            )
        else:
            fragments = list(fragments)
            out = set(_run_batch(
                _sim_verify_chunk,
                lambda chunk: (
                    fragments, _arena_ref(arena, chunk), label_freq
                ),
                ids, workers, arena,
            ))
    observe("verify.sim", time.perf_counter() - start)
    return out


def exact_verification(
    query_fragment: Graph,
    candidates: FrozenSet[int],
    db: GraphDatabase,
    verification_free: bool,
    workers: Optional[int] = None,
) -> List[int]:
    """Final exact results from ``Rq`` (sorted ids)."""
    with span(
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
