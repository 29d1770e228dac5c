"""Sharded parallel index construction with an exact global merge.

Cold-start index builds mine gSpan fragments and DIFs serially over the whole
database — minutes of CPU at the 10–100x dataset sizes the scale sweep targets
(``benchmarks/bench_build_scaling.py``).  This module parallelizes the build
as a data-parallel pipeline over database partitions:

1. **Shard** — split ``D`` into K contiguous partitions ``D_1 … D_K``.
2. **Mine** — run gSpan per shard in parallel worker processes, each at the
   *local* threshold ``⌈α·|D_i|⌉``.
3. **Merge** — union the shard catalogs and recount every candidate's global
   support exactly, level by level (details below).
4. **DIFs** — derive the discriminative infrequent fragments from the merged
   frequent catalog, with the extension work of levels ≥ 2 chunked across the
   same workers.

Why the union of shard catalogs is complete
-------------------------------------------
If a fragment ``g`` with global support ``sup(g) ≥ ⌈α·|D|⌉`` were locally
infrequent in *every* shard, then ``sup(g) = Σ_i sup_i(g) ≤ Σ_i (⌈α·|D_i|⌉−1)
< Σ_i α·|D_i| = α·|D| ≤ ⌈α·|D|⌉`` — a contradiction (the strict inequality
holds because ``⌈x⌉ − 1 < x`` for every real ``x``).  So every globally
frequent fragment is locally frequent in at least one shard, and — support
being antimonotone — so is every one of its connected subgraphs, which means
shard-local gSpan actually reaches and emits it.  The union of shard catalogs
is therefore a superset of the global frequent set, and the merge phase only
has to *filter*, never to discover.

How the merge recounts supports exactly
---------------------------------------
Level 1 (single-edge candidates) is recounted with one linear scan of ``D``.
For a level-k candidate (k ≥ 2) the merge intersects the already-recounted
global FSG lists of its connected (k−1)-edge subgraphs — a superset of the
candidate's true FSG set — and subtracts the graph ids already proven to
contain it by some shard miner (shard-local supports are exact within their
shard).  Only the remaining ids need a subgraph-isomorphism test, and those
tests are themselves fanned out to the workers.  A candidate one of whose
subgraph codes is missing from the accepted set is dropped without any test:
that subgraph is globally infrequent, hence so is the candidate.

The DIF phase recounts the same way (:func:`repro.mining.dif.recount_support`).
The serial build reads DIF supports off gSpan's projected database instead,
but a DIF's support spans every shard, while a shard miner keeps embeddings
only of fragments that are frequent in its own shard: where the parent is
locally infrequent, its embeddings were never stored.

Determinism: the output depends only on ``(db, params)`` — never on the
worker or shard count.  Catalogs are sorted by canonical code, frequent
representative graphs are the minimum-DFS-code graphs every shard miner
builds identically, and DIF representative graphs are normalized to
``DFSCode(code).to_graph()`` (serial :func:`repro.mining.dif.mine_catalogs`
keeps the extension-built graph instead, so sharded DIF graphs are
isomorphic — same canonical code — but not byte-identical to serial ones).
"""

from __future__ import annotations

import math
import multiprocessing
from contextlib import contextmanager
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.config import MiningParams
from repro.graph.canonical import CanonicalCode, canonical_code
from repro.graph.database import GraphDatabase
from repro.graph.isomorphism import is_subgraph_isomorphic
from repro.graph.labeled_graph import Graph
from repro.mining.dfs_code import DFSCode
from repro.mining.dif import (
    connected_one_smaller_subgraphs,
    dif_extensions,
    dif_level1,
    mine_catalogs,
    recount_support,
)
from repro.mining.fragments import Fragment, FragmentCatalog
from repro.mining.gspan import GSpanMiner, single_edge_supports
from repro.obs.metrics import count, gauge
from repro.obs.recorder import RECORDER

#: Progress callback: ``(event_kind, fields)`` — mirrors the flight-recorder
#: events, for callers (the CLI, the service) that render build progress.
ProgressFn = Callable[[str, Dict[str, Any]], None]


# ----------------------------------------------------------------------
# partitioning
# ----------------------------------------------------------------------
def partition_ids(ids: Sequence[int], shards: int) -> List[List[int]]:
    """Split ``ids`` into ``shards`` contiguous, near-equal partitions.

    Every id lands in exactly one partition and no partition is empty
    (``shards`` is clamped to ``len(ids)``).

    >>> partition_ids(range(7), 3)
    [[0, 1, 2], [3, 4], [5, 6]]
    """
    ids = list(ids)
    shards = max(1, min(shards, len(ids) or 1))
    base, extra = divmod(len(ids), shards)
    out: List[List[int]] = []
    start = 0
    for i in range(shards):
        size = base + (1 if i < extra else 0)
        out.append(ids[start : start + size])
        start += size
    return out


class _ShardView:
    """Read-only view of a database subset that keeps *global* graph ids.

    :class:`~repro.mining.gspan.GSpanMiner` only calls ``items()`` and
    ``__getitem__``, so shard-local FSG lists come out in global-id space and
    merge without translation.
    """

    __slots__ = ("_db", "_gids")

    def __init__(self, db: GraphDatabase, gids: Sequence[int]) -> None:
        self._db = db
        self._gids = list(gids)

    def __len__(self) -> int:
        return len(self._gids)

    def items(self) -> Iterator[Tuple[int, Graph]]:
        for gid in self._gids:
            yield gid, self._db[gid]

    def __getitem__(self, gid: int) -> Graph:
        return self._db[gid]


# ----------------------------------------------------------------------
# worker plumbing — fork-inherited state, one pool per phase
# ----------------------------------------------------------------------
#: Parent sets this immediately before forking a phase pool; workers inherit
#: it copy-on-write, so the database is never pickled into task payloads.
_STATE: Dict[str, Any] = {}


def _fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


@contextmanager
def _phase_pool(workers: int, state: Dict[str, Any]):
    """Yield a fork pool seeded with ``state`` (or ``None`` for in-process).

    ``None`` means the caller runs its tasks serially in the parent — same
    task functions, same ``_STATE`` — so the serial fallback exercises the
    identical code path the workers run.
    """
    _STATE.clear()
    _STATE.update(state)
    pool = None
    try:
        if workers > 1 and _fork_available():
            pool = multiprocessing.get_context("fork").Pool(processes=workers)
        yield pool
    finally:
        if pool is not None:
            pool.close()
            pool.join()
        _STATE.clear()


def _mine_shard_task(i: int) -> Tuple[int, FragmentCatalog]:
    params: MiningParams = _STATE["params"]
    gids = _STATE["shards"][i]
    local_min = max(1, math.ceil(params.min_support * len(gids)))
    view = _ShardView(_STATE["db"], gids)
    return i, GSpanMiner(view, local_min, params.max_fragment_edges).mine()


def _verify_chunk(
    db: GraphDatabase, chunk: List[Tuple[CanonicalCode, List[int]]]
) -> List[Tuple[CanonicalCode, List[int]]]:
    out: List[Tuple[CanonicalCode, List[int]]] = []
    for code, ids in chunk:
        g = DFSCode(code).to_graph()
        out.append((code, [gid for gid in ids if is_subgraph_isomorphic(g, db[gid])]))
    return out


def _verify_task(
    chunk: List[Tuple[CanonicalCode, List[int]]],
) -> List[Tuple[CanonicalCode, List[int]]]:
    return _verify_chunk(_STATE["db"], chunk)


def _dif_task(i: int) -> FragmentCatalog:
    s = _STATE
    return dif_extensions(
        s["frequent"],
        s["chunks"][i],
        s["min_sup"],
        s["max_edges"],
        s["node_labels"],
        s["edge_labels"],
        s["triples"],
        seen=set(s["seen"]),
        support=recount_support(s["db"], s["frequent"]),
    )


# ----------------------------------------------------------------------
# merge
# ----------------------------------------------------------------------
def _graph_for_code(code: CanonicalCode) -> Graph:
    """Deterministic representative graph: DFS indices as node ids —
    exactly the graph shard/serial gSpan miners store for ``code``."""
    return DFSCode(code).to_graph().copy()


def merge_shard_catalogs(
    db: GraphDatabase,
    shard_catalogs: Sequence[FragmentCatalog],
    min_support_abs: int,
    supports: Optional[Dict[Tuple[str, str, str], Set[int]]] = None,
    pool=None,
    workers: int = 1,
) -> FragmentCatalog:
    """Exact global frequent catalog from shard-local ones (sorted by code).

    ``supports`` is the single-edge support map of the *full* database (one
    scan; computed here if absent).  ``pool``/``workers`` parallelize the
    isomorphism recounts; with ``pool=None`` they run in-process.
    Requires ``_STATE["db"]`` to be ``db`` when a pool is passed.
    """
    if supports is None:
        supports = single_edge_supports(db)

    # Union the candidates: deterministic graph per code, exact known ids.
    graphs: Dict[CanonicalCode, Graph] = {}
    known: Dict[CanonicalCode, Set[int]] = {}
    for cat in shard_catalogs:
        for code, frag in cat.items():
            if code not in graphs:
                graphs[code] = frag.graph
                known[code] = set(frag.fsg_ids)
            else:
                known[code] |= frag.fsg_ids

    by_size: Dict[int, List[CanonicalCode]] = {}
    for code in graphs:
        by_size.setdefault(len(code), []).append(code)

    accepted: Dict[CanonicalCode, Fragment] = {}
    verifications = 0

    # Level 1: exact via the single-edge scan — no isomorphism tests.
    for code in sorted(by_size.get(1, ())):
        _i, _j, la, le, lb = code[0]
        key = (la, le, lb) if la <= lb else (lb, le, la)
        fsg = frozenset(supports.get(key, set()))
        if len(fsg) >= min_support_abs:
            accepted[code] = Fragment(code=code, graph=graphs[code], fsg_ids=fsg)

    # Levels ≥ 2: subgraph-FSG intersection minus shard-known positives,
    # isomorphism tests only on the remainder.
    for size in sorted(s for s in by_size if s >= 2):
        pending: List[Tuple[CanonicalCode, Set[int], List[int]]] = []
        for code in sorted(by_size[size]):
            graph = graphs[code]
            sub_codes = [
                canonical_code(s) for s in connected_one_smaller_subgraphs(graph)
            ]
            if not all(sc in accepted for sc in sub_codes):
                continue  # a proper subgraph is globally infrequent
            cand: Optional[Set[int]] = None
            for sc in sub_codes:
                ids = accepted[sc].fsg_ids
                cand = set(ids) if cand is None else cand & ids
            assert cand is not None
            confirmed = known[code] & cand
            unknown = sorted(cand - confirmed)
            pending.append((code, confirmed, unknown))

        tasks = [(code, unknown) for code, _, unknown in pending if unknown]
        verifications += sum(len(ids) for _, ids in tasks)
        hits: Dict[CanonicalCode, Set[int]] = {}
        if tasks:
            chunks = [tasks[i::workers] for i in range(workers)] if pool else [tasks]
            chunks = [c for c in chunks if c]
            if pool is not None:
                results = pool.map(_verify_task, chunks)
            else:
                results = [_verify_chunk(db, c) for c in chunks]
            for chunk_result in results:
                for code, ids in chunk_result:
                    hits[code] = set(ids)

        for code, confirmed, _unknown in pending:
            fsg = frozenset(confirmed | hits.get(code, set()))
            if len(fsg) >= min_support_abs:
                accepted[code] = Fragment(
                    code=code, graph=graphs[code], fsg_ids=fsg
                )

    count("index.build.merge_verifications", verifications)
    return dict(sorted(accepted.items()))


# ----------------------------------------------------------------------
# the pipeline
# ----------------------------------------------------------------------
def _emit(progress: Optional[ProgressFn], kind: str, **fields: Any) -> None:
    RECORDER.record(kind, **fields)
    if progress is not None:
        progress(kind, dict(fields))


def mine_sharded(
    db: GraphDatabase,
    params: MiningParams,
    workers: int,
    shards: int = 0,
    progress: Optional[ProgressFn] = None,
) -> Tuple[FragmentCatalog, FragmentCatalog]:
    """Mine ``(frequent, difs)`` for ``db`` via the sharded pipeline.

    Equivalent to the serial :func:`repro.mining.dif.mine_catalogs` at
    every worker/shard count (same codes, same FSG-id lists, isomorphic
    representative graphs); catalogs come back sorted by canonical code.

    ``shards == 0`` uses one shard per worker; more shards than workers give
    finer progress granularity.  ``workers == 1`` (or platforms without
    ``fork``) runs every phase in-process over the same code path.
    """
    workers = max(1, workers)
    n = len(db)
    min_sup = params.absolute_support(n)  # validates alpha up front
    shards = shards if shards >= 1 else workers
    shards = max(shards, workers)
    shards = max(1, min(shards, n or 1))

    _emit(
        progress,
        "index.build.start",
        db_size=n,
        workers=workers,
        shards=shards,
        min_support_abs=min_sup,
        max_edges=params.max_fragment_edges,
    )

    if n < 2 or shards < 2:
        # Degenerate: one shard is the whole database — serial mine, but
        # normalized to the sharded pipeline's sorted/deterministic output.
        frequent, difs = mine_catalogs(db, min_sup, params.max_fragment_edges)
        frequent = dict(sorted(frequent.items()))
        difs = dict(sorted(difs.items()))
        for code, frag in difs.items():
            difs[code] = Fragment(
                code=code, graph=_graph_for_code(code), fsg_ids=frag.fsg_ids
            )
        _emit(
            progress,
            "index.build.done",
            frequent=len(frequent),
            difs=len(difs),
            mode="serial",
        )
        gauge("index.build.frequent", len(frequent))
        gauge("index.build.difs", len(difs))
        return frequent, difs

    shard_gids = partition_ids([gid for gid, _ in db.items()], shards)

    # Phase 1 — mine each shard at its local threshold.
    shard_catalogs: List[Optional[FragmentCatalog]] = [None] * len(shard_gids)
    with _phase_pool(
        workers, {"db": db, "params": params, "shards": shard_gids}
    ) as pool:
        if pool is not None:
            results = pool.imap_unordered(_mine_shard_task, range(len(shard_gids)))
        else:
            results = map(_mine_shard_task, range(len(shard_gids)))
        for i, catalog in results:
            shard_catalogs[i] = catalog
            count("index.build.shards_done")
            _emit(
                progress,
                "index.build.shard",
                shard=i,
                shards=len(shard_gids),
                graphs=len(shard_gids[i]),
                fragments=len(catalog),
            )

    # Phase 2 — exact global merge.
    supports = single_edge_supports(db)
    with _phase_pool(workers, {"db": db}) as pool:
        frequent = merge_shard_catalogs(
            db,
            [c for c in shard_catalogs if c is not None],
            min_sup,
            supports=supports,
            pool=pool,
            workers=workers,
        )
    candidates = len({c for cat in shard_catalogs if cat for c in cat})
    _emit(
        progress,
        "index.build.merge",
        candidates=candidates,
        frequent=len(frequent),
    )

    # Phase 3 — DIFs: level 1 in-process (one label-universe sweep over the
    # scan from phase 2), extension levels chunked across the workers.
    node_labels = list(db.node_label_universe())
    edge_labels = list(db.edge_label_universe())
    triples = {k for k, ids in supports.items() if len(ids) >= min_sup}
    level1 = dif_level1(min_sup, node_labels, edge_labels, supports)
    chunks = [
        c for c in partition_ids(list(frequent), max(workers, 1)) if c
    ]
    with _phase_pool(
        workers,
        {
            "db": db,
            "frequent": frequent,
            "chunks": chunks,
            "min_sup": min_sup,
            "max_edges": params.max_fragment_edges,
            "node_labels": node_labels,
            "edge_labels": edge_labels,
            "triples": triples,
            "seen": set(level1),
        },
    ) as pool:
        if pool is not None:
            chunk_difs = pool.map(_dif_task, range(len(chunks)))
        else:
            chunk_difs = [_dif_task(i) for i in range(len(chunks))]

    difs: FragmentCatalog = dict(level1)
    for chunk in chunk_difs:
        for code, frag in chunk.items():
            if code not in difs:
                # Duplicate codes across chunks carry identical FSG lists
                # (support is recomputed exactly per candidate), so the
                # normalized graph makes the merge order-independent.
                difs[code] = Fragment(
                    code=code, graph=_graph_for_code(code), fsg_ids=frag.fsg_ids
                )
    difs = dict(sorted(difs.items()))

    _emit(
        progress,
        "index.build.done",
        frequent=len(frequent),
        difs=len(difs),
        mode="sharded",
    )
    gauge("index.build.frequent", len(frequent))
    gauge("index.build.difs", len(difs))
    return frequent, difs
