"""Substructure similarity search — Algorithms 4 and 5.

``SimilarSubCandidates`` scans SPIG levels ``|q| − 1`` down to ``|q| − σ``
(optionally including level ``|q|`` itself, so that exact matches rank at
distance 0 when the user opted into similarity while exact matches still
exist).  At each level, candidates of indexed vertices (frequent fragments or
DIFs — exact FSG lists) go to ``Rfree``; candidates of NIF vertices go to
``Rver``; ids present in both stay only in ``Rfree`` (Algorithm 4, line 7).
Graphs appended after the index build (:mod:`repro.core.exact`) always go to
``Rver``: no FSG list proves they match.

``SimilarResultsGen`` walks the levels from the most similar down, so every
answer is reported at its *minimum* distance, and returns the ranked list
(Section VI-C's ordering rule).
"""

from __future__ import annotations

import time
from typing import FrozenSet, Iterator, List, Set

from repro.core.candidates import bits_of, iter_ids
from repro.core.exact import appended_bits, exact_sub_candidates_bits
from repro.core.results import SimilarCandidates, SimilarityMatch
from repro.core.verification import level_fragments_to_verify, sim_verify_scan
from repro.graph.database import GraphDatabase
from repro.index.builder import ActionAwareIndexes
from repro.obs.histogram import observe
from repro.obs.tracer import span
from repro.query_graph import VisualQuery
from repro.spig.manager import SpigManager


def similar_sub_candidates(
    query: VisualQuery,
    sigma: int,
    manager: SpigManager,
    indexes: ActionAwareIndexes,
    db_ids: FrozenSet[int],
    include_exact_level: bool = True,
) -> SimilarCandidates:
    """Algorithm 4: per-level ``Rfree``/``Rver`` buckets."""
    if sigma < 0:
        raise ValueError("subgraph distance threshold must be >= 0")
    q_size = query.num_edges
    top = q_size if include_exact_level else q_size - 1
    bottom = max(q_size - sigma, 1)
    out = SimilarCandidates()
    db_bits = bits_of(db_ids)
    # Graphs appended after the index build are in no FSG list, so no
    # indexed fragment proves they match: they are never verification-free.
    appended = appended_bits(indexes, db_bits)
    sim_start = time.perf_counter()
    with span("candidates.similar", sigma=sigma) as outer:
        for level in range(top, bottom - 1, -1):
            with span("candidates.level", level=level) as sp:
                # Word-parallel bucket accumulation: one OR per vertex, one
                # AND-NOT for Algorithm 4's line 7, ids materialised once.
                free_bits = 0
                ver_bits = 0
                for vertex in manager.vertices_at_level(level):
                    mask = exact_sub_candidates_bits(vertex, indexes, db_bits)
                    if vertex.fragment_list.is_indexed:
                        free_bits |= mask
                    else:
                        ver_bits |= mask
                ver_bits |= free_bits & appended
                free_bits &= ~appended
                ver_bits &= ~free_bits
                out.free[level] = set(iter_ids(free_bits))
                out.ver[level] = set(iter_ids(ver_bits))
                sp.set(
                    free=len(out.free[level]), ver=len(out.ver[level])
                )
        outer.set(candidates=out.candidate_count)
    observe("candidates.similar", time.perf_counter() - sim_start)
    return out


def iter_similar_results(
    query: VisualQuery,
    candidates: SimilarCandidates,
    sigma: int,
    manager: SpigManager,
    db: GraphDatabase,
    verify_all_fragments: bool = False,
) -> Iterator[SimilarityMatch]:
    """Algorithm 5 as a rank-ordered stream.

    Matches are yielded strictly in ranking order (distance ascending,
    graph id ascending within a distance), so a GUI can fill the results
    panel progressively: the most similar answers appear while deeper
    (cheaper-to-like, more expensive-to-verify) levels are still being
    processed.

    Levels are processed high -> low ("the higher level the candidate graph
    is in S, the more similar it is to the query graph"), so the first level
    at which a graph is confirmed yields its true subgraph distance.

    ``verify_all_fragments`` makes SimVerify test *every* level fragment
    instead of only the NIFs.  The NIF-only restriction is sound exactly
    because indexed fragments' candidates land in ``Rfree``; ablations that
    disable the Rfree/Rver split must verify against all fragments, and so
    does every graph appended after the index build.
    """
    q_size = query.num_edges
    db_size = manager.indexes.db_size
    confirmed: Set[int] = set()
    for level in sorted(candidates.levels(), reverse=True):
        distance = q_size - level
        if distance > sigma:
            continue
        batch: List[SimilarityMatch] = []
        for gid in candidates.free_at(level):
            if gid not in confirmed:
                confirmed.add(gid)
                batch.append(SimilarityMatch(
                    distance=distance, graph_id=gid, verification_free=True
                ))
        to_verify = candidates.ver_at(level) - confirmed
        # Graphs appended after the index build are in no Rfree bucket, so
        # the NIF-only shortcut does not cover them: they are tested against
        # every level fragment.
        test_all = to_verify if verify_all_fragments else {
            gid for gid in to_verify if gid >= db_size
        }
        hits: Set[int] = set()
        for ids, vertices in (
            (to_verify - test_all, level_fragments_to_verify(manager, level)),
            (test_all, manager.vertices_at_level(level)),
        ):
            if ids:
                # Batched SimVerify: level fragments are compiled once for
                # the whole candidate list (and chunked across the
                # verification pool when it is large) instead of
                # VF2-from-scratch per candidate.
                hits |= sim_verify_scan(
                    [v.fragment for v in vertices], ids, db,
                )
        for gid in sorted(hits):
            confirmed.add(gid)
            batch.append(SimilarityMatch(
                distance=distance, graph_id=gid, verification_free=False,
            ))
        yield from sorted(batch)


def similar_results_gen(
    query: VisualQuery,
    candidates: SimilarCandidates,
    sigma: int,
    manager: SpigManager,
    db: GraphDatabase,
    verify_all_fragments: bool = False,
) -> List[SimilarityMatch]:
    """Algorithm 5: the materialised form of :func:`iter_similar_results`."""
    with span("results.similar", sigma=sigma) as sp:
        matches = list(iter_similar_results(
            query, candidates, sigma, manager, db,
            verify_all_fragments=verify_all_fragments,
        ))
        sp.set(matches=len(matches))
    return matches
