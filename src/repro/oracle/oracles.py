"""Two independent ground truths, beyond cross-configuration agreement.

Config-matrix replay only proves the hot-path variants agree *with each
other* — they could all share a bug.  These oracles anchor the comparison:

* :func:`naive_baseline_check` — the index-free scan baselines
  (:mod:`repro.baselines.naive`).  At every step the exact candidate set
  ``Rq`` must be a superset of the true answer (candidates are sound
  over-approximations), and every *Run*'s final results must equal the
  naive answers exactly.

* :func:`fresh_replay_check` — re-formulate the session's *final* query from
  scratch on a fresh engine and require the incrementally-maintained state to
  equal the fresh state: same per-level fragment classes (SPIG completeness),
  same ``Rq``, same ``Rfree``/``Rver`` buckets, same final results.  This is
  the invariant that makes PRAGUE's "virtually zero" modification cost sound:
  deletion upkeep must leave exactly what a fresh formulation would build.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.baselines.naive import (
    naive_containment_search,
    naive_similarity_search,
)
from repro.core.exact import exact_sub_candidates, is_verification_free
from repro.core.prague import PragueEngine
from repro.core.similar import similar_results_gen, similar_sub_candidates
from repro.core.verification import exact_verification
from repro.oracle.diff import Divergence, _fmt
from repro.oracle.replay import ReplaySession, applied
from repro.oracle.trace import snapshot_to_graph
from repro.testing import connected_order


# ----------------------------------------------------------------------
# naive-baseline oracle
# ----------------------------------------------------------------------
def naive_baseline_check(session: ReplaySession) -> List[Divergence]:
    """Check every step's candidates and every Run's results against the scan."""
    out: List[Divergence] = []
    db = session.corpus.db
    sigma = session.trace.sigma
    for step, obs in enumerate(session.observations):
        if obs["error"] is not None or obs["num_edges"] == 0:
            continue
        fragment = snapshot_to_graph(obs["fragment"])
        truth = naive_containment_search(fragment, db)
        lines: List[str] = []
        if not obs["sim_flag"]:
            missing = sorted(set(truth) - set(obs["rq"]))
            if missing:
                lines.append(
                    f"Rq is unsound: true matches {missing} not in "
                    f"candidates {_fmt(obs['rq'])}"
                )
        run = obs.get("run")
        if run is not None:
            if run["exact"]:
                if list(run["exact"]) != truth:
                    lines.append(
                        f"exact results {_fmt(run['exact'])} != naive "
                        f"{_fmt(tuple(truth))}"
                    )
            else:
                got = {gid: dist for dist, gid, _free in run["similar"]}
                expected = naive_similarity_search(fragment, db, sigma)
                if not obs["sim_flag"]:
                    # Exact-mode Run fell back to similarity with exact
                    # matches proven absent — distance 0 cannot occur.
                    expected = {
                        g: d for g, d in expected.items() if d > 0
                    }
                if got != expected:
                    lines.append(
                        f"similar results {_fmt(sorted(got.items()))} != "
                        f"naive {_fmt(sorted(expected.items()))}"
                    )
        if lines:
            out.append(Divergence(
                kind="naive-baseline",
                step=step,
                op=obs["op"],
                left="engine",
                right="naive-scan",
                details=lines,
            ))
    return out


# ----------------------------------------------------------------------
# fresh-replay oracle
# ----------------------------------------------------------------------
def _edge_set_codes(engine: PragueEngine, level: int) -> Dict[Tuple, Any]:
    """Map each connected ``level``-edge subset (as endpoint pairs, which are
    stable across formulations) to the canonical code its vertex carries."""
    out: Dict[Tuple, Any] = {}
    for vertex in engine.manager.vertices_at_level(level):
        for edge_set in vertex.edge_sets:
            pairs = frozenset(
                frozenset(engine.query.edge(eid)[:2]) for eid in edge_set
            )
            out[pairs] = vertex.code
    return out


def _buckets_for(engine: PragueEngine, sigma: int):
    candidates = similar_sub_candidates(
        engine.query, sigma, engine.manager, engine.indexes, engine.db_ids,
        include_exact_level=True,
    )
    return candidates, {
        level: (
            tuple(sorted(candidates.free_at(level))),
            tuple(sorted(candidates.ver_at(level))),
        )
        for level in candidates.levels()
    }


def fresh_replay_check(session: ReplaySession) -> List[Divergence]:
    """Incremental SPIG/candidate state must equal a from-scratch build.

    A crash while *inspecting* the incremental state (stale edge ids, missing
    target vertex, …) is itself a finding — the state is inconsistent — so it
    is reported as a divergence rather than propagated.
    """
    try:
        lines = _fresh_replay_lines(session)
    except Exception as exc:
        lines = [
            "incremental state is internally inconsistent — the check "
            f"itself crashed: {type(exc).__name__}: {exc}"
        ]
    if not lines:
        return []
    return [Divergence(
        kind="fresh-replay",
        step=None,
        op=None,
        left="incremental",
        right="from-scratch",
        details=lines,
    )]


def _fresh_replay_lines(session: ReplaySession) -> List[str]:
    engine = session.engine
    assert engine is not None, "session was not replayed"
    if engine.query.num_edges == 0:
        return []
    lines: List[str] = []
    with applied(session.config):
        final = engine.query.graph()
        fresh = PragueEngine(
            session.corpus.db, session.corpus.indexes,
            sigma=session.trace.sigma, auto_similarity=True,
        )
        for node in final.nodes():
            fresh.add_node(node, final.label(node))
        for u, v in connected_order(final):
            fresh.add_edge(u, v, final.edge_label(u, v))

        n = final.num_edges
        for level in range(1, n + 1):
            incr = _edge_set_codes(engine, level)
            scratch = _edge_set_codes(fresh, level)
            if incr != scratch:
                only_incr = sorted(map(_fmt, set(incr) - set(scratch)))
                only_fresh = sorted(map(_fmt, set(scratch) - set(incr)))
                recoded = [
                    _fmt(k) for k in set(incr) & set(scratch)
                    if incr[k] != scratch[k]
                ]
                lines.append(
                    f"level {level} SPIG state differs: "
                    f"incremental-only={only_incr}, "
                    f"fresh-only={only_fresh}, code-mismatch={recoded}"
                )

        t_incr = engine.manager.target_vertex(engine.query)
        t_fresh = fresh.manager.target_vertex(fresh.query)
        for attr in ("freq_id", "dif_id", "dead"):
            a, b = getattr(t_incr.fragment_list, attr), \
                getattr(t_fresh.fragment_list, attr)
            if a != b:
                lines.append(f"target {attr}: {a!r} != {b!r}")
        for attr in ("phi", "upsilon"):
            a = sorted(getattr(t_incr.fragment_list, attr))
            b = sorted(getattr(t_fresh.fragment_list, attr))
            if a != b:
                lines.append(f"target {attr}: {a} != {b}")

        rq_incr = exact_sub_candidates(t_incr, engine.indexes, engine.db_ids)
        rq_fresh = exact_sub_candidates(t_fresh, fresh.indexes, fresh.db_ids)
        if rq_incr != rq_fresh:
            lines.append(
                f"target Rq: {sorted(rq_incr)} != {sorted(rq_fresh)}"
            )
        if not engine.sim_flag and engine.rq != rq_incr:
            lines.append(
                f"cached Rq {sorted(engine.rq)} != recomputed "
                f"{sorted(rq_incr)}"
            )

        # Rfree/Rver over *all* levels (σ = |q| reaches level 1).
        _, incr_buckets = _buckets_for(engine, n)
        _, fresh_buckets = _buckets_for(fresh, n)
        if incr_buckets != fresh_buckets:
            for level in sorted(set(incr_buckets) | set(fresh_buckets)):
                a, b = incr_buckets.get(level), fresh_buckets.get(level)
                if a != b:
                    lines.append(
                        f"level {level} buckets: {_fmt(a)} != {_fmt(b)}"
                    )

        # Final results, computed component-wise in the session's σ.
        exact_a = exact_verification(
            final, rq_incr, session.corpus.db,
            is_verification_free(t_incr, engine.indexes, session.corpus.db),
        )
        exact_b = exact_verification(
            final, rq_fresh, session.corpus.db,
            is_verification_free(t_fresh, fresh.indexes, session.corpus.db),
        )
        if exact_a != exact_b:
            lines.append(f"exact results: {exact_a} != {exact_b}")
        sim_a, _ = _buckets_for(engine, session.trace.sigma)
        sim_b, _ = _buckets_for(fresh, session.trace.sigma)
        matches_a = similar_results_gen(
            engine.query, sim_a, session.trace.sigma, engine.manager,
            session.corpus.db,
        )
        matches_b = similar_results_gen(
            fresh.query, sim_b, session.trace.sigma, fresh.manager,
            session.corpus.db,
        )
        if matches_a != matches_b:
            lines.append(
                f"similar results: {_fmt(matches_a)} != {_fmt(matches_b)}"
            )
    return lines
