"""Regression tests for the correctness bugs flushed out by the oracle
harness (ISSUE 2): the empty AND-fold neutral element, the stale ``db_ids``
snapshot, ``sim_verify`` vs ``sim_verify_scan`` matcher parity, pool-failure
fallback in ``_run_batch``, and the SRT accounting of the implicit
``enable_similarity`` inside ``add_edge``.

Each test fails on the pre-fix tree (see docs/CORRECTNESS.md for the
oracle-to-regression-test workflow these came out of).
"""

import random
import warnings

import pytest

from repro import obs
from repro.config import MiningParams
from repro.core import candidates as cand
from repro.core import verification as verif
from repro.core.actions import Action
from repro.core.prague import PragueEngine
from repro.core.statistics import collect_statistics
from repro.core.verification import sim_verify, sim_verify_scan
from repro.graph.database import GraphDatabase
from repro.index.builder import build_indexes
from repro.query_graph import VisualQuery
from repro.spig import SpigManager
from repro.testing import connected_order, graph_from_spec, sample_subgraph


def _path(n, label="A"):
    """An n-node single-label path graph."""
    return graph_from_spec(
        {i: label for i in range(n)}, [(i, i + 1) for i in range(n - 1)]
    )


# ----------------------------------------------------------------------
# 1. intersect_all([]) — the AND-fold over zero constraints
# ----------------------------------------------------------------------
class TestEmptyIntersection:
    def test_zero_constraints_yield_the_universe(self):
        universe = cand.full_mask(7)
        assert cand.intersect_all([], universe) == universe
        assert cand.intersect_all([], universe=0) == 0
        assert cand.intersect_all(iter(()), universe) == universe

    def test_nonempty_fold_is_unchanged_by_universe(self):
        masks = [cand.bits_of({1, 2, 3}), cand.bits_of({2, 3, 4})]
        assert cand.intersect_all(masks, cand.full_mask(64)) == cand.bits_of(
            {2, 3}
        )
        assert cand.intersect_all(masks) == cand.bits_of({2, 3})

    def test_matches_frozenset_reference_semantics(self):
        """The bitset fold and a frozenset fold agree on the neutral
        element: intersecting no constraint sets leaves every graph a
        candidate, exactly like the ``db_ids`` fallback of Algorithm 3 in
        exact.py."""
        db_ids = frozenset(range(9))
        via_sets = frozenset.intersection(db_ids)  # fold seeded with universe
        via_bits = cand.ids_of(cand.intersect_all([], cand.bits_of(db_ids)))
        assert via_bits == via_sets


# ----------------------------------------------------------------------
# 2. stale db_ids snapshot in PragueEngine
# ----------------------------------------------------------------------
class TestDatabaseGrowthMidSession:
    """Graphs appended between formulation steps must become visible.

    The corpus and mining bound are chosen so the query falls through to the
    no-index-information path (``Rq = db_ids``): uniform labels, fragments
    mined only up to 2 edges, a 4-edge query.  Pre-fix, ``db_ids`` was
    snapshotted in ``__init__`` and the appended graph could never enter any
    candidate set or result.
    """

    def _setup(self):
        db = GraphDatabase([_path(n) for n in (3, 4, 5, 6, 3, 4, 5, 6)])
        params = MiningParams(
            min_support=0.3, size_threshold=2, max_fragment_edges=2
        )
        indexes = build_indexes(db, params)
        return db, indexes

    def test_appended_graph_enters_rq(self):
        db, indexes = self._setup()
        engine = PragueEngine(db, indexes, sigma=0)
        for i in range(5):
            engine.add_node(i, "A")
        engine.add_edge(0, 1)
        engine.add_edge(1, 2)
        engine.add_edge(2, 3)
        new_gid = db.add(_path(6))  # appended mid-session
        report = engine.add_edge(3, 4)  # 4-edge path: Rq = db_ids fallback
        assert new_gid in engine.rq
        assert report.rq_size == len(db)

    def test_appended_graph_reaches_run_results(self):
        db, indexes = self._setup()
        engine = PragueEngine(db, indexes, sigma=0)
        for i in range(5):
            engine.add_node(i, "A")
        engine.add_edge(0, 1)
        engine.add_edge(1, 2)
        engine.add_edge(2, 3)
        new_gid = db.add(_path(7))
        engine.add_edge(3, 4)
        result = engine.run()
        assert new_gid in result.results.exact_ids

    def test_append_after_last_edge_is_seen_by_run(self):
        """Run re-checks the database version, not just the last refresh."""
        db, indexes = self._setup()
        engine = PragueEngine(db, indexes, sigma=0)
        for i in range(5):
            engine.add_node(i, "A")
        engine.add_edge(0, 1)
        engine.add_edge(1, 2)
        engine.add_edge(2, 3)
        engine.add_edge(3, 4)
        new_gid = db.add(_path(7))  # appended after the final edge
        result = engine.run()
        assert new_gid in result.results.exact_ids


# ----------------------------------------------------------------------
# 3. sim_verify must exercise the same matcher as sim_verify_scan
# ----------------------------------------------------------------------
class TestSimVerifyMatcherParity:
    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_spot_check_agrees_with_batch_scan(
        self, seed, small_db, small_indexes
    ):
        """Per-graph sim_verify (corpus statistics supplied) must equal
        membership in the batch sim_verify_scan answer for every graph."""
        rng = random.Random(seed)
        q = sample_subgraph(rng, small_db, 3, 5)
        query = VisualQuery()
        for node in q.nodes():
            query.add_node(node, q.label(node))
        manager = SpigManager(small_indexes)
        for u, v in connected_order(q):
            eid = query.add_edge(u, v, q.edge_label(u, v))
            manager.on_new_edge(query, eid)
        label_freq = small_db.label_frequencies()
        for level in range(1, query.num_edges + 1):
            vertices = list(manager.vertices_at_level(level))
            if not vertices:
                continue
            scanned = sim_verify_scan(
                [v.fragment for v in vertices], small_db.ids(), small_db,
                workers=1,
            )
            for gid, g in small_db.items():
                assert sim_verify(vertices, g, label_freq=label_freq) == (
                    gid in scanned
                )

    def test_empty_vertex_list(self, small_db):
        assert not sim_verify([], small_db[0])


# ----------------------------------------------------------------------
# 4. _run_batch pool failure falls back to the serial path
# ----------------------------------------------------------------------
def _chunk_len_worker(payload):
    """Module-level (hence picklable) worker used by the fallback tests."""
    chunk, transform = payload
    return [transform(gid) for gid in chunk]


class TestRunBatchFallback:
    def test_unpicklable_payload_falls_back_serially(self, small_arena):
        ids = list(range(64))
        with pytest.warns(RuntimeWarning, match="serial"):
            out = verif._run_batch(
                _chunk_len_worker,
                lambda chunk: (chunk, lambda gid: gid),  # lambda: unpicklable
                ids,
                workers=4,
                arena=small_arena,
            )
        assert out == ids

    def test_picklable_payload_does_not_warn(self, small_arena):
        ids = list(range(64))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = verif._run_batch(
                _chunk_len_worker,
                lambda chunk: (chunk, int),
                ids,
                workers=2,
                arena=small_arena,
            )
        assert out == ids

    def test_verify_batch_still_correct_with_pool(self, small_db):
        pattern = sample_subgraph(random.Random(7), small_db, 1, 2)
        serial = verif.verify_batch(pattern, small_db.ids(), small_db, workers=1)
        pooled = verif.verify_batch(pattern, small_db.ids(), small_db, workers=3)
        assert serial == pooled


# ----------------------------------------------------------------------
# 5. SRT accounting of the implicit enable_similarity inside add_edge
# ----------------------------------------------------------------------
class _TickClock:
    """Deterministic perf_counter: each call advances exactly one second."""

    def __init__(self):
        self.now = 0.0

    def perf_counter(self):
        self.now += 1.0
        return self.now


def _patch_region_clock(monkeypatch, clock):
    """Tick the clock that timed regions read, and only that one.

    ``repro.obs.tracer`` resolves ``perf_counter`` through its module
    global, so swapping that one reference isolates the tick accounting
    from every *other* reader of the stdlib clock (recorder events, the
    per-candidate verification samples).
    """
    monkeypatch.setattr("repro.obs.tracer.perf_counter", clock.perf_counter)


class TestImplicitSimilarityTiming:
    def _dead_edge_engine(self, small_db, small_indexes):
        engine = PragueEngine(small_db, small_indexes, auto_similarity=True)
        engine.add_node("x", "ZZ-unseen")  # label absent from the corpus
        engine.add_node("y", "ZZ-unseen")
        engine.add_node("z", "ZZ-unseen")
        engine.add_edge("x", "y")  # dead fragment: Rq empty, dialogue pops
        assert engine.option_pending
        return engine

    def test_implicit_sim_report_precedes_edge_report(
        self, small_db, small_indexes
    ):
        engine = self._dead_edge_engine(small_db, small_indexes)
        engine.add_edge("y", "z")
        assert [r.action for r in engine.history] == [
            Action.NEW, Action.SIM_QUERY, Action.NEW,
        ]
        assert engine.sim_flag and not engine.option_pending

    def test_edge_timing_excludes_the_implicit_similarity(
        self, small_db, small_indexes, monkeypatch
    ):
        engine = self._dead_edge_engine(small_db, small_indexes)
        clock = _TickClock()
        _patch_region_clock(monkeypatch, clock)
        with obs.trace() as tracer:
            engine.add_edge("y", "z")
        sim_report, edge_report = engine.history[-2:]
        assert sim_report.action is Action.SIM_QUERY
        sim_span, edge_span = tracer.roots
        assert (sim_span.name, edge_span.name) == (
            "action.simquery", "action.new",
        )
        # Disjoint windows: the New window opens only after the similarity
        # window closed — neither double-counted nor dropped.
        assert sim_span.end_s < edge_span.start_s
        assert sim_report.processing_seconds == sim_span.seconds
        assert edge_report.processing_seconds == edge_span.seconds
        # SPIG construction reads the clock twice: 1 tick, inside New's.
        (spig_span,) = [
            c for c in edge_span.children if c.name == "spig.construct"
        ]
        assert edge_report.spig_seconds == spig_span.seconds == 1.0
        assert edge_span.start_s < spig_span.start_s < edge_span.end_s

    def test_session_totals_count_each_report_once(
        self, small_db, small_indexes, monkeypatch
    ):
        engine = self._dead_edge_engine(small_db, small_indexes)
        clock = _TickClock()
        _patch_region_clock(monkeypatch, clock)
        start = clock.now
        engine.add_edge("y", "z")
        elapsed = clock.now - start
        stats = collect_statistics(engine)
        new_work = sum(
            r.processing_seconds for r in engine.history[-2:]
        )
        # Every tick of the gesture is attributed to exactly one report
        # (the two timing windows are disjoint), minus the 2 unattributed
        # reads that delimit the windows themselves.
        assert new_work == pytest.approx(elapsed - 2.0)
        assert stats.total_step_seconds == pytest.approx(
            sum(r.processing_seconds for r in engine.history)
        )
