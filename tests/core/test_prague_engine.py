"""The PRAGUE engine (Algorithm 1): action flow, statuses, run paths."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.naive import naive_containment_search, naive_similarity_search
from repro.core import Action, PragueEngine, QueryStatus
from repro.exceptions import SessionError
from repro.graph.generators import (
    perturb_with_new_edge,
    random_connected_subgraph,
)
from repro.testing import drive_engine, graph_from_spec, sample_subgraph


class TestStatusTransitions:
    def test_frequent_then_infrequent(self, small_db, small_indexes):
        """Figure 3's Status column: frequent fragments report 'frequent',
        indexed-infrequent ones 'infrequent', empty-Rq ones 'similar'."""
        engine = PragueEngine(small_db, small_indexes)
        # find a frequent single edge in the index
        labels = small_db.node_label_universe()
        found = None
        for la in labels:
            for lb in labels:
                g = graph_from_spec({0: la, 1: lb}, [(0, 1)])
                from repro.graph import canonical_code

                if small_indexes.a2f.lookup(canonical_code(g)) is not None:
                    found = (la, lb)
                    break
            if found:
                break
        assert found, "corpus must have a frequent edge"
        engine.add_node(0, found[0])
        engine.add_node(1, found[1])
        report = engine.add_edge(0, 1)
        assert report.action is Action.NEW
        assert report.status is QueryStatus.FREQUENT
        assert report.rq_size > 0

    def test_similar_status_when_rq_empties(self, small_db, small_indexes):
        engine = PragueEngine(small_db, small_indexes, auto_similarity=False)
        engine.add_node(0, "Z")
        engine.add_node(1, "Z")
        report = engine.add_edge(0, 1)
        assert report.status is QueryStatus.SIMILAR
        assert engine.option_pending

    def test_option_pending_blocks_without_auto(self, small_db, small_indexes):
        engine = PragueEngine(small_db, small_indexes, auto_similarity=False)
        engine.add_node(0, "Z")
        engine.add_node(1, "Z")
        engine.add_node(2, "Z")
        engine.add_edge(0, 1)
        with pytest.raises(SessionError):
            engine.add_edge(1, 2)

    def test_auto_similarity_continues(self, small_db, small_indexes):
        engine = PragueEngine(small_db, small_indexes, auto_similarity=True)
        engine.add_node(0, "Z")
        engine.add_node(1, "Z")
        engine.add_node(2, "Z")
        engine.add_edge(0, 1)
        report = engine.add_edge(1, 2)  # implicit SimQuery
        assert engine.sim_flag
        assert report.status is QueryStatus.SIMILAR

    def test_enable_similarity_reports_candidates(self, small_db, small_indexes):
        rng = random.Random(1)
        q = sample_subgraph(rng, small_db, 3, 3)
        engine = PragueEngine(small_db, small_indexes)
        drive_engine(engine, q)
        report = engine.enable_similarity()
        assert report.action is Action.SIM_QUERY
        assert report.candidate_count is not None

    def test_status_property_tracks_history(self, small_db, small_indexes):
        engine = PragueEngine(small_db, small_indexes)
        assert engine.status is QueryStatus.FREQUENT  # initial
        engine.add_node(0, "Z")
        engine.add_node(1, "Z")
        engine.add_edge(0, 1)
        assert engine.status is QueryStatus.SIMILAR


class TestRunPaths:
    @given(seed=st.integers(0, 50_000))
    @settings(max_examples=20, deadline=None)
    def test_exact_path(self, seed, small_db, small_indexes):
        rng = random.Random(seed)
        q = sample_subgraph(rng, small_db, 1, 4)
        engine = PragueEngine(small_db, small_indexes)
        drive_engine(engine, q)
        report = engine.run()
        assert report.results.exact_ids == naive_containment_search(q, small_db)

    @given(seed=st.integers(0, 50_000))
    @settings(max_examples=15, deadline=None)
    def test_similarity_fallback_at_run(self, seed, small_db, small_indexes):
        """Alg 1 lines 19-21: empty exact verification falls back to
        similarity search even when simFlag was never raised."""
        rng = random.Random(seed)
        q0 = sample_subgraph(rng, small_db, 2, 4)
        q = perturb_with_new_edge(rng, q0, small_db.node_label_universe())
        truth_exact = naive_containment_search(q, small_db)
        if truth_exact:
            return  # perturbation happened to match; not this test's case
        sigma = 2
        engine = PragueEngine(small_db, small_indexes, sigma=sigma)
        drive_engine(engine, q)
        report = engine.run()
        got = {m.graph_id: m.distance for m in report.results.similar}
        assert got == naive_similarity_search(q, small_db, sigma)

    def test_run_empty_query_rejected(self, small_db, small_indexes):
        engine = PragueEngine(small_db, small_indexes)
        with pytest.raises(SessionError):
            engine.run()

    def test_verification_free_flag(self, small_db, small_indexes):
        """Indexed query fragments skip the isomorphism test at Run."""
        rng = random.Random(3)
        for _ in range(20):
            q = sample_subgraph(rng, small_db, 2, 2)
            engine = PragueEngine(small_db, small_indexes)
            drive_engine(engine, q)
            target = engine.manager.target_vertex(engine.query)
            report = engine.run()
            assert report.verification_free == target.fragment_list.is_indexed

    def test_similarity_results_ordered(self, small_db, small_indexes):
        rng = random.Random(4)
        q0 = sample_subgraph(rng, small_db, 3, 3)
        q = perturb_with_new_edge(rng, q0, "Z")
        engine = PragueEngine(small_db, small_indexes, sigma=2)
        drive_engine(engine, q)
        report = engine.run()
        distances = [m.distance for m in report.results.similar]
        assert distances == sorted(distances)


class TestBookkeeping:
    def test_history_records_steps(self, small_db, small_indexes):
        g = graph_from_spec({0: "A", 1: "B", 2: "A"}, [(0, 1), (1, 2)])
        engine = PragueEngine(small_db, small_indexes)
        drive_engine(engine, g)
        assert len(engine.history) == 2
        assert all(r.action is Action.NEW for r in engine.history)
        assert all(r.processing_seconds >= 0 for r in engine.history)
        assert all(r.spig_seconds >= 0 for r in engine.history)

    def test_step_reports_candidate_counts(self, small_db, small_indexes):
        g = graph_from_spec({0: "A", 1: "B"}, [(0, 1)])
        engine = PragueEngine(small_db, small_indexes)
        drive_engine(engine, g)
        assert engine.history[-1].rq_size == len(engine.rq)


class TestEngineLifetime:
    def test_engine_does_not_pin_its_indexes(self):
        """Dropping an engine, its indexes and its database frees the
        indexes: no process-wide registry keeps a private corpus's tables
        alive for the life of the process."""
        import gc
        import weakref

        from repro.config import MiningParams
        from repro.index import build_indexes
        from repro.testing import small_database

        db = small_database(seed=5, num_graphs=12)
        indexes = build_indexes(db, MiningParams(0.25, 2, 3))
        engine = PragueEngine(db, indexes)
        label = db[0].label(next(iter(db[0].nodes())))
        engine.add_node(0, label)
        engine.add_node(1, label)
        engine.add_edge(0, 1)
        engine.run()
        ref = weakref.ref(indexes)
        del engine, indexes, db
        gc.collect()
        assert ref() is None
