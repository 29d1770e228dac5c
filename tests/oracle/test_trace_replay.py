"""The oracle's foundation: deterministic traces and tolerant replay."""

import pytest

from repro.exceptions import ReproError
from repro.oracle import generate_trace, replay_trace
from repro.oracle.corpus import DEFAULT_SPEC, corpus_for
from repro.oracle.replay import CONFIG_MATRIX, REFERENCE_CONFIG, OracleConfig
from repro.oracle.trace import SessionTrace, TraceAction, snapshot_to_graph


class TestFuzzer:
    def test_same_seed_same_trace(self):
        assert generate_trace(11) == generate_trace(11)

    def test_different_seeds_differ(self):
        traces = {generate_trace(seed).actions for seed in range(6)}
        assert len(traces) > 1

    def test_every_trace_ends_with_run(self):
        for seed in range(8):
            trace = generate_trace(seed)
            assert trace.actions[-1].op == "run"

    def test_generated_actions_are_valid_under_reference(self):
        # The fuzzer records only engine-accepted gestures, so the reference
        # replay must complete without a single error observation.
        for seed in range(8):
            session = replay_trace(generate_trace(seed))
            errors = [o for o in session.observations if o["error"]]
            assert errors == [], f"seed {seed}: {errors}"


class TestReplay:
    def test_replay_is_deterministic(self):
        trace = generate_trace(3)
        a = replay_trace(trace).observations
        b = replay_trace(trace).observations
        assert a == b

    def test_observations_carry_no_timings(self):
        session = replay_trace(generate_trace(0))
        for obs in session.observations:
            assert not any("second" in key for key in obs)

    def test_invalid_gesture_is_recorded_not_raised(self):
        trace = SessionTrace(
            spec=DEFAULT_SPEC,
            sigma=2,
            actions=(
                TraceAction("add_node", ("a", "A")),
                TraceAction("add_node", ("b", "B")),
                TraceAction("delete_edge", (99,)),     # nothing to delete
                TraceAction("add_edge", ("a", "b", None)),
                TraceAction("run", ()),
            ),
        )
        session = replay_trace(trace)
        assert session.observations[2]["error"] is not None
        # ...and the session continued past the failure.
        assert session.observations[3]["error"] is None
        assert session.observations[4]["op"] == "run"

    def test_fragment_snapshot_rebuilds_isomorphic_graph(self):
        from repro.graph.canonical import canonical_code

        session = replay_trace(generate_trace(4))
        final = session.observations[-1]["fragment"]
        rebuilt = snapshot_to_graph(final)
        assert canonical_code(rebuilt) == \
            canonical_code(session.engine.query.graph())

    def test_unknown_op_rejected(self):
        from repro.core.prague import PragueEngine
        from repro.oracle.trace import apply_action

        corpus = corpus_for(DEFAULT_SPEC)
        engine = PragueEngine(corpus.db, corpus.indexes)
        with pytest.raises(ValueError, match="unknown trace op"):
            apply_action(engine, TraceAction("explode", ()))


class TestConfigMatrix:
    def test_matrix_covers_all_cells(self):
        # canonical cache on/off × workers 1/3 (3 = the warm pool).
        assert len(set(CONFIG_MATRIX)) == 4
        assert REFERENCE_CONFIG in CONFIG_MATRIX
        assert {c.canonical_cache for c in CONFIG_MATRIX} == {True, False}
        assert {c.workers for c in CONFIG_MATRIX} == {1, 3}

    def test_applied_restores_environment(self, monkeypatch):
        import os

        from repro.oracle.replay import applied

        monkeypatch.setenv("REPRO_CANONICAL_CACHE", "100")
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        with applied(OracleConfig(canonical_cache=False, workers=5)):
            assert os.environ["REPRO_CANONICAL_CACHE"] == "0"
            assert os.environ["REPRO_WORKERS"] == "5"
        assert os.environ["REPRO_CANONICAL_CACHE"] == "100"
        assert "REPRO_WORKERS" not in os.environ

    def test_trace_without(self):
        trace = generate_trace(1)
        cut = trace.without([0, 2])
        assert len(cut) == len(trace) - 2
        assert cut.actions[0] == trace.actions[1]
