"""End-to-end harness behaviour: clean sweeps stay clean, planted bugs die.

The injection tests are the oracle's own regression suite: each one
re-introduces a representative hot-path bug (a candidate-algebra error, a
broken SPIG-maintenance step) and asserts the harness catches it, shrinks it,
and renders a compilable reproducer.  If the oracle ever goes blind, these
fail before a real bug can slip through.
"""

from unittest import mock

import repro.core.exact as exact_mod
from repro import obs
from repro.oracle import check_session, generate_trace, run_sweep
from repro.oracle.replay import CONFIG_MATRIX
from repro.spig.manager import SpigManager


class TestCleanSessions:
    def test_fuzzed_sessions_are_divergence_free(self):
        for seed in (0, 5, 9):
            result = check_session(generate_trace(seed))
            assert result.ok, "\n\n".join(
                d.describe() for d in result.divergences
            )

    def test_sweep_reports_and_manifest(self):
        report = run_sweep(sessions=4, base_seed=0, shrink=False)
        assert report.ok
        assert report.sessions == 4
        assert report.total_replays == 4 * len(CONFIG_MATRIX)
        manifest = report.manifest()
        assert manifest["divergence_free"] is True
        assert manifest["failures"] == []
        assert len(manifest["configs"]) == len(CONFIG_MATRIX)
        assert manifest["oracles"] == ["naive-baseline", "fresh-replay"]
        assert manifest["total_steps"] == report.total_steps

    def test_pooled_cells_reach_the_pool(self):
        """The workers>1 cells replay the pooled path, not only the serial
        one: fuzzed batches are small, so the cells pin the pool floor to
        one candidate."""
        with obs.trace():
            report = run_sweep(sessions=3, base_seed=0, shrink=False)
            pool_runs = obs.METRICS.counter("verify.pool.runs")
        assert report.ok
        assert pool_runs >= 1

    def test_progress_callback_fires(self):
        lines = []
        run_sweep(sessions=10, base_seed=0, progress=lines.append)
        assert lines  # one update per 10 clean sessions


def _first_diverging_seed(max_seed=30):
    for seed in range(max_seed):
        trace = generate_trace(seed)
        result = check_session(trace)
        if not result.ok:
            return trace, result
    return None, None


class TestInjectedBitsetBug:
    """A bug in the bitset candidate algebra — the naive scan's job."""

    def _patched(self):
        real = exact_mod._phi_upsilon_bits

        def buggy(vertex, indexes, db_bits):
            return real(vertex, indexes, db_bits) & ~1  # drop graph 0

        return mock.patch.object(exact_mod, "_phi_upsilon_bits", buggy)

    def test_caught_shrunk_and_rendered(self):
        with self._patched():
            trace, result = _first_diverging_seed()
            assert trace is not None, "injected bug was not caught"
            kinds = {d.kind for d in result.divergences}
            assert "naive-baseline" in kinds  # Rq lost a true match

            from repro.oracle import format_reproducer, shrink_trace

            shrunk = shrink_trace(
                trace, lambda t: not check_session(t).ok
            )
            assert len(shrunk) <= len(trace)
            assert not check_session(shrunk).ok
            source = format_reproducer(
                shrunk, check_session(shrunk).divergences
            )
            compile(source, "<reproducer>", "exec")

    def test_clean_again_once_the_bug_is_gone(self):
        # The same seeds must pass on the unpatched tree: the detection above
        # is attributable to the injection, nothing else.
        trace, _ = None, None
        with self._patched():
            trace, _ = _first_diverging_seed()
        assert trace is not None
        assert check_session(trace).ok


class TestInjectedMaintenanceBug:
    """Broken deletion upkeep — the fresh-replay oracle's job."""

    def test_caught(self):
        # Find a session that actually deletes an edge and survives to Run.
        trace = next(
            t for t in (generate_trace(s) for s in range(30))
            if any(a.op in ("delete_edge", "delete_edges")
                   for a in t.actions)
        )
        assert check_session(trace).ok
        with mock.patch.object(
            SpigManager, "on_delete_edge", lambda self, edge_id: None
        ):
            result = check_session(trace)
        assert not result.ok
