"""The ``python -m repro trace`` subcommand and oracle-trace persistence."""

import json

import pytest

from repro.cli import main
from repro.oracle.fuzzer import generate_trace
from repro.oracle.trace import load_trace, save_trace


class TestTracePersistence:
    def test_save_load_round_trip(self, tmp_path):
        trace = generate_trace(seed=9)
        path = save_trace(trace, tmp_path / "session.json")
        loaded = load_trace(path)
        assert loaded.spec == trace.spec
        assert loaded.sigma == trace.sigma
        assert loaded.seed == trace.seed
        assert loaded.actions == trace.actions

    def test_saved_file_is_plain_json(self, tmp_path):
        trace = generate_trace(seed=9)
        path = save_trace(trace, tmp_path / "session.json")
        payload = json.loads(path.read_text())
        assert payload["spec"]["seed"] == trace.spec.seed
        assert len(payload["actions"]) == len(trace)


class TestTraceCommand:
    def test_seeded_replay_prints_all_sections(self, capsys):
        assert main(["trace", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "spans (" in out
        assert "action.run" in out
        assert "metrics:" in out
        assert "SRT ledger" in out
        assert "end-to-end wall time" in out

    def test_ledger_sums_to_wall_time_within_rounding(self, capsys):
        """The acceptance check: total processing = hidden + SRT, and the
        reconciliation line accounts for the replay's wall time."""
        assert main(["trace", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        # the renderer prints the identity's float slack directly
        assert "slack 0.0" in out
        assert "ledger covers" in out

    def test_replay_from_saved_trace_file(self, tmp_path, capsys):
        trace = generate_trace(seed=5)
        path = save_trace(trace, tmp_path / "t.json")
        assert main(["trace", "--trace", str(path)]) == 0
        out = capsys.readouterr().out
        assert "spans (" in out
        assert str(path.name) in out or "trace" in out

    def test_json_report(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        assert main(["trace", "--seed", "1", "--json", str(out_path)]) == 0
        capsys.readouterr()
        payload = json.loads(out_path.read_text())
        assert payload["spans"], "span tree missing"
        assert any(
            root["name"] == "action.run" for root in payload["spans"]
        )
        assert "counters" in payload["metrics"]
        assert payload["ledger"]["entries"]
        assert payload["wall_seconds"] > 0
        # the ledger's internal identity holds in the exported numbers too
        ledger = payload["ledger"]
        assert ledger["total_processing"] == pytest.approx(
            ledger["hidden_seconds"] + ledger["srt_seconds"]
        )

    def test_min_ms_prunes_spans(self, capsys):
        assert main(["trace", "--seed", "1", "--min-ms", "10000"]) == 0
        out = capsys.readouterr().out
        # nothing in a toy replay takes 10 s; the tree renders empty
        # (the action.* histograms still appear in their own section)
        spans_section = out.split("metrics:")[0]
        assert "spig.construct" not in spans_section
        assert "action.run" not in spans_section

    def test_latency_override_reaches_ledger(self, capsys):
        assert main(["trace", "--seed", "1", "--latency", "5"]) == 0
        out = capsys.readouterr().out
        assert "5.00 s" in out
