"""The continuous exporter: live files, switching, worker safety.

``REPRO_OBS_EXPORT`` (or ``export_to``) turns a session into a streamed one:
every recorder event appends to ``events.jsonl`` and the metrics snapshot
lands in ``metrics.prom``/``snapshot.json`` at most once per interval.
These tests pin the file formats (schema-v2 envelopes, Prometheus text
exposition), switching the target, and worker suspension.
"""

import json
import os

import pytest

from repro.obs.exporter import EXPORTER, ContinuousExporter


@pytest.fixture
def exporter(tmp_path):
    """A fresh (non-singleton) exporter pointed at a temp directory."""
    exp = ContinuousExporter()
    exp.export_to(tmp_path)
    exp.interval_s = 0.0
    return exp, tmp_path


@pytest.fixture
def exporting(tmp_path, monkeypatch):
    """The process-wide exporter streaming into ``tmp_path`` for one test,
    rewriting its metrics files at every action."""
    monkeypatch.setattr(EXPORTER, "interval_s", 0.0)
    saved = EXPORTER.directory
    EXPORTER.export_to(tmp_path)
    yield tmp_path
    EXPORTER.export_to(saved)


class TestStreaming:
    def test_events_stream_as_enveloped_jsonl(self, exporter):
        exp, directory = exporter
        assert exp.active
        exp.emit({"seq": 1, "t_s": 0.25, "kind": "action.start", "op": "new"})
        exp.emit({"seq": 2, "t_s": 0.50, "kind": "action.end", "op": "new"})
        lines = (directory / "events.jsonl").read_text().splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first["schema"] == 2
        assert first["kind"] == "obs-event"  # envelope kind survives
        assert first["event"] == "action.start"  # the recorder kind rides here
        assert first["op"] == "new"
        assert exp.events_emitted == 2

    def test_tick_writes_prometheus_and_snapshot_atomically(self, exporter):
        exp, directory = exporter
        path = exp.tick(force=True)
        assert path == directory / "snapshot.json"
        snap = json.loads(path.read_text())
        assert snap["schema"] == 2
        assert snap["kind"] == "metrics-snapshot"
        assert snap["pid"] == os.getpid()
        assert snap["sequence"] == 1
        assert {"counters", "gauges", "histograms"} <= set(snap["metrics"])
        prom = (directory / "metrics.prom").read_text()
        assert "# TYPE repro_counter counter" in prom
        assert "# TYPE repro_latency_seconds summary" in prom
        assert not list(directory.glob(".*.tmp"))  # no temp litter

    def test_tick_exports_profiles_when_the_sampler_has_samples(
        self, exporter
    ):
        from repro.obs.profiler import PROFILER

        exp, directory = exporter
        saved_hz = PROFILER.hz
        PROFILER.reset()
        PROFILER.set_hz(200.0)
        try:
            PROFILER.merge({
                "hz": 200.0, "samples": 4,
                "slices": [{"request_id": None, "action": "run",
                            "stacks": {"a.py:main;a.py:hot": 4}}],
                "memory": {},
            })
            exp.tick(force=True)
        finally:
            PROFILER.set_hz(saved_hz)
        folded = (directory / "profiles" / "profile.folded").read_text()
        assert "a.py:main;a.py:hot 4" in folded
        payload = json.loads(
            (directory / "profiles" / "profile.json").read_text()
        )
        assert payload["kind"] == "profile"
        assert payload["summary"]["samples"] == 4
        assert not list((directory / "profiles").glob(".*.tmp"))
        PROFILER.reset()

    def test_tick_skips_profiles_while_the_sampler_is_off(self, exporter):
        exp, directory = exporter
        exp.tick(force=True)
        assert not (directory / "profiles").exists()

    def test_interval_gates_snapshot_rewrites(self, tmp_path):
        exp = ContinuousExporter()
        exp.export_to(tmp_path)
        assert exp.interval_s == 1.0
        exp.interval_s = 3600.0
        assert exp.tick() is not None  # first tick always writes
        assert exp.tick() is None      # next one waits for the interval
        assert exp.tick(force=True) is not None
        assert exp.snapshots_written == 2

    def test_inactive_without_the_knob(self, monkeypatch):
        monkeypatch.delenv("REPRO_OBS_EXPORT", raising=False)
        exp = ContinuousExporter()
        assert not exp.active
        assert exp.tick(force=True) is None
        exp.emit({"kind": "x"})  # must not raise, must not open files
        assert exp.events_emitted == 0


class TestSwitching:
    def test_export_to_moves_the_stream(self, exporter, tmp_path):
        exp, directory = exporter
        exp.emit({"seq": 1, "t_s": 0.0, "kind": "x"})
        other = tmp_path / "elsewhere"
        exp.export_to(other)
        assert other.is_dir() and exp.directory == other
        exp.emit({"seq": 2, "t_s": 0.0, "kind": "y"})
        assert len((directory / "events.jsonl").read_text().splitlines()) == 1
        assert len((other / "events.jsonl").read_text().splitlines()) == 1


class TestWorkerSuspension:
    def test_suspend_is_permanent_and_quiet(self, exporter):
        exp, directory = exporter
        exp.suspend()
        assert not exp.active
        exp.emit({"seq": 1, "t_s": 0.0, "kind": "x"})
        assert not (directory / "events.jsonl").exists()
        # even pointing it at a directory again leaves it inactive
        exp.export_to(directory / "sub")
        assert not exp.active

    def test_suspend_does_not_close_the_parents_handle(self, exporter):
        exp, directory = exporter
        exp.emit({"seq": 1, "t_s": 0.0, "kind": "x"})
        handle = exp._events_file
        assert handle is not None
        exp.suspend()
        assert not handle.closed  # the fd belongs to the parent on fork

    def test_pool_workers_stay_off_the_parents_stream(
        self, exporting, monkeypatch
    ):
        """Workers forked while ``events.jsonl`` is open inherit its handle.
        They record nothing and their exporter is suspended, so one pooled
        batch leaves exactly the parent's lines: one ``pool.run`` and one
        ``pool.chunk`` per chunk."""
        import repro.core.pool as pool_mod
        from repro.core.verification import verify_batch
        from repro.datasets import generate_aids_like
        from repro.obs.recorder import RECORDER

        monkeypatch.setenv("REPRO_POOL_MIN_CANDIDATES", "16")
        monkeypatch.setattr(RECORDER, "enabled", True)
        RECORDER.reset()
        db = generate_aids_like(60, seed=7)
        pool_mod.shutdown()  # so the workers fork after the stream opens
        try:
            verify_batch(db[0], list(db.ids()), db, workers=2)
            switches = pool_mod.POOL.map(_worker_switches, [0, 1], 2, db)
        finally:
            pool_mod.shutdown()
            RECORDER.reset()
        assert switches == [(False, False, False)] * 2
        events = [
            json.loads(line) for line in
            (exporting / "events.jsonl").read_text().splitlines()
        ]
        kinds = [e["event"] for e in events]
        assert "pool.fallback" not in kinds
        (run,) = [e for e in events if e["event"] == "pool.run"]
        chunks = [e for e in events if e["event"] == "pool.chunk"]
        assert run["chunks"] >= 2
        assert len(chunks) == run["chunks"]
        assert all(e["src"] == f"pid-{e['pid']}" for e in chunks)


def _worker_switches(_):
    """What a pool worker's exporter, recorder and tracer are set to."""
    from repro.obs.recorder import RECORDER
    from repro.obs.tracer import TRACER

    return EXPORTER.active, RECORDER.enabled, TRACER.enabled


class TestGlobalWiring:
    def test_session_streams_through_the_singleton(self, exporting):
        """End-to-end: a traced CLI session with export on leaves all three
        export files behind."""
        from repro.cli import main

        tmp_path = exporting
        assert main(["trace", "--seed", "1"]) == 0
        assert EXPORTER.active and EXPORTER.directory == tmp_path
        assert (tmp_path / "events.jsonl").stat().st_size > 0
        assert (tmp_path / "metrics.prom").stat().st_size > 0
        snap = json.loads((tmp_path / "snapshot.json").read_text())
        assert snap["kind"] == "metrics-snapshot"
        for line in (tmp_path / "events.jsonl").read_text().splitlines():
            assert json.loads(line)["kind"] == "obs-event"

    def test_oracle_replays_are_isolated_from_export(self, exporting):
        """A replay sweep writes nothing into a live export directory, and
        the exporter streams there again afterwards."""
        from repro.oracle.fuzzer import generate_trace
        from repro.oracle.replay import REFERENCE_CONFIG, applied, replay_trace

        tmp_path = exporting
        with applied(REFERENCE_CONFIG):
            assert not EXPORTER.active
        replay_trace(generate_trace(seed=0), REFERENCE_CONFIG)
        assert list(tmp_path.iterdir()) == []
        assert EXPORTER.active and EXPORTER.directory == tmp_path
