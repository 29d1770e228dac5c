"""The SLO engine and the request ring: math, shapes, and rendering.

The attainment/burn-rate math is property-tested against a brute-force
reference over seeded synthetic sample streams (the tracker takes explicit
``t``/``now`` precisely so these tests need no clock control), the request
ring's bounded/last-wins/ordering contracts are pinned, and the surfacing
paths — ``full_snapshot()``'s ``slo`` section, the Prometheus gauge
families, ``render_top``'s SLO/slowest-requests sections and the
postmortem bundle renderer — are exercised on real shapes.
"""

import random
import threading

import pytest

from repro import obs
from repro.obs.export import (
    render_prometheus,
    render_request_bundle,
    render_top,
)
from repro.obs.requests import RequestLog, request_scope
from repro.obs.slo import (
    DEFAULT_OBJECTIVES,
    SLO,
    SloObjective,
    SloTracker,
    record_action_latency,
    record_admission,
    record_request,
)


def _brute_attainment(samples, window, now):
    live = [(t, good) for t, good in samples if t >= now - window]
    if not live:
        return None
    return sum(1 for _, good in live if good) / len(live)


def _brute_burn(samples, window, now, target):
    attainment = _brute_attainment(samples, window, now)
    budget = 1.0 - target
    if attainment is None or budget <= 0.0:
        return None
    return (1.0 - attainment) / budget


class TestSloMathAgainstBruteForce:
    @pytest.mark.parametrize("seed", range(20))
    def test_attainment_and_burn_match_reference(self, seed):
        """Seeded random sample streams: the tracker's windowed attainment
        and burn rate equal the brute-force fold at every probe point."""
        rng = random.Random(seed)
        window = rng.uniform(1.0, 100.0)
        target = rng.choice([0.9, 0.99, 0.999])
        tracker = SloTracker(
            objectives=(SloObjective("probe", "synthetic", target),),
            window_s=window,
        )
        t = 0.0
        probe_now = 0.0
        samples = []
        for _ in range(rng.randrange(1, 400)):
            t += rng.uniform(0.0, window / 10.0)
            good = rng.random() < 0.9
            samples.append((t, good))
            tracker.record("probe", good, t=t)
            # Probing mid-stream must not disturb later answers — provided
            # ``now`` never goes backwards (the pruning a probe triggers
            # only drops samples already outside every later window).
            if rng.random() < 0.2:
                probe_now = max(probe_now, t + rng.uniform(0.0, window / 4.0))
                expected = _brute_attainment(samples, window, probe_now)
                assert tracker.attainment("probe", now=probe_now) == expected
        now = max(probe_now, t + rng.uniform(0.0, window))
        assert tracker.attainment("probe", now=now) == \
            _brute_attainment(samples, window, now)
        expected_burn = _brute_burn(samples, window, now, target)
        got_burn = tracker.burn_rate("probe", now=now)
        if expected_burn is None:
            assert got_burn is None
        else:
            assert got_burn == pytest.approx(expected_burn)

    def test_everything_aged_out_means_no_samples(self):
        tracker = SloTracker(
            objectives=(SloObjective("probe", "synthetic", 0.99),),
            window_s=10.0,
        )
        for t in (0.0, 1.0, 2.0):
            tracker.record("probe", True, t=t)
        assert tracker.attainment("probe", now=100.0) is None
        assert tracker.burn_rate("probe", now=100.0) is None

    def test_perfect_target_has_no_budget_to_burn(self):
        tracker = SloTracker(
            objectives=(SloObjective("probe", "synthetic", 1.0),),
            window_s=10.0,
        )
        tracker.record("probe", False, t=1.0)
        assert tracker.attainment("probe", now=1.0) == 0.0
        assert tracker.burn_rate("probe", now=1.0) is None

    def test_unknown_objective_is_ignored(self):
        tracker = SloTracker(window_s=10.0)
        tracker.record("nonexistent", True, t=1.0)  # must not raise
        assert tracker.attainment("nonexistent") is None
        assert tracker.burn_rate("nonexistent") is None


class TestSnapshotShape:
    def test_snapshot_carries_every_objective_with_the_full_shape(self):
        tracker = SloTracker(window_s=60.0)
        tracker.record("action_latency", True, t=1.0)
        tracker.record("action_latency", False, t=2.0)
        snap = tracker.snapshot(now=2.0)
        assert set(snap) == {o.name for o in DEFAULT_OBJECTIVES}
        state = snap["action_latency"]
        assert set(state) == {
            "description", "objective", "window_s", "samples", "good",
            "bad", "attainment", "burn_rate", "budget_remaining", "met",
        }
        assert state["samples"] == 2
        assert state["good"] == 1
        assert state["bad"] == 1
        assert state["attainment"] == 0.5
        assert state["burn_rate"] == pytest.approx(0.5 / 0.01)
        assert state["met"] is False
        # Objectives without samples surface as None, not zero.
        assert snap["admission"]["attainment"] is None
        assert snap["admission"]["met"] is None

    def test_full_snapshot_includes_the_slo_section(self):
        with obs.trace():
            snapshot = obs.full_snapshot()
        assert set(snapshot["slo"]) == {o.name for o in DEFAULT_OBJECTIVES}


class TestSingletonFeeds:
    @pytest.fixture(autouse=True)
    def _clean_slo(self):
        SLO.reset()
        yield
        SLO.reset()

    def test_record_action_latency_judges_against_the_gui_window(self):
        record_action_latency(0.05)
        record_action_latency(5.0)  # above the 2 s default window
        snap = SLO.snapshot()["action_latency"]
        assert (snap["good"], snap["bad"]) == (1, 1)

    def test_record_request_spares_admission_rejections(self):
        for status in (200, 404, 503):
            record_request(status)
        record_request(500)
        snap = SLO.snapshot()["request_errors"]
        assert (snap["good"], snap["bad"]) == (3, 1)

    def test_record_admission(self):
        record_admission(True)
        record_admission(False)
        snap = SLO.snapshot()["admission"]
        assert (snap["good"], snap["bad"]) == (1, 1)


class TestRequestLog:
    def test_ring_is_bounded_and_evicts_oldest(self):
        log = RequestLog(size=4)
        for i in range(10):
            log.record(f"r{i}", "GET", "/x", 200, 0.001)
        assert len(log) == 4
        assert [e["request_id"] for e in log.recent(10)] == \
            ["r6", "r7", "r8", "r9"]
        assert log.get("r0") is None

    def test_replayed_id_overwrites_last_wins(self):
        log = RequestLog(size=8)
        log.record("dup", "GET", "/first", 200, 0.001)
        log.record("other", "GET", "/other", 200, 0.001)
        log.record("dup", "GET", "/second", 500, 0.002)
        assert len(log) == 2
        entry = log.get("dup")
        assert entry["path"] == "/second"
        assert entry["status"] == 500
        # the overwrite also moved it to the newest slot
        assert log.recent(1)[0]["request_id"] == "dup"

    def test_slowest_orders_by_duration_then_recency(self):
        log = RequestLog(size=8)
        log.record("fast", "GET", "/a", 200, 0.001)
        log.record("slow", "POST", "/b", 200, 0.5)
        log.record("mid", "GET", "/c", 200, 0.1)
        assert [e["request_id"] for e in log.slowest(2)] == ["slow", "mid"]

    def test_for_session_filters_and_bounds(self):
        log = RequestLog(size=16)
        for i in range(6):
            log.record(f"r{i}", "POST", "/act", 200, 0.01,
                       session_id="s1" if i % 2 == 0 else "s2")
        mine = log.for_session("s1", limit=2)
        assert [e["request_id"] for e in mine] == ["r2", "r4"]
        assert all(e["session"] == "s1" for e in mine)


class TestRequestScopeStamping:
    def test_recorder_events_inside_a_scope_carry_the_id(self):
        from repro.obs.recorder import RECORDER

        RECORDER.force(True)
        RECORDER.reset()
        try:
            with request_scope("req-abc"):
                RECORDER.record("probe.inside", x=1)
            RECORDER.record("probe.outside", x=2)
            events = {e["kind"]: e for e in RECORDER.snapshot()}
        finally:
            RECORDER.force(None)
            RECORDER.reset()
        assert events["probe.inside"]["request_id"] == "req-abc"
        assert "request_id" not in events["probe.outside"]

    def test_root_spans_inside_a_scope_carry_the_id(self):
        with obs.trace() as tracer:
            with request_scope("req-span"):
                with obs.timed("outer"):
                    with obs.timed("inner"):
                        pass
        root = tracer.roots[-1]
        assert root.attrs["request_id"] == "req-span"
        assert "request_id" not in root.children[0].attrs

    def test_concurrent_requests_each_root_their_own_tree(self):
        """Handler threads trace side by side: open regions are tracked per
        thread, so each request's region roots its own tree and carries its
        own id instead of nesting under whichever request opened first."""
        both_open = threading.Barrier(2)

        def handle(request_id):
            with request_scope(request_id):
                with obs.timed("service.request"):
                    both_open.wait(timeout=10)
                    with obs.timed("service.action"):
                        pass

        with obs.trace() as tracer:
            threads = [threading.Thread(target=handle, args=(rid,))
                       for rid in ("req-a", "req-b")]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
        assert sorted(r.attrs["request_id"] for r in tracer.roots) == [
            "req-a", "req-b",
        ]
        for root in tracer.roots:
            assert [c.name for c in root.children] == ["service.action"]


class TestRendering:
    def _snapshot_with_slo(self):
        tracker = SloTracker(window_s=60.0)
        for _ in range(99):
            tracker.record("action_latency", True, t=1.0)
        tracker.record("action_latency", False, t=1.0)
        return {
            "counters": {}, "gauges": {}, "histograms": {},
            "slo": tracker.snapshot(now=1.0),
        }

    def test_prometheus_emits_slo_gauge_families(self):
        text = render_prometheus(self._snapshot_with_slo())
        assert '# TYPE repro_slo_attainment gauge' in text
        assert 'repro_slo_attainment{objective="action_latency"} 0.99' \
            in text
        assert 'repro_slo_burn_rate{objective="action_latency"} 1.0' in text
        # objectives without samples emit nothing (no NaN series)
        assert 'objective="admission"' not in text

    def test_render_top_shows_slo_and_slowest_requests(self):
        bundle = {
            "pid": 42, "sequence": 1, "events_emitted": 0,
            "metrics": self._snapshot_with_slo(),
        }
        requests = [{
            "request_id": "deadbeef", "method": "POST",
            "path": "/v1/sessions/s1/actions", "status": 200,
            "duration_ms": 12.5, "session": "s1",
        }]
        frame = render_top(bundle, (), directory="http://host:1",
                           requests=requests)
        assert "SLOs (rolling window):" in frame
        assert "action_latency" in frame
        assert "99.00%" in frame
        assert "slowest recent requests" in frame
        assert "id=deadbeef" in frame

    def test_render_top_waiting_message_is_url_aware(self):
        frame = render_top(None, (), directory="http://host:8765")
        assert "http://host:8765/obs" in frame
        assert "is the server up?" in frame

    def test_render_request_bundle_lists_spans_and_events(self):
        data = {
            "request_id": "cafe1234",
            "request": {
                "request_id": "cafe1234", "method": "POST",
                "path": "/v1/sessions/s1/actions", "status": 200,
                "duration_ms": 34.5, "session": "s1",
            },
            "events": [
                {"kind": "service.request", "seq": 9, "t_s": 10.0,
                 "request_id": "cafe1234", "status": 200},
                {"kind": "pool.chunk", "seq": 8, "t_s": 10.5,
                 "request_id": "cafe1234", "src": "pid-77"},
            ],
            "spans": [{
                "name": "service.action", "seconds": 0.030,
                "attrs": {"request_id": "cafe1234", "op": "run"},
                "children": [{
                    "name": "engine.run", "seconds": 0.025,
                    "attrs": {}, "children": [],
                }],
            }],
        }
        text = render_request_bundle(data)
        assert "request cafe1234" in text
        assert "correlated spans (1 roots):" in text
        assert "service.action" in text
        assert "engine.run" in text
        assert "correlated events (2):" in text
        assert "pool.chunk" in text
        assert "src=pid-77" in text

    def test_render_request_bundle_with_nothing_correlated(self):
        text = render_request_bundle({"request_id": "x", "request": None,
                                      "events": [], "spans": []})
        assert "request x" in text
        assert "nothing correlated" in text
