"""Flight recorder: ring bound, gating, dedup, and answer-neutrality.

The recorder is the always-on black box; these tests pin its four promises:
the ring is bounded (oldest events drop, drop count reported), the
``enabled`` switch gates it, ``transition`` compresses streaks to flips,
and — the one that matters most — turning it on or off never changes a
session's observations.
"""

import json

from repro.obs.recorder import RECORDER, FlightRecorder, render_postmortem
from repro.oracle.diff import first_divergence
from repro.oracle.fuzzer import generate_trace
from repro.oracle.replay import REFERENCE_CONFIG, replay_trace


def test_ring_is_bounded_and_reports_drops():
    r = FlightRecorder(size=4)
    r.enabled = True
    for i in range(10):
        r.record("tick", i=i)
    events = r.snapshot()
    assert len(events) == 4
    assert [e["i"] for e in events] == [6, 7, 8, 9]
    bundle = r.dump(reason="test")
    assert bundle["dropped"] == 6
    assert bundle["capacity"] == 4


def test_disabled_recorder_is_silent():
    r = FlightRecorder(size=8)
    r.enabled = False
    r.record("tick")
    r.transition("cache", "hit")
    r.record_exception("boom", ValueError("x"))
    assert r.snapshot() == []
    assert r.calls == 0


def test_transition_records_only_flips():
    r = FlightRecorder(size=32)
    r.enabled = True
    for state in ("hit", "hit", "hit", "miss", "miss", "hit"):
        r.transition("cache", state)
    events = r.snapshot()
    assert [(e["from"], e["to"]) for e in events] == [
        (None, "hit"), ("hit", "miss"), ("miss", "hit")
    ]
    assert r.calls == 6  # every probe counts toward overhead volume


def test_exception_events_carry_the_traceback():
    r = FlightRecorder(size=8)
    r.enabled = True
    try:
        raise RuntimeError("pool died")
    except RuntimeError as exc:
        r.record_exception("pool.fallback", exc, chunks=3)
    (event,) = r.snapshot()
    assert event["error"] == "RuntimeError: pool died"
    assert "RuntimeError: pool died" in event["traceback"]
    assert event["chunks"] == 3


def test_dump_render_roundtrip_through_json():
    r = FlightRecorder(size=8)
    r.enabled = True
    r.record("action.start", op="new")
    r.transition("a2f.lookup", "hit")
    try:
        raise ValueError("bad option")
    except ValueError as exc:
        r.record_exception("replay.exception", exc)
    bundle = json.loads(json.dumps(r.dump(reason="unit-test", seed=42)))
    assert bundle["schema"] == 2
    assert bundle["kind"] == "postmortem"
    assert bundle["seed"] == 42
    text = render_postmortem(bundle)
    assert "unit-test" in text
    assert "action.start" in text
    assert "op=new" in text
    assert "| " in text  # traceback lines are indented into the timeline


def _observations(trace, enabled, monkeypatch):
    monkeypatch.setattr(RECORDER, "enabled", enabled)
    RECORDER.reset()
    session = replay_trace(trace, REFERENCE_CONFIG)
    RECORDER.reset()
    return session.observations


def test_recorder_never_changes_answers(monkeypatch):
    """Recorder off vs on must be byte-identical through the differ."""
    for seed in (0, 9, 23):
        trace = generate_trace(seed=seed)
        off = _observations(trace, False, monkeypatch)
        on = _observations(trace, True, monkeypatch)
        divergence = first_divergence(
            off, on, left="recorder off", right="recorder on",
            kind="obs",
        )
        assert divergence is None, divergence
        assert len(off) == len(on) == len(trace)


def test_recorder_actually_recorded_the_on_leg(monkeypatch):
    """Guard the guard: the enabled leg really captured engine events."""
    trace = generate_trace(seed=9)
    monkeypatch.setattr(RECORDER, "enabled", True)
    RECORDER.reset()
    replay_trace(trace, REFERENCE_CONFIG)
    kinds = {e["kind"] for e in RECORDER.snapshot()}
    RECORDER.reset()
    assert "action.start" in kinds or "transition" in kinds
