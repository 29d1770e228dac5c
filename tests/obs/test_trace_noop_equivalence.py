"""Tracing must never change answers.

The observability layer is read-only by design: the same fuzzed session,
replayed with tracing off and on, must produce byte-identical step
observations through the differential-oracle differ.
"""

import pytest

from repro import obs
from repro.oracle.diff import first_divergence
from repro.oracle.fuzzer import generate_trace
from repro.oracle.replay import REFERENCE_CONFIG, replay_trace


def _observations(trace, traced, monkeypatch):
    monkeypatch.setattr(obs.TRACER, "enabled", traced)
    obs.TRACER.reset()
    obs.METRICS.reset()
    return replay_trace(trace, REFERENCE_CONFIG).observations


@pytest.mark.parametrize("seed", [0, 3, 11, 42])
def test_traced_replay_observations_identical(seed, monkeypatch):
    trace = generate_trace(seed=seed)
    untraced = _observations(trace, False, monkeypatch)
    traced = _observations(trace, True, monkeypatch)
    divergence = first_divergence(
        untraced, traced, left="tracing off", right="tracing on", kind="obs"
    )
    assert divergence is None
    assert len(untraced) == len(traced) == len(trace)


def test_traced_replay_actually_recorded_spans(monkeypatch):
    """Guard the guard: the traced leg really had tracing on."""
    trace = generate_trace(seed=3)
    monkeypatch.setattr(obs.TRACER, "enabled", True)
    obs.TRACER.reset()
    replay_trace(trace, REFERENCE_CONFIG)
    recorded = obs.TRACER.span_count()
    obs.TRACER.reset()
    assert recorded > 0


def test_programmatic_trace_block_is_also_neutral():
    trace = generate_trace(seed=7)
    baseline = replay_trace(trace, REFERENCE_CONFIG).observations
    with obs.trace():
        traced = replay_trace(trace, REFERENCE_CONFIG).observations
    assert (
        first_divergence(baseline, traced, left="plain", right="obs.trace")
        is None
    )
