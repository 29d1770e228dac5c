"""``obs.trace(reset=True)`` must be exception-safe.

The context manager enables tracing for a block; if the block raises, it
must (a) restore the tracer's prior enabled state and (b) never leave a
half-reset span stack behind — an open span surviving the block would
silently reparent every span of the *next* traced block under a dead
ancestor.
"""

import pytest

from repro import obs
from repro.obs.tracer import TRACER, timed


@pytest.fixture(autouse=True)
def _clean_tracer(monkeypatch):
    monkeypatch.setattr(TRACER, "enabled", False)
    TRACER.reset()
    yield
    TRACER.reset()


def test_exception_restores_prior_enabled_state():
    with pytest.raises(RuntimeError):
        with obs.trace():
            raise RuntimeError("boom")
    assert TRACER.enabled is False
    TRACER.enabled = True
    with pytest.raises(RuntimeError):
        with obs.trace():
            TRACER.enabled = False  # a block may switch it itself
            raise RuntimeError("boom")
    assert TRACER.enabled is True


def test_exception_does_not_leave_open_spans_on_the_stack():
    """The regression: a span open at the moment of the raise used to stay
    on the tracer's stack after ``trace()`` unwound."""
    with pytest.raises(ValueError):
        with obs.trace() as tracer:
            handle = timed("leaky")
            handle.__enter__()  # opened, never exited: the raise skips it
            raise ValueError("boom")
    assert tracer._stack == [], "span stack must be empty after trace()"


def test_exception_closes_the_abandoned_spans():
    with pytest.raises(ValueError):
        with obs.trace() as tracer:
            outer = timed("outer")
            outer.__enter__()
            inner = timed("inner")
            inner.__enter__()
            raise ValueError("boom")
    # Both spans were closed (given an end time) during the unwind.
    for root in tracer.roots:
        for s, _depth in root.walk():
            assert s.end_s is not None, f"span {s.name!r} left open"


def test_next_trace_block_is_not_reparented_under_a_leaked_span():
    with pytest.raises(ValueError):
        with obs.trace():
            timed("leaky").__enter__()
            raise ValueError("boom")
    with obs.trace(reset=False) as tracer:
        with timed("fresh"):
            pass
    names = [root.name for root in tracer.roots]
    assert "fresh" in names, (
        "the post-exception span must be a root, not a child of the leak"
    )


def test_nested_trace_blocks_unwind_to_their_own_depth():
    with obs.trace() as tracer:
        with timed("outer"):
            with pytest.raises(KeyError):
                with obs.trace(reset=False):
                    timed("abandoned").__enter__()
                    raise KeyError("boom")
            # The outer block's span context is intact after the inner raise.
            assert [s.name for s in tracer._stack] == ["outer"]
    assert tracer._stack == []


def test_happy_path_unchanged():
    with obs.trace() as tracer:
        with timed("a"):
            with timed("b"):
                pass
    assert tracer.span_count() == 2
    assert tracer._stack == []
