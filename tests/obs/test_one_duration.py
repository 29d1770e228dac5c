"""An engine gesture has one duration, and every record of it carries it.

The report's ``processing_seconds``, the ``action.<op>`` histogram sample,
the flight recorder's ``action.end`` event and the gesture's span all read
the one ``action.<op>`` timed region — and a New's ``spig_seconds`` is its
``spig.construct`` region.
"""

import pytest

from repro import obs
from repro.core.prague import PragueEngine
from repro.obs.recorder import RECORDER

#: gesture -> (op of its region, the call), on the 2-edge A-B-C path.
GESTURES = {
    "add_edge": ("new", lambda e: e.add_edge(2, 3)),
    "enable_similarity": ("simquery", lambda e: e.enable_similarity()),
    "delete_edge": (
        "modify", lambda e: e.delete_edge(max(e.query.edge_id_set()))
    ),
    "delete_edges": (
        "modify", lambda e: e.delete_edges([max(e.query.edge_id_set())])
    ),
    "relabel_node": ("modify", lambda e: e.relabel_node(2, "A")),
    "run": ("run", lambda e: e.run()),
}

#: ``action.end`` keys that are not the region's attributes.
_EVENT_KEYS = {"seq", "t_s", "kind", "op", "seconds"}


def _engine(db, indexes):
    engine = PragueEngine(db, indexes, sigma=1)
    for node, label in enumerate("ABCA"):
        engine.add_node(node, label)
    engine.add_edge(0, 1)
    engine.add_edge(1, 2)
    return engine


@pytest.mark.parametrize("gesture", sorted(GESTURES))
def test_every_record_of_a_gesture_carries_its_one_duration(
    gesture, small_db, small_indexes, monkeypatch
):
    op, act = GESTURES[gesture]
    engine = _engine(small_db, small_indexes)
    monkeypatch.setattr(RECORDER, "enabled", True)
    RECORDER.reset()
    try:
        with obs.trace() as tracer:
            report = act(engine)
        events = RECORDER.snapshot()
    finally:
        RECORDER.reset()
    seconds = report.processing_seconds
    assert seconds > 0.0

    (root,) = [r for r in tracer.roots if r.name == f"action.{op}"]
    assert root.seconds == seconds
    (end,) = [
        e for e in events if e["kind"] == "action.end" and e["op"] == op
    ]
    assert end["seconds"] == seconds
    assert {k: v for k, v in end.items() if k not in _EVENT_KEYS} \
        == root.attrs
    histogram = obs.HISTOGRAMS[f"action.{op}"]
    assert (histogram.count, histogram.sum) == (1, seconds)

    constructs = obs.HISTOGRAMS.get("spig.construct")
    if gesture == "add_edge":
        (spig,) = [c for c in root.children if c.name == "spig.construct"]
        assert report.spig_seconds == spig.seconds > 0.0
        assert (constructs.count, constructs.sum) == (1, spig.seconds)
    if gesture == "relabel_node":
        # every re-drawn edge is a New of its own SPIG, sampled as such
        assert constructs.count == end["edges"] >= 1
