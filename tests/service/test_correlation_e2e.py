"""End-to-end correlation: one id stitches client → handler → worker.

The acceptance test of the telemetry plane: drive one formulation through
the *real* HTTP server with ``REPRO_WORKERS=2`` and a pool floor low
enough that Run's verification actually dispatches to worker processes,
then assert the same client-supplied request id appears on

* the response's ``X-Prague-Request`` echo,
* the action's root span tree (``request_id`` span attribute),
* the recorder's structured ``service.request`` access-log event, and
* at least one ``pool.chunk`` event the dispatching thread recorded for a
  worker's chunk (recognisable by its ``pid-*`` src label),

all reassembled by ``GET /v1/requests/<id>`` — the postmortem route.
"""

import random

import pytest

from repro import obs
from repro.config import MiningParams
from repro.core.plane import SharedPlane
from repro.datasets import generate_aids_like
from repro.graph.generators import random_connected_subgraph
from repro.index import build_indexes
from repro.obs.recorder import RECORDER
from repro.obs.tracer import TRACER
from repro.service import PragueService, ServiceClient, SessionManager
from repro.testing import connected_order


@pytest.fixture()
def correlated_stack(monkeypatch):
    """A live server over a corpus big enough to engage the pool.

    Tracing and the recorder are switched on (correlation stamps root spans
    only while tracing is enabled); the pool floor is pinned below the
    candidate counts this corpus produces, and the index's fragment size is
    capped low so a 5-edge query always leaves the indexed envelope and
    forces Run-side verification.
    """
    monkeypatch.setenv("REPRO_WORKERS", "2")
    monkeypatch.setenv("REPRO_POOL_MIN_CANDIDATES", "2")
    monkeypatch.setattr(TRACER, "enabled", True)
    TRACER.reset()
    monkeypatch.setattr(RECORDER, "enabled", True)
    RECORDER.reset()
    db = generate_aids_like(60, seed=7)
    indexes = build_indexes(db, MiningParams(
        min_support=0.15, size_threshold=3, max_fragment_edges=3
    ))
    plane = SharedPlane(db, indexes)
    plane.warm()
    server = PragueService(
        SessionManager(plane, max_sessions=4, ttl=0, sigma=2), port=0
    )
    thread = server.serve_background()
    try:
        yield server, db
    finally:
        server.shutdown()
        thread.join(timeout=5.0)
        server.server_close()
        TRACER.reset()
        RECORDER.reset()


def _query(db, seed, edges=5):
    rng = random.Random(seed)
    while True:
        g = db[rng.randrange(len(db))]
        sub = random_connected_subgraph(rng, g, min(edges, g.num_edges))
        if sub is not None and sub.num_edges >= 4:
            return sub


def test_one_id_stitches_client_handler_session_and_workers(
    correlated_stack,
):
    server, db = correlated_stack
    host, port = server.address
    sub = _query(db, seed=2012)
    sent = []
    with ServiceClient(host, port, timeout=60.0) as client:
        sid = client.create_session(sigma=2)

        def act(op, args):
            rid = f"e2e-{len(sent):03d}"
            sent.append(rid)
            client.request(
                "POST", f"/v1/sessions/{sid}/actions",
                {"op": op, "args": list(args)}, request_id=rid,
            )
            # the echo leg: the response header carries the id we minted
            assert client.last_request_id == rid

        for node in sub.nodes():
            act("add_node", (repr(node), sub.label(node)))
        for u, v in connected_order(sub):
            act("add_edge", (repr(u), repr(v), sub.edge_label(u, v)))
        act("run", ())

        counters = obs.full_snapshot()["counters"]
        if counters.get("verify.pool.fallbacks", 0):
            pytest.skip("pool unavailable on this platform")
        chunk_events = [
            e for e in RECORDER.snapshot() if e["kind"] == "pool.chunk"
        ]
        assert chunk_events, (
            "verification never dispatched to the pool — the correlation "
            "test needs pool.chunk events"
        )
        correlated = [
            e for e in chunk_events
            if e.get("request_id", "").startswith("e2e-")
        ]
        assert correlated, (
            "no pool chunk carried a request id: the dispatching thread "
            "lost the correlation"
        )
        rid = correlated[-1]["request_id"]
        assert rid in sent

        # One fetch reassembles the whole story (the postmortem route).
        bundle = client.request_bundle(rid)
        assert bundle["request_id"] == rid
        # ... the access-log leg
        assert bundle["request"]["request_id"] == rid
        assert bundle["request"]["session"] == sid
        assert bundle["request"]["status"] == 200
        kinds = {e["kind"] for e in bundle["events"]}
        assert "service.request" in kinds
        # ... the worker leg: merged events keep their pid-* provenance
        worker_side = [
            e for e in bundle["events"]
            if e.get("src", "").startswith("pid-")
        ]
        assert worker_side, "worker-side events must correlate by id"
        assert all(e["request_id"] == rid for e in bundle["events"])
        # ... the span leg: the action's root span tree is stamped
        assert bundle["spans"], "the dispatching action's spans must appear"
        assert all(
            span["attrs"]["request_id"] == rid for span in bundle["spans"]
        )
        client.close_session(sid)
