"""Request-scoped service telemetry: correlation, SLOs, new ops routes.

Covers the telemetry plane end to end at the HTTP layer: the
``X-Prague-Request`` round trip (honored, minted, sanitized), the
structured access-log event, the ``/obs`` and ``/healthz`` payload schemas
(including the ``slo`` section shape), the per-session
``GET /v1/sessions/<sid>/obs`` view, ``GET /v1/requests/<rid>`` bundles,
the 413 oversized-body mapping and the mid-write disconnect guard.
"""

import http.client
import json

import pytest

from repro.obs.metrics import METRICS
from repro.obs.recorder import RECORDER
from repro.obs.requests import REQUEST_LOG
from repro.obs.slo import DEFAULT_OBJECTIVES
from repro.service import ServiceClientError
from repro.service.http import MAX_BODY_BYTES, ServiceHandler


@pytest.fixture()
def recording(monkeypatch):
    """Switch the flight recorder on and hand back a clean ring."""
    monkeypatch.setattr(RECORDER, "enabled", True)
    RECORDER.reset()
    yield
    RECORDER.reset()


class TestRequestIdRoundTrip:
    def test_client_supplied_id_is_honored_and_echoed(self, client):
        client.request("GET", "/healthz", request_id="my-req.001")
        assert client.last_request_id == "my-req.001"

    def test_server_mints_an_id_when_none_is_sent(self, client):
        client.health()
        first = client.last_request_id
        assert first and len(first) == 16
        client.health()
        assert client.last_request_id != first  # fresh per request

    def test_hostile_header_value_is_replaced_with_a_minted_id(self, client):
        client.request("GET", "/healthz", request_id="x" * 65)
        assert client.last_request_id != "x" * 65
        assert len(client.last_request_id) == 16

    def test_error_responses_still_echo_the_id(self, client):
        with pytest.raises(ServiceClientError):
            client.request("GET", "/nope", request_id="err-req")
        assert client.last_request_id == "err-req"


class TestAccessLog:
    def test_completed_request_lands_in_recorder_and_ring(
        self, client, recording
    ):
        sid = client.create_session()
        client.add_node(sid, "a", "A", )
        rid = client.last_request_id
        event = next(
            e for e in RECORDER.snapshot()
            if e["kind"] == "service.request" and e.get("request_id") == rid
        )
        assert event["method"] == "POST"
        assert event["path"] == f"/v1/sessions/{sid}/actions"
        assert event["status"] == 200
        assert event["duration_ms"] > 0
        assert event["session_id"] == sid
        entry = REQUEST_LOG.get(rid)
        assert entry is not None
        assert entry["status"] == 200
        assert entry["session"] == sid
        client.close_session(sid)


class TestObsSchemas:
    def test_healthz_envelope_schema(self, client):
        health = client.health()
        assert health["schema"] == 2
        assert health["kind"] == "service-response"
        assert health["protocol"] == 1
        assert health["status"] == "ok"
        for field in ("active", "created", "evicted", "max_sessions",
                      "db_graphs"):
            assert field in health, field

    def test_obs_envelope_and_slo_section_shape(self, client):
        client.health()  # at least one completed request in the window
        data = client.obs()
        assert data["schema"] == 2
        assert data["kind"] == "service-response"
        assert data["protocol"] == 1
        assert isinstance(data["pid"], int)
        assert set(data["snapshot"]) >= {"counters", "gauges", "histograms",
                                         "slo"}
        assert set(data["slo"]) == {o.name for o in DEFAULT_OBJECTIVES}
        for state in data["slo"].values():
            assert set(state) >= {
                "description", "objective", "window_s", "samples", "good",
                "bad", "attainment", "burn_rate", "budget_remaining", "met",
            }
        errors = data["slo"]["request_errors"]
        assert errors["samples"] >= 1
        assert errors["attainment"] is not None
        requests = data["requests"]
        assert requests["tracked"] >= 1
        assert isinstance(requests["slowest"], list)
        assert isinstance(requests["recent"], list)
        assert {"request_id", "method", "path", "status", "duration_ms"} <= \
            set(requests["recent"][-1])
        assert isinstance(data["events"], list)


class TestSessionObsRoute:
    def test_session_obs_payload(self, client):
        sid = client.create_session(sigma=2)
        client.add_node(sid, "a", "A")
        client.add_node(sid, "b", "B")
        client.add_edge(sid, "a", "b")
        client.run(sid)
        data = client.session_obs(sid)
        assert data["session"] == sid
        assert data["actions"] == 4
        latency = data["action_latency"]
        assert latency["count"] == 4
        assert 0 < latency["p50_s"] <= latency["p99_s"] <= latency["max_s"]
        srt = data["srt"]
        assert srt["entries"], "edge gestures must produce ledger rows"
        assert srt["srt_seconds"] >= 0.0
        assert srt["run_seconds"] >= 0.0
        tail = data["requests"]
        assert tail, "request ring should hold this session's actions"
        assert all(e["session"] == sid for e in tail)
        client.close_session(sid)

    def test_unknown_session_is_404(self, client):
        with pytest.raises(ServiceClientError) as excinfo:
            client.session_obs("ghost")
        assert excinfo.value.status == 404


class TestRequestBundleRoute:
    def test_bundle_returns_the_correlated_story(self, client, recording):
        sid = client.create_session()
        client.add_node(sid, "a", "A")
        rid = client.last_request_id
        bundle = client.request_bundle(rid)
        assert bundle["request_id"] == rid
        assert bundle["request"]["status"] == 200
        kinds = {e["kind"] for e in bundle["events"]}
        assert "service.request" in kinds
        assert all(e["request_id"] == rid for e in bundle["events"])
        client.close_session(sid)

    def test_unknown_request_id_is_404(self, client):
        with pytest.raises(ServiceClientError) as excinfo:
            client.request_bundle("00000000deadbeef")
        assert excinfo.value.status == 404
        assert excinfo.value.error_type == "UnknownRequestError"


class TestOversizedBody:
    def test_claimed_oversized_body_is_413(self, server):
        host, port = server.address
        conn = http.client.HTTPConnection(host, port, timeout=10.0)
        try:
            conn.request(
                "POST", "/v1/sessions", body=b"{}",
                headers={"Content-Length": str(MAX_BODY_BYTES + 1)},
            )
            response = conn.getresponse()
            raw = response.read()
        finally:
            conn.close()
        assert response.status == 413
        payload = json.loads(raw.decode("utf-8"))
        assert payload["error"]["type"] == "BodyTooLargeError"
        assert str(MAX_BODY_BYTES) in payload["error"]["message"]

    def test_normal_bodies_still_pass_after_a_rejection(self, client):
        sid = client.create_session()
        client.close_session(sid)


class _ClosedPipe:
    """A write side whose client already hung up."""

    def write(self, data):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):  # pragma: no cover - never reached after the raise
        pass


class TestDisconnectGuard:
    def _bare_handler(self):
        handler = ServiceHandler.__new__(ServiceHandler)
        handler.request_version = "HTTP/1.1"
        handler.requestline = "GET /obs HTTP/1.1"
        handler.path = "/obs"
        handler.close_connection = False
        handler._request_id = "gone-client"
        handler.wfile = _ClosedPipe()
        return handler

    def test_mid_write_disconnect_is_counted_not_raised(self, recording):
        handler = self._bare_handler()
        before = METRICS.counter("service.client_disconnects")
        handler._send(200, {"ok": True})  # must not raise
        assert METRICS.counter("service.client_disconnects") == before + 1
        assert handler.close_connection is True
        event = next(
            e for e in RECORDER.snapshot()
            if e["kind"] == "service.disconnect"
        )
        assert event["path"] == "/obs"
        assert event["status"] == 200

    def test_live_server_survives_an_early_close(self, server, client):
        """A client that closes before reading must not kill the server
        (nor print a ThreadingHTTPServer traceback)."""
        host, port = server.address
        raw = http.client.HTTPConnection(host, port, timeout=10.0)
        raw.request("GET", "/obs")
        raw.close()  # hang up without reading the (large) response
        # the server still answers the next request on a fresh connection
        assert client.health()["status"] == "ok"
