"""The HTTP layer: routes, protocol envelopes, error mapping, concurrency."""

import socket
import threading

import pytest

from repro.core import PragueEngine
from repro.service import ServiceClient, ServiceClientError
from repro.service.http import MAX_BODY_BYTES


class TestOpsEndpoints:
    def test_healthz(self, client):
        health = client.health()
        assert health["status"] == "ok"
        assert health["schema"] == 2
        assert health["kind"] == "service-response"
        assert health["max_sessions"] == 4
        assert health["db_graphs"] > 0

    def test_obs_surfaces_the_full_snapshot(self, client):
        data = client.obs()
        assert set(data["snapshot"]) >= {"counters", "gauges", "histograms"}
        assert data["service"]["active"] == len(client.sessions())


class TestSessionRoutes:
    def test_formulation_round_trip_matches_direct_engine(
        self, client, plane
    ):
        sid = client.create_session(sigma=2)
        client.add_node(sid, "a", "A")
        client.add_node(sid, "b", "B")
        step = client.add_edge(sid, "a", "b")
        assert step["step"]["action"] == "New"
        assert step["num_edges"] == 1
        run = client.run(sid)["run"]

        engine = PragueEngine(plane.db, plane.indexes, sigma=2)
        engine.add_node("a", "A")
        engine.add_node("b", "B")
        engine.add_edge("a", "b")
        reference = engine.run()
        assert run["exact"] == sorted(reference.results.exact_ids)
        assert run["verification_free"] == reference.verification_free
        client.close_session(sid)

    def test_undo_redo_over_http(self, client):
        sid = client.create_session()
        client.add_node(sid, "a", "A")
        client.add_node(sid, "b", "B")
        client.add_edge(sid, "a", "b")
        assert client.undo(sid)["num_edges"] == 0
        assert client.redo(sid)["num_edges"] == 1
        client.close_session(sid)

    def test_list_and_close(self, client):
        sid = client.create_session()
        assert sid in {s["session"] for s in client.sessions()}
        client.close_session(sid)
        assert sid not in {s["session"] for s in client.sessions()}


class TestErrorMapping:
    def test_unknown_session_is_404(self, client):
        with pytest.raises(ServiceClientError) as excinfo:
            client.run("doesnotexist")
        assert excinfo.value.status == 404
        assert excinfo.value.error_type == "UnknownSessionError"

    def test_bad_gesture_is_400(self, client):
        sid = client.create_session()
        with pytest.raises(ServiceClientError) as excinfo:
            client.act(sid, "drop_table")
        assert excinfo.value.status == 400
        client.close_session(sid)

    def test_admission_overflow_is_503(self, client):
        sids = [client.create_session() for _ in range(4)]
        with pytest.raises(ServiceClientError) as excinfo:
            client.create_session()
        assert excinfo.value.status == 503
        assert excinfo.value.error_type == "AdmissionError"
        for sid in sids:
            client.close_session(sid)

    def test_unknown_route_is_404(self, client):
        with pytest.raises(ServiceClientError) as excinfo:
            client.request("GET", "/nope")
        assert excinfo.value.status == 404

    @pytest.mark.parametrize("length, status", [
        pytest.param("-1", 400, id="-1"),
        pytest.param("abc", 400, id="abc"),
        pytest.param(str(MAX_BODY_BYTES + 1), 413, id="oversized"),
    ])
    def test_malformed_content_length_is_400_and_closes(
        self, server, length, status
    ):
        """A body of unknown length cannot be read (``read(-1)`` waits for
        an EOF a keep-alive client never sends): answer 400 at once and
        hang up, since the request's framing is lost.  An oversized body is
        never read either, so its 413 hangs up too.  Both responses say
        ``Connection: close``, so a keep-alive client knows the socket is
        done before it sends the next request."""
        with socket.create_connection(server.address, timeout=2.0) as sock:
            sock.sendall(
                b"POST /v1/sessions HTTP/1.1\r\nHost: test\r\n"
                b"Content-Length: " + length.encode() + b"\r\n\r\n"
            )
            reply = b""
            while True:
                chunk = sock.recv(65536)  # a timeout here fails the test
                if not chunk:
                    break
                reply += chunk
        assert reply.startswith(f"HTTP/1.1 {status} ".encode())
        headers = reply.split(b"\r\n\r\n", 1)[0].split(b"\r\n")[1:]
        assert b"Connection: close" in headers


class TestConcurrentClients:
    def test_parallel_users_formulate_independently(self, server):
        host, port = server.address
        results = {}
        errors = []

        def user(tag, labels):
            try:
                with ServiceClient(host, port, timeout=10.0) as c:
                    sid = c.create_session(sigma=2)
                    c.add_node(sid, "x", labels[0])
                    c.add_node(sid, "y", labels[1])
                    c.add_edge(sid, "x", "y")
                    results[tag] = c.run(sid)["run"]["exact"]
                    c.close_session(sid)
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append((tag, exc))

        threads = [
            threading.Thread(target=user, args=(tag, labels))
            for tag, labels in (("ab", "AB"), ("bc", "BC"), ("ca", "CA"))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        # Each user got the answer their own query implies (and at least
        # one pair differs, or the check would be vacuous).
        assert len(results) == 3
        assert any(
            results[a] != results[b]
            for a, b in (("ab", "bc"), ("bc", "ca"), ("ab", "ca"))
        )
