"""The remote ops console: ``repro top --server`` and remote postmortems.

Drives the real CLI entry points against the live in-process server the
service suite already runs — the same rendering as the directory-tail mode,
fed from ``/obs`` over HTTP, plus the ``--server --request`` postmortem
fetch.  The always-on request ring is what makes the postmortem work with
tracing off: an operator can resolve an id *after* the fact.
"""

import json
import threading
import time

import pytest

from repro.cli import _parse_server, main
from repro.obs.profiler import PROFILER


@pytest.fixture
def older_server():
    """A fake service one PR behind: ``/obs`` with no ``slo``, ``requests``
    or ``profile`` sections, and no ``/v1/requests/<id>`` route at all."""
    from http.server import BaseHTTPRequestHandler, HTTPServer

    payload = {
        "schema": 2, "kind": "service-response", "protocol": 1,
        "pid": 4242,
        "snapshot": {
            "counters": {"canonical.cache.hits": 1},
            "gauges": {},
            "histograms": {"action.new": {
                "count": 1, "sum_s": 0.01, "min_s": 0.01, "max_s": 0.01,
                "p50_s": 0.01, "p90_s": 0.01, "p99_s": 0.01,
            }},
        },
        "events": [],
    }

    class Handler(BaseHTTPRequestHandler):
        def do_GET(self):
            if self.path == "/obs":
                body = json.dumps(payload).encode()
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)
            else:
                self.send_error(404)

        def log_message(self, *args):
            pass

    httpd = HTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{httpd.server_address[1]}"
    httpd.shutdown()
    thread.join(timeout=5.0)
    httpd.server_close()


class TestParseServer:
    def test_full_url(self):
        assert _parse_server("http://10.0.0.5:9999") == ("10.0.0.5", 9999)

    def test_host_port_without_scheme(self):
        assert _parse_server("localhost:8123") == ("localhost", 8123)

    def test_bare_host_uses_the_configured_port(self, monkeypatch):
        monkeypatch.delenv("REPRO_SERVICE_PORT", raising=False)
        assert _parse_server("http://example.test") == ("example.test", 8765)


class TestTopServerMode:
    def test_once_renders_a_live_frame(self, server, client, capsys):
        client.health()  # at least one request in the ring
        host, port = server.address
        code = main(["top", "--server", f"http://{host}:{port}", "--once"])
        out = capsys.readouterr().out
        assert code == 0
        assert "repro top — pid" in out
        assert "SLOs (rolling window):" in out
        assert "request_errors" in out
        assert "slowest recent requests" in out

    def test_unreachable_server_renders_the_waiting_frame(self, capsys):
        code = main([
            "top", "--server", "http://127.0.0.1:1", "--once",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "waiting for http://127.0.0.1:1/obs" in out
        assert "is the server up?" in out


class TestConsoleDegradesAgainstOlderServers:
    """Satellite regression: the console CLIs must not KeyError against a
    server that predates the slo/requests/profile sections."""

    def test_top_renders_na_labels_not_a_crash(self, older_server, capsys):
        code = main(["top", "--server", older_server, "--once"])
        out = capsys.readouterr().out
        assert code == 0
        assert "repro top — pid 4242" in out
        assert "action.new" in out
        assert "SLOs (rolling window): n/a" in out
        assert "slowest recent requests: n/a" in out

    def test_postmortem_reports_the_missing_route_cleanly(
        self, older_server, capsys
    ):
        code = main([
            "postmortem", "--server", older_server, "--request", "r-1",
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "could not fetch request" in err
        assert "older server" in err

    def test_postmortem_reports_a_down_server_cleanly(self, capsys):
        code = main([
            "postmortem", "--server", "http://127.0.0.1:1",
            "--request", "r-1",
        ])
        assert code == 1
        assert "could not fetch request" in capsys.readouterr().err


class TestProfileSurfaces:
    """The live profiling surfaces: ``/obs`` summary and the per-request
    slice in ``/v1/requests/<id>`` (the server fixture is in-process, so
    the test can drive the process-wide sampler directly)."""

    @pytest.fixture(autouse=True)
    def _sampler_off_after(self):
        saved_hz = PROFILER.hz
        yield
        PROFILER.set_hz(saved_hz)
        PROFILER.reset()

    def test_obs_profile_is_null_while_sampler_is_off(self, client):
        PROFILER.set_hz(0)
        PROFILER.reset()
        assert client.obs()["profile"] is None

    def test_obs_and_request_bundle_carry_profile_slices(
        self, server, client, capsys
    ):
        PROFILER.reset()
        PROFILER.set_hz(1000.0)
        sid = client.create_session()
        client.act(sid, "add_node", ("a", "A"))
        # add_edge is an instrumented action site ("new") — samples taken
        # inside it attribute to the request id; growing the query makes
        # each SPIG build a little heavier, so the sampler lands quickly
        deadline = time.monotonic() + 30
        i = 0
        while time.monotonic() < deadline:
            i += 1
            client.act(sid, "add_node", (f"n{i}", "B"))
            client.request(
                "POST", f"/v1/sessions/{sid}/actions",
                {"op": "add_edge", "args": ["a", f"n{i}", "x"]},
                request_id="profiled-req",
            )
            if PROFILER.slice_for_request("profiled-req"):
                break

        data = client.obs()
        profile = data["profile"]
        assert profile and profile["samples"] > 0
        assert profile["top_frames"]
        assert any(
            s["request_id"] == "profiled-req" for s in profile["slices"]
        )

        bundle = client.request_bundle("profiled-req")
        assert bundle["profile"]
        assert sum(bundle["profile"].values()) > 0
        PROFILER.set_hz(0)

        host, port = server.address
        code = main([
            "postmortem", "--server", f"http://{host}:{port}",
            "--request", "profiled-req",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "profile slice" in out
        client.close_session(sid)


class TestRemotePostmortem:
    def test_fetches_and_renders_a_request_bundle(
        self, server, client, capsys
    ):
        sid = client.create_session()
        client.request(
            "POST", f"/v1/sessions/{sid}/actions",
            {"op": "add_node", "args": ["a", "A"]},
            request_id="console-req",
        )
        host, port = server.address
        code = main([
            "postmortem", "--server", f"http://{host}:{port}",
            "--request", "console-req",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "request console-req" in out
        assert f"/v1/sessions/{sid}/actions -> 200" in out
        client.close_session(sid)

    def test_server_without_request_id_is_usage_error(self, capsys):
        code = main(["postmortem", "--server", "http://127.0.0.1:1"])
        assert code == 2
        assert "--request" in capsys.readouterr().err

    def test_no_bundle_and_no_server_is_usage_error(self, capsys):
        code = main(["postmortem"])
        assert code == 2
        assert "bundle" in capsys.readouterr().err
