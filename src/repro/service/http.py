"""The stdlib HTTP front of the session service.

``ThreadingHTTPServer`` — one thread per in-flight request, daemonic so a
``server.shutdown()`` (or process exit) never hangs on a straggler.  Routes:

=========================================  ==================================
``GET  /healthz``                          liveness + session-store stats
``GET  /obs``                              snapshot + SLOs + request tails
``POST /v1/sessions``                      create (``{"sigma": int?}``)
``GET  /v1/sessions``                      list live session summaries
``GET  /v1/sessions/<sid>``                one session's state
``DELETE /v1/sessions/<sid>``              close a session
``POST /v1/sessions/<sid>/actions``        ``{"op": ..., "args": [...]}``
``GET  /v1/sessions/<sid>/obs``            SRT ledger + latency percentiles
``GET  /v1/requests/<rid>``                one request's correlated bundle
=========================================  ==================================

Every body is a :mod:`repro.service.protocol` envelope.  Every request is
**correlated**: the handler mints a request id (honoring an inbound
``X-Prague-Request`` header), echoes it on the response, and dispatches the
route inside :func:`repro.obs.requests.request_scope` — so every recorder
event and every root span produced while serving the request, the
``pool.chunk`` events of its verification included, carries the same id.
Completion is logged twice: a structured ``service.request`` access-log
event in the flight recorder (and therefore the JSONL export), and an
entry in the always-on
:data:`~repro.obs.requests.REQUEST_LOG` ring behind ``/obs``'s
slowest-requests view and ``GET /v1/requests/<rid>`` postmortem lookups.
"""

from __future__ import annotations

import json
import os
import re
import signal
import threading
import uuid
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, Optional, Tuple

from repro.config import service_port
from repro.obs.metrics import METRICS, full_snapshot
from repro.obs.recorder import RECORDER
from repro.obs.requests import REQUEST_LOG, request_scope
from repro.obs.profiler import PROFILER, profile_summary
from repro.obs.slo import SLO, record_request
from repro.obs.tracer import TRACER, timed
from repro.service.protocol import (
    REQUEST_ID_HEADER,
    BodyTooLargeError,
    UnknownRequestError,
    error_response,
    response,
    result_payload,
    session_obs_payload,
    session_payload,
    status_for,
)
from repro.service.sessions import SessionManager

#: Request bodies beyond this are rejected with 413 — gestures are tiny.
MAX_BODY_BYTES = 1 << 20

#: How many slowest/recent completed requests ``/obs`` surfaces.
OBS_TOP_REQUESTS = 8

#: How many recorder events ``/obs`` tails for ``repro top --server``.
OBS_EVENT_TAIL = 16

#: A well-formed ``Content-Length``: a non-negative decimal integer.
_CONTENT_LENGTH_OK = re.compile(r"^[0-9]+$")

#: Acceptable inbound correlation ids: short, shell- and log-safe.  Anything
#: else (absent, oversized, control characters) gets a freshly minted id.
_REQUEST_ID_OK = re.compile(r"^[A-Za-z0-9._-]{1,64}$")


def _mint_request_id(header_value: Optional[str]) -> str:
    if header_value:
        candidate = header_value.strip()
        if _REQUEST_ID_OK.match(candidate):
            return candidate
    return uuid.uuid4().hex[:16]


def _request_bundle(request_id: str) -> Dict[str, Any]:
    """Everything correlated with one request id, for postmortems.

    The access-log entry from the request ring, the recorder events stamped
    with the id (including ``pool.chunk`` events with their ``src``
    label), and the root span trees whose ``request_id`` attribute
    matches.  Raises :class:`UnknownRequestError` when nothing at all
    correlates — distinguishing "bad id" from "telemetry was off" is
    impossible after the fact, so the message says both.
    """
    entry = REQUEST_LOG.get(request_id)
    events = [
        event for event in RECORDER.snapshot()
        if event.get("request_id") == request_id
    ]
    spans = [
        root.to_dict() for root in list(TRACER.roots)
        if root.attrs.get("request_id") == request_id
    ]
    profile = PROFILER.slice_for_request(request_id)
    if entry is None and not events and not spans and not profile:
        raise UnknownRequestError(
            f"no telemetry correlates with request {request_id!r} "
            "(unknown id, aged out of the rings, or recorder/tracing off)"
        )
    return {
        "request_id": request_id,
        "request": entry,
        "events": events,
        "spans": spans,
        "profile": profile,
    }


class ServiceHandler(BaseHTTPRequestHandler):
    """Route one HTTP request into the session manager."""

    server_version = "prague-repro"
    protocol_version = "HTTP/1.1"  # keep-alive: one TCP setup per client

    # -- plumbing ------------------------------------------------------
    @property
    def manager(self) -> SessionManager:
        return self.server.manager  # type: ignore[attr-defined]

    def log_message(self, format: str, *args: Any) -> None:
        """Silenced: the structured ``service.request`` access-log event
        (request id, status, duration) replaces per-request stderr chatter."""

    def handle_one_request(self) -> None:
        """One keep-alive round, with mid-stream hangups counted, not raised.

        ``_send`` guards its own writes, but the base class flushes ``wfile``
        and reads the next request line *outside* any handler code — a
        client that resets the connection there would otherwise bubble a
        ``BrokenPipeError``/``ConnectionResetError`` up to
        ``ThreadingHTTPServer.handle_error`` and print a traceback per
        disconnect.
        """
        try:
            super().handle_one_request()
        except (BrokenPipeError, ConnectionResetError):
            METRICS.inc("service.client_disconnects")
            RECORDER.record(
                "service.disconnect",
                path=getattr(self, "path", "?"),
                status=getattr(self, "_status", 0),
            )
            self.close_connection = True

    def _send(self, status: int, payload: Dict[str, Any]) -> None:
        self._status = status
        body = json.dumps(payload, default=str).encode("utf-8")
        try:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.send_header(REQUEST_ID_HEADER, self._request_id)
            if self.close_connection:
                # The handler hangs up after this response (a request whose
                # framing is lost): say so, or a keep-alive client learns
                # it only when its next request on this socket fails.
                self.send_header("Connection", "close")
            self.end_headers()
            self.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError):
            # The client hung up mid-write.  Counted directly on the
            # registry (not the trace-gated count()): disconnect storms
            # matter precisely when nobody thought to enable tracing.
            METRICS.inc("service.client_disconnects")
            RECORDER.record(
                "service.disconnect", path=self.path, status=status
            )
            self.close_connection = True

    def _read_body(self) -> Dict[str, Any]:
        raw = (self.headers.get("Content-Length") or "0").strip()
        if not _CONTENT_LENGTH_OK.match(raw):
            # ``rfile.read(-1)`` would wait for an EOF a keep-alive client
            # never sends, and the request's framing is unknown anyway: the
            # body must not be read as the next request, so hang up.
            self.close_connection = True
            raise ValueError(f"invalid Content-Length {raw!r}")
        length = int(raw)
        if length > MAX_BODY_BYTES:
            raise BodyTooLargeError(
                f"request body too large ({length} bytes, "
                f"limit {MAX_BODY_BYTES})"
            )
        if length == 0:
            return {}
        data = json.loads(self.rfile.read(length).decode("utf-8"))
        if not isinstance(data, dict):
            raise ValueError("request body must be a JSON object")
        return data

    def _dispatch(self, method: str) -> None:
        self._request_id = _mint_request_id(
            self.headers.get(REQUEST_ID_HEADER)
        )
        self._status = 0
        self._session_id: Optional[str] = None
        with request_scope(self._request_id):
            with timed("service.request", method=method,
                       path=self.path) as region:
                try:
                    handled = self._route(
                        method, self.path.rstrip("/") or "/"
                    )
                    if not handled:
                        self._send(404, error_response(
                            ValueError(f"no route {method} {self.path}")
                        ))
                except Exception as exc:  # one mapping for every route
                    if isinstance(exc, BodyTooLargeError):
                        # The oversized body was never read; the
                        # connection's framing is shot, so don't reuse it.
                        self.close_connection = True
                    self._send(status_for(exc), error_response(exc))
            region.set(status=self._status)
            record_request(self._status)
            REQUEST_LOG.record(
                request_id=self._request_id,
                method=method,
                path=self.path,
                status=self._status,
                duration_s=region.seconds,
                session_id=self._session_id,
            )
            RECORDER.record(
                "service.request",
                method=method,
                path=self.path,
                status=self._status,
                duration_ms=round(1000.0 * region.seconds, 3),
                session_id=self._session_id,
            )

    # -- routes --------------------------------------------------------
    def _route(self, method: str, path: str) -> bool:
        if method == "GET" and path == "/healthz":
            self._send(200, response(
                {"status": "ok", **self.manager.stats()}
            ))
            return True
        if method == "GET" and path == "/obs":
            self._send(200, response({
                "pid": os.getpid(),
                "snapshot": full_snapshot(),
                "service": self.manager.stats(),
                "slo": SLO.snapshot(),
                "requests": {
                    "tracked": len(REQUEST_LOG),
                    "slowest": REQUEST_LOG.slowest(OBS_TOP_REQUESTS),
                    "recent": REQUEST_LOG.recent(OBS_TOP_REQUESTS),
                },
                "events": RECORDER.snapshot()[-OBS_EVENT_TAIL:],
                "profile": profile_summary(PROFILER.collect())
                if PROFILER.enabled and PROFILER.samples else None,
            }))
            return True
        if path == "/v1/sessions":
            if method == "POST":
                body = self._read_body()
                session = self.manager.create(sigma=body.get("sigma"))
                self._session_id = session.sid
                self._send(201, response(session_payload(session)))
                return True
            if method == "GET":
                self._send(200, response({"sessions": [
                    session_payload(s)
                    for s in self.manager.live_sessions()
                ]}))
                return True
            return False
        parts = path.split("/")
        # /v1/requests/<rid> — one request's correlated telemetry bundle.
        if len(parts) == 4 and parts[1] == "v1" and parts[2] == "requests" \
                and method == "GET":
            self._send(200, response(_request_bundle(parts[3])))
            return True
        # /v1/sessions/<sid>, .../actions and .../obs
        if len(parts) >= 4 and parts[1] == "v1" and parts[2] == "sessions":
            sid = parts[3]
            self._session_id = sid
            if len(parts) == 4:
                if method == "GET":
                    self._send(200, response(
                        session_payload(self.manager.get(sid))
                    ))
                    return True
                if method == "DELETE":
                    self.manager.close(sid)
                    self._send(200, response({"closed": sid}))
                    return True
                return False
            if len(parts) == 5 and parts[4] == "actions" and method == "POST":
                body = self._read_body()
                op = body.get("op")
                if not isinstance(op, str):
                    raise ValueError('body needs {"op": "<gesture>"}')
                session, result = self.manager.act(
                    sid, op, body.get("args", ())
                )
                payload = session_payload(session)
                shaped = result_payload(result)
                if shaped is not None:
                    payload.update(shaped)
                self._send(200, response(payload))
                return True
            if len(parts) == 5 and parts[4] == "obs" and method == "GET":
                session = self.manager.get(sid)
                with session.lock:
                    payload = session_obs_payload(
                        session, REQUEST_LOG.for_session(sid)
                    )
                self._send(200, response(payload))
                return True
        return False

    # -- verbs ---------------------------------------------------------
    def do_GET(self) -> None:
        self._dispatch("GET")

    def do_POST(self) -> None:
        self._dispatch("POST")

    def do_DELETE(self) -> None:
        self._dispatch("DELETE")


class PragueService(ThreadingHTTPServer):
    """The session server: a ``ThreadingHTTPServer`` owning one manager."""

    daemon_threads = True
    allow_reuse_address = True
    # Dozens of clients connect in the same instant when a class of users
    # (or the load benchmark's barrier) starts together; the socket-module
    # default backlog of 5 resets the overflow instead of queueing it.
    request_queue_size = 128

    def __init__(
        self,
        manager: SessionManager,
        host: str = "127.0.0.1",
        port: Optional[int] = None,
    ) -> None:
        self.manager = manager
        super().__init__(
            (host, service_port() if port is None else port), ServiceHandler
        )

    @property
    def address(self) -> Tuple[str, int]:
        return self.server_address[0], self.server_address[1]

    def serve_background(self) -> threading.Thread:
        """Run ``serve_forever`` on a daemon thread (tests, benchmarks)."""
        thread = threading.Thread(
            target=self.serve_forever, name="prague-service", daemon=True
        )
        thread.start()
        return thread


def serve_forever(
    server: PragueService,
    install_signals: bool = True,
    on_ready: Optional[Callable[[], None]] = None,
) -> None:
    """Serve until SIGTERM/SIGINT, then shut down cleanly.

    ``server.shutdown()`` *blocks* until the accept loop exits, so it must
    not run inside a signal handler on the accepting thread (that would
    deadlock).  Instead the accept loop runs on a daemon thread and the
    main thread waits on a stop event the handlers merely set.

    ``on_ready`` runs once the handlers are installed (the CLI prints its
    readiness line there), so a SIGTERM sent on readiness stops the server
    cleanly instead of killing it.
    """
    if not install_signals:
        if on_ready is not None:
            on_ready()
        try:
            server.serve_forever(poll_interval=0.1)
        finally:
            server.server_close()
        return
    stop = threading.Event()

    def _stop(signum, frame):  # pragma: no cover - signal path
        stop.set()

    signal.signal(signal.SIGTERM, _stop)
    signal.signal(signal.SIGINT, _stop)
    thread = server.serve_background()
    if on_ready is not None:
        on_ready()
    try:
        while not stop.wait(0.2):
            pass
    finally:
        server.shutdown()
        thread.join(timeout=5.0)
        server.server_close()
