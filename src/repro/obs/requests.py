"""Request-scoped correlation: one id stitches client → handler → worker.

The service mints (or honors) an ``X-Prague-Request`` id per HTTP request
and enters :func:`request_scope` for the duration of the dispatch.  While
the scope is active, every flight-recorder event and every *root* tracer
span created on that thread is stamped with the id — pool chunks included,
since the dispatching thread records what its chunks observed
(:func:`repro.core.verification._run_batch`).  ``GET /v1/requests/<id>``
then reassembles the whole story for a postmortem.

The scope is a plain ``threading.local`` — ``ThreadingHTTPServer`` gives
every connection its own thread, so no further plumbing is needed.

:class:`RequestLog` is the always-on completed-request ring behind the
``/obs`` slowest/recent surfacing: bounded (:data:`RequestLog.SIZE`, 256),
keyed by request id, cheap enough to run untraced (one lock + dict insert
per request, bounded by ``bench_obs_overhead``).
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

_SCOPE = threading.local()

#: Latched to True the first time any thread in this process enters a scope
#: (and never reset).  The recorder and tracer read this *module attribute
#: directly* before paying the thread-local lookup: a ``threading.local``
#: getattr costs several hundred ns, and charging it on every recorder call
#: in processes that never serve HTTP (benches, batch replays, the default
#: posture measured by ``bench_obs_overhead``) would double the per-record
#: price for ids that are always ``None``.
_EVER_SCOPED = False


def current_request_id() -> Optional[str]:
    """The request id of the active scope on this thread (``None`` outside)."""
    return getattr(_SCOPE, "request_id", None)


@contextmanager
def request_scope(request_id: Optional[str]) -> Iterator[None]:
    """Make ``request_id`` the current id for the dynamic extent of the body."""
    global _EVER_SCOPED
    _EVER_SCOPED = True
    previous = current_request_id()
    _SCOPE.request_id = request_id
    try:
        yield
    finally:
        _SCOPE.request_id = previous


class RequestLog:
    """Thread-safe bounded ring of completed HTTP requests, keyed by id.

    Unlike the flight recorder this is *always on*: the slowest-requests
    view is exactly the thing an operator reaches for after the fact, when
    nobody thought to enable tracing beforehand.  A replayed (client-
    supplied) id overwrites its previous entry — last response wins, which
    is what a retry storm should look like in the log.
    """

    #: Default capacity in completed requests.
    SIZE = 256

    def __init__(self, size: int = SIZE) -> None:
        self._capacity = max(int(size), 1)
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        self._seq = 0

    def record(
        self,
        request_id: str,
        method: str,
        path: str,
        status: int,
        duration_s: float,
        session_id: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Append one completed request; returns the stored entry."""
        entry: Dict[str, Any] = {
            "request_id": str(request_id),
            "method": str(method),
            "path": str(path),
            "status": int(status),
            "duration_ms": round(1000.0 * float(duration_s), 3),
            "session": session_id,
            "t_s": time.perf_counter(),
        }
        with self._lock:
            self._seq += 1
            entry["seq"] = self._seq
            self._entries.pop(entry["request_id"], None)
            self._entries[entry["request_id"]] = entry
            while len(self._entries) > self._capacity:
                self._entries.popitem(last=False)
        return dict(entry)

    def get(self, request_id: str) -> Optional[Dict[str, Any]]:
        with self._lock:
            entry = self._entries.get(request_id)
            return dict(entry) if entry is not None else None

    def recent(self, n: int = 8) -> List[Dict[str, Any]]:
        """The last ``n`` completed requests, oldest first."""
        with self._lock:
            tail = list(self._entries.values())[-max(int(n), 0):]
        return [dict(entry) for entry in tail]

    def slowest(self, n: int = 8) -> List[Dict[str, Any]]:
        """The ``n`` slowest requests still in the ring, slowest first."""
        with self._lock:
            entries = [dict(entry) for entry in self._entries.values()]
        entries.sort(key=lambda e: (-e["duration_ms"], -e["seq"]))
        return entries[:max(int(n), 0)]

    def for_session(self, session_id: str, limit: int = 16) -> List[Dict[str, Any]]:
        """The last ``limit`` requests that touched ``session_id``, oldest first."""
        with self._lock:
            matching = [
                dict(entry) for entry in self._entries.values()
                if entry["session"] == session_id
            ]
        return matching[-max(int(limit), 0):]

    def reset(self) -> None:
        with self._lock:
            self._entries.clear()
            self._seq = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


#: Process-wide completed-request ring (the service's access log).
REQUEST_LOG = RequestLog()
