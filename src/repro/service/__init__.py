"""The multi-session service layer: PRAGUE as a server.

The engine was a library plus CLIs; "many concurrent users" needs one
process holding many formulation sessions.  The split (ROADMAP item 1):

* :class:`~repro.core.plane.SharedPlane` — the immutable half (db, A2F/A2I
  indexes, mined fragments), built once and shared read-only by every
  session;
* :class:`~repro.service.sessions.SessionManager` — the mutable half: one
  :class:`~repro.core.undo.UndoableEngine` per session id behind TTL
  eviction, a max-sessions admission gate and per-session action locks;
* :mod:`~repro.service.http` — a stdlib ``ThreadingHTTPServer`` speaking
  the versioned JSON protocol of :mod:`~repro.service.protocol`
  (``python -m repro serve``);
* :mod:`~repro.service.client` — the matching thin ``http.client`` client
  (what the load benchmark and the CI smoke script drive).
"""

from repro.service.client import ServiceClient, ServiceClientError
from repro.service.http import PragueService, serve_forever
from repro.service.protocol import (
    PROTOCOL_VERSION,
    REQUEST_ID_HEADER,
    BodyTooLargeError,
    UnknownRequestError,
)
from repro.service.sessions import (
    AdmissionError,
    Session,
    SessionManager,
    UnknownSessionError,
)

__all__ = [
    "AdmissionError",
    "BodyTooLargeError",
    "PROTOCOL_VERSION",
    "PragueService",
    "REQUEST_ID_HEADER",
    "ServiceClient",
    "ServiceClientError",
    "Session",
    "SessionManager",
    "UnknownRequestError",
    "UnknownSessionError",
    "serve_forever",
]
