"""The session store: per-user engines over one shared plane.

A session is one user's formulation in flight — an
:class:`~repro.core.undo.UndoableEngine` (visual query, SPIG set,
candidates, undo stack) plus bookkeeping.  The manager owns their whole
lifecycle:

* **admission** — at most ``max_sessions`` live sessions (default
  :data:`MAX_SESSIONS`, ``repro serve --max-sessions``); a create beyond the
  cap raises :class:`AdmissionError` (the HTTP layer maps it to 503) instead
  of queueing, because every admitted session pins candidate state in
  memory;
* **TTL eviction** — sessions idle longer than ``ttl`` seconds (default
  :data:`SESSION_TTL_S`, ``repro serve --ttl``) are dropped lazily on the
  next store access; the clock rearms on every action;
* **serialization** — actions against one session run under that session's
  lock (two racing requests for the same sid execute one after the other),
  while different sessions proceed in parallel on server threads.
"""

from __future__ import annotations

import threading
import time
import uuid
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.config import DEFAULT_SUBGRAPH_DISTANCE
from repro.core.plane import SharedPlane
from repro.core.prague import RunReport
from repro.core.undo import UndoableEngine
from repro.exceptions import ReproError
from repro.obs.metrics import count, gauge
from repro.obs.recorder import RECORDER
from repro.obs.slo import record_action_latency, record_admission
from repro.obs.tracer import timed
from repro.oracle.trace import ACTION_OPS, TraceAction, _tuplify, apply_action

#: Per-session action latencies retained for ``/v1/sessions/<id>/obs``
#: percentiles — enough for a long interactive formulation, bounded so a
#: hot session cannot grow without limit.
SESSION_LATENCY_WINDOW = 512

#: Default admission cap: concurrent sessions one server holds.
MAX_SESSIONS = 64

#: Default idle seconds before a session is evicted (``0`` disables).
SESSION_TTL_S = 1800.0

#: Ops a session accepts: the replayable GUI gestures plus the undo pair.
SERVICE_OPS: Tuple[str, ...] = ACTION_OPS + ("undo", "redo")


class AdmissionError(ReproError):
    """The server is at its session cap; retry after closing or later."""


class UnknownSessionError(ReproError):
    """No live session has this id (never created, closed, or evicted)."""


@dataclass
class Session:
    """One live formulation session."""

    sid: str
    engine: UndoableEngine
    created_at: float
    last_used: float
    action_count: int = 0
    lock: threading.Lock = field(default_factory=threading.Lock)
    #: Wall-clock seconds of the last ``run`` gesture's processing — the
    #: residual the per-session SRT ledger folds at *Run*.
    last_run_seconds: float = 0.0
    #: Recent per-action wall-clock latencies (newest last, bounded).
    latencies: Deque[float] = field(
        default_factory=lambda: deque(maxlen=SESSION_LATENCY_WINDOW)
    )


class SessionManager:
    """All live sessions of one server process, behind one store lock.

    ``max_sessions`` (floor 1) and ``ttl`` (floor 0) are fixed at
    construction; ``None`` selects :data:`MAX_SESSIONS` /
    :data:`SESSION_TTL_S`.
    """

    def __init__(
        self,
        plane: SharedPlane,
        max_sessions: Optional[int] = None,
        ttl: Optional[float] = None,
        sigma: int = DEFAULT_SUBGRAPH_DISTANCE,
        undo_limit: int = 64,
    ) -> None:
        self.plane = plane
        self.sigma = sigma
        self.undo_limit = undo_limit
        self.max_sessions = max(
            MAX_SESSIONS if max_sessions is None else int(max_sessions), 1
        )
        self.ttl = max(SESSION_TTL_S if ttl is None else float(ttl), 0.0)
        self._lock = threading.Lock()
        self._sessions: Dict[str, Session] = {}
        self._created = 0
        self._evicted = 0
        self._rejected = 0

    # -- lifecycle -----------------------------------------------------
    def create(self, sigma: Optional[int] = None) -> Session:
        """Admit one new session (raises :class:`AdmissionError` at cap)."""
        with self._lock:
            self._evict_expired_locked()
            if len(self._sessions) >= self.max_sessions:
                self._rejected += 1
                count("service.sessions.rejected")
                record_admission(False)
                RECORDER.record(
                    "service.reject", live=len(self._sessions),
                    cap=self.max_sessions,
                )
                raise AdmissionError(
                    f"session cap reached ({self.max_sessions} live); "
                    "close a session or retry later"
                )
            sid = uuid.uuid4().hex[:16]
            now = time.monotonic()
            engine = UndoableEngine(
                self.plane.engine(
                    sigma=self.sigma if sigma is None else sigma
                ),
                limit=self.undo_limit,
            )
            session = Session(
                sid=sid, engine=engine, created_at=now, last_used=now
            )
            self._sessions[sid] = session
            self._created += 1
            count("service.sessions.created")
            record_admission(True)
            gauge("service.sessions.active", len(self._sessions))
            return session

    def get(self, sid: str) -> Session:
        with self._lock:
            self._evict_expired_locked()
            session = self._sessions.get(sid)
            if session is None:
                raise UnknownSessionError(
                    f"unknown session {sid!r} (closed, evicted, or never "
                    "created)"
                )
            return session

    def close(self, sid: str) -> None:
        with self._lock:
            if self._sessions.pop(sid, None) is None:
                raise UnknownSessionError(f"unknown session {sid!r}")
            count("service.sessions.closed")
            gauge("service.sessions.active", len(self._sessions))

    def evict_expired(self) -> int:
        """Drop every idle-expired session now; returns how many went."""
        with self._lock:
            return self._evict_expired_locked()

    def _evict_expired_locked(self) -> int:
        if not self.ttl:
            return 0
        deadline = time.monotonic() - self.ttl
        expired = [
            sid for sid, session in self._sessions.items()
            if session.last_used < deadline and not session.lock.locked()
        ]
        for sid in expired:
            del self._sessions[sid]
            self._evicted += 1
            count("service.sessions.evicted")
            RECORDER.record("service.evict", sid=sid)
        if expired:
            gauge("service.sessions.active", len(self._sessions))
        return len(expired)

    # -- actions -------------------------------------------------------
    def act(self, sid: str, op: str, args: Any = ()) -> Tuple[Session, Any]:
        """Perform one gesture against session ``sid`` (serialized per sid).

        ``args`` may arrive as JSON lists; they are re-tuplified to the
        literal forms :func:`repro.oracle.trace.apply_action` replays.
        """
        if op not in SERVICE_OPS:
            raise ValueError(
                f"unknown op {op!r} (expected one of {', '.join(SERVICE_OPS)})"
            )
        session = self.get(sid)
        with session.lock:
            with timed("service.action", op=op) as region:
                if op == "undo":
                    result = session.engine.undo()
                elif op == "redo":
                    result = session.engine.redo()
                else:
                    result = apply_action(
                        session.engine, TraceAction(op, _tuplify(list(args)))
                    )
            session.last_used = time.monotonic()
            session.action_count += 1
            session.latencies.append(region.seconds)
            if isinstance(result, RunReport):
                session.last_run_seconds = result.processing_seconds
            record_action_latency(region.seconds)
        return session, result

    # -- introspection -------------------------------------------------
    def live_sessions(self) -> List[Session]:
        with self._lock:
            self._evict_expired_locked()
            return list(self._sessions.values())

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "active": len(self._sessions),
                "created": self._created,
                "evicted": self._evicted,
                "rejected": self._rejected,
                "max_sessions": self.max_sessions,
                "ttl_seconds": self.ttl,
                "db_graphs": len(self.plane.db),
            }
