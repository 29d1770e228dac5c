"""The benchmark's own HTTP client: a closed loop of scripted sessions.

``connections`` threads each hold one HTTP/1.1 keep-alive connection
(stdlib ``http.client``, no socket options) and run formulation sessions
back to back with no think time: create, every gesture of the next script,
close.  A GUI user waits for every reply, so the loop is closed; the paper's
2 s per-edge drawing time is folded in arithmetically by :func:`srt`, never
slept.  Every reply is checked: the status code, and for *Run* the answer
against the script's naive-scan reference.

This client deliberately does not use ``repro.service.client``, so a change
to the shipped client cannot move the instrument.
"""

from __future__ import annotations

import http.client
import json
import math
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

REQUEST_ID_HEADER = "X-Prague-Request"

#: The paper's GUI latency: a user needs at least 2 s to draw an edge.
GUI_WINDOW_S = 2.0

#: Gestures counted as modifications.
MODIFY_OPS = ("delete_edge", "undo", "redo")


@dataclass
class Op:
    """One request as the client saw it."""

    kind: str  # "create" | "action" | "close"
    op: str  # the gesture name, or "create"/"close"
    start: float
    end: float
    request_id: str
    error: Optional[str] = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class Session:
    """One formulation session: its script and the requests it made."""

    script: int
    #: requests a complete session makes (gestures + create + close).
    planned: int
    ops: List[Op] = field(default_factory=list)


@dataclass
class LoadResult:
    window_start: float
    window_end: float
    sessions: List[Session]

    def ops(self) -> List[Op]:
        return [op for s in self.sessions for op in s.ops]

    def in_window(self, op: Op) -> bool:
        return self.window_start <= op.end < self.window_end


def check_run(expect: dict, run: dict) -> Optional[str]:
    """Why a Run reply disagrees with the naive reference, or ``None``."""
    if "exact" in expect:
        if run.get("exact") != expect["exact"]:
            return (
                f"exact answer {len(run.get('exact') or [])} ids != "
                f"naive {len(expect['exact'])} ids"
            )
        return None
    got = sorted([m["graph_id"], m["distance"]] for m in run.get("similar", []))
    if run.get("exact") or got != expect["similar"]:
        return f"similar answer {len(got)} ids != naive {len(expect['similar'])}"
    return None


class _Connection:
    """One keep-alive connection; reconnects after a transport error."""

    def __init__(self, host: str, port: int, timeout: float) -> None:
        self.host, self.port, self.timeout = host, port, timeout
        self.conn: Optional[http.client.HTTPConnection] = None

    def request(self, method: str, path: str, body, rid: str):
        """(status, decoded body, start, end); raises on transport errors."""
        if self.conn is None:
            self.conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        data = None if body is None else json.dumps(body).encode("utf-8")
        headers = {REQUEST_ID_HEADER: rid}
        if data is not None:
            headers["Content-Type"] = "application/json"
        start = time.perf_counter()
        try:
            self.conn.request(method, path, body=data, headers=headers)
            response = self.conn.getresponse()
            raw = response.read()
        except (OSError, http.client.HTTPException):
            self.close()
            raise
        end = time.perf_counter()
        return response.status, json.loads(raw or b"{}"), start, end

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None


class LoadGenerator:
    """Drive ``scripts`` against ``host:port`` from ``connections`` threads."""

    def __init__(
        self,
        host: str,
        port: int,
        scripts: List[dict],
        sigma: int,
        connections: int = 2,
        timeout: float = 20.0,
    ) -> None:
        self.host, self.port = host, port
        self.scripts = scripts
        self.sigma = sigma
        self.connections = connections
        self.timeout = timeout
        self._lock = threading.Lock()
        self._next = 0
        self._sessions: List[Session] = []

    def _claim(self) -> int:
        with self._lock:
            serial = self._next
            self._next += 1
            return serial

    def run(self, warmup: float, seconds: float) -> LoadResult:
        """Warm up for ``warmup`` s, then measure for ``seconds`` s."""
        begin = time.perf_counter()
        window_start = begin + warmup
        window_end = window_start + seconds
        threads = [
            threading.Thread(
                target=self._worker, args=(i, window_end), daemon=True,
                name=f"e2e-load-{i}",
            )
            for i in range(self.connections)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(window_end - time.perf_counter() + 4 * self.timeout)
        if any(t.is_alive() for t in threads):
            raise RuntimeError("load threads did not finish")
        return LoadResult(window_start, window_end, list(self._sessions))

    def _worker(self, index: int, stop: float) -> None:
        conn = _Connection(self.host, self.port, self.timeout)
        try:
            while time.perf_counter() < stop:
                serial = self._claim()
                script_index = serial % len(self.scripts)
                session = Session(
                    script=script_index,
                    planned=len(self.scripts[script_index]["ops"]) + 2,
                )
                with self._lock:
                    self._sessions.append(session)
                self._session(conn, f"c{index}s{serial}", session, stop)
        finally:
            conn.close()

    def _call(self, conn, session, kind, op, method, path, body, rid, want):
        """One request, recorded on ``session``; returns the reply or None."""
        try:
            status, reply, start, end = conn.request(method, path, body, rid)
        except (OSError, http.client.HTTPException, ValueError) as exc:
            now = time.perf_counter()
            session.ops.append(
                Op(kind, op, now, now, rid, f"{type(exc).__name__}: {exc}")
            )
            return None
        error = None if status == want else f"HTTP {status}: {reply.get('error')}"
        session.ops.append(Op(kind, op, start, end, rid, error))
        return None if error else reply

    def _session(self, conn, prefix: str, session: Session, stop: float) -> None:
        script = self.scripts[session.script]
        reply = self._call(
            conn, session, "create", "create", "POST", "/v1/sessions",
            {"sigma": self.sigma}, f"{prefix}-new", 201,
        )
        if reply is None:
            return
        path = f"/v1/sessions/{reply['session']}"
        edge_ids: Dict[int, int] = {}
        for i, step in enumerate(script["ops"]):
            if time.perf_counter() >= stop:
                break
            args = step["args"]
            if "ref" in step:
                args = [edge_ids[step["ref"]]]
            reply = self._call(
                conn, session, "action", step["op"], "POST", f"{path}/actions",
                {"op": step["op"], "args": args}, f"{prefix}-{i}", 200,
            )
            if reply is None:
                break
            if step["op"] == "add_edge":
                edge_ids[i] = reply["step"]["edge_id"]
            elif step["op"] == "run":
                session.ops[-1].error = check_run(script["expect"], reply["run"])
                if session.ops[-1].error:
                    break
        self._call(
            conn, session, "close", "close", "DELETE", path, None,
            f"{prefix}-end", 200,
        )


# ----------------------------------------------------------------------
# summaries
# ----------------------------------------------------------------------
def percentile(values: List[float], q: float) -> float:
    """The ``q``-th percentile (0..100) of a non-empty sample, taken as the
    mean of the samples ranked within five percentiles of it.

    While TCP delayed-ACK timers shape the latencies, they come in 4 ms
    steps, and a single order statistic flips between steps from run to
    run; the band mean moves smoothly with the share on each step.
    """
    ordered = sorted(values)
    n = len(ordered)
    lo = max(0, math.ceil(n * (q - 5) / 100) - 1)
    hi = max(lo + 1, min(n, math.ceil(n * (q + 5) / 100)))
    band = ordered[lo:hi]
    return sum(band) / len(band)


def supported(n: int, q: float) -> bool:
    """Whether at least ten of ``n`` samples lie beyond the ``q``-th percentile."""
    return n * (100 - q) / 100 >= 10


def srt(session: Session) -> Optional[float]:
    """The paper's system response time for one session, in seconds.

    Every gesture before *Run* offers the user's 2 s drawing time as cover;
    work that does not fit carries over, and what is left when Run is
    pressed adds to Run's own latency.  ``None`` if Run did not complete.
    """
    backlog = 0.0
    for op in session.ops:
        if op.error is not None:
            return None
        if op.kind != "action":
            continue
        if op.op == "run":
            return backlog + op.seconds
        backlog = max(0.0, backlog + op.seconds - GUI_WINDOW_S)
    return None


def summarize(result: LoadResult, seconds: float) -> dict:
    """Latency samples (ms) by metric family, and session throughput."""
    samples: Dict[str, List[float]] = {
        "action": [], "edge": [], "modify": [], "srt": [],
    }
    weight = 0.0
    for session in result.sessions:
        for op in session.ops:
            if op.error is not None or not result.in_window(op):
                continue
            weight += 1.0 / session.planned
            if op.kind != "action":
                continue
            ms = 1000.0 * op.seconds
            samples["action"].append(ms)
            if op.op == "add_edge":
                samples["edge"].append(ms)
            elif op.op in MODIFY_OPS:
                samples["modify"].append(ms)
            elif op.op == "run":
                value = srt(session)
                if value is not None:
                    samples["srt"].append(1000.0 * value)
    ops = result.ops()
    failed = [op for op in ops if op.error is not None]
    return {
        "samples": samples,
        "sessions_per_s": weight / seconds,
        "attempted": len(ops),
        "failed": len(failed),
        "errors": sorted({op.error for op in failed})[:5],
    }
