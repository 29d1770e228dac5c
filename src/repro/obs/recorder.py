"""The flight recorder — an always-on bounded ring of structured events.

Spans and histograms tell you where time went; when a session *diverges* or
a verification pool falls over you instead need to know **what just
happened**, in order, with arguments.  The flight recorder is the black box
for that: a bounded ``deque`` of structured events that every interesting
site appends to — action boundaries, cache hit/miss *transitions* (recorded
only when the streak flips, so steady-state hits cost one dict probe),
verification-pool runs and fallbacks, and exceptions with their tracebacks.

It is on by default (``REPRO_RECORDER=0`` disables it; ``docs/``
``CONFIGURATION.md``) precisely because it only pays off for the failures
nobody planned to reproduce: the ring holds the last ``REPRO_RECORDER_SIZE``
events (default 512) at a per-event cost bounded by
``benchmarks/bench_obs_overhead.py``.

:meth:`FlightRecorder.dump` freezes the ring into a schema-versioned
post-mortem bundle (see :mod:`repro.obs.export`); the differential-oracle
harness embeds one in every divergence report, a pool fallback writes one to
``REPRO_POSTMORTEM_DIR`` when set, and ``python -m repro postmortem
<bundle>`` renders either back into a timeline:

>>> recorder = FlightRecorder(size=4)
>>> recorder.force(True)
>>> recorder.record("action.start", op="new")
>>> recorder.transition("canonical.cache", "lru_hit")
>>> recorder.transition("canonical.cache", "lru_hit")  # same streak: skipped
>>> recorder.transition("canonical.cache", "miss")     # flip: recorded
>>> [e["kind"] for e in recorder.snapshot()]
['action.start', 'transition', 'transition']
"""

from __future__ import annotations

import json
import os
import time
import traceback as _traceback
from collections import deque
from pathlib import Path
from typing import Any, Deque, Dict, Iterable, List, Optional, Union

from repro.config import recorder_enabled, recorder_size
from repro.obs.exporter import EXPORTER as _EXPORTER
from repro.obs import requests as _requests


class FlightRecorder:
    """Process-wide bounded event ring (single-threaded, like the tracer)."""

    def __init__(self, size: Optional[int] = None) -> None:
        self.enabled: bool = recorder_enabled()
        self._override: Optional[bool] = None
        self._size: int = recorder_size() if size is None else size
        self._size_raw = os.environ.get("REPRO_RECORDER_SIZE")
        self._events: Deque[Dict[str, Any]] = deque(maxlen=self._size)
        self._seq: int = 0
        self._dumps: int = 0
        self._last_state: Dict[str, str] = {}
        #: Count of record/transition *invocations* while enabled — the
        #: per-session volume the overhead benchmark multiplies by per-call
        #: cost (deduplicated transitions still pay the probe, so they count).
        self.calls: int = 0

    # ------------------------------------------------------------------
    # switching (mirrors Tracer: env knob + programmatic override)
    # ------------------------------------------------------------------
    def sync_env(self) -> bool:
        """Refresh ``enabled``/capacity from the environment (per action)."""
        if self._override is None:
            self.enabled = recorder_enabled()
        # Re-parse the capacity only when the raw env string changed: this
        # runs at every engine action, and int()-in-try/except per call would
        # dominate sync_env's budget in bench_obs_overhead.
        raw = os.environ.get("REPRO_RECORDER_SIZE")
        if raw != self._size_raw:
            self._size_raw = raw
            size = recorder_size()
            if size != self._size:
                self._size = size
                self._events = deque(self._events, maxlen=size)
        return self.enabled

    def force(self, enabled: Optional[bool]) -> None:
        """Install (or with ``None`` remove) an override of the env knob."""
        self._override = enabled
        self.enabled = recorder_enabled() if enabled is None else enabled

    def reset(self) -> None:
        """Drop all events and transition memory (test/bench isolation)."""
        self._events.clear()
        self._last_state.clear()
        self._seq = 0
        self.calls = 0

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def record(self, kind: str, **fields: Any) -> None:
        """Append one structured event (no-op while disabled)."""
        if not self.enabled:
            return
        self.calls += 1
        self._seq += 1
        event: Dict[str, Any] = {
            "seq": self._seq,
            "t_s": time.perf_counter(),
            "kind": kind,
        }
        event.update(fields)
        # Module-attribute guard before the thread-local lookup: processes
        # that never enter a request scope (benches, batch replays) keep the
        # pre-correlation record price.
        if _requests._EVER_SCOPED:
            request_id = getattr(_requests._SCOPE, "request_id", None)
            if request_id is not None:
                event.setdefault("request_id", request_id)
        self._events.append(event)
        if _EXPORTER.active:
            _EXPORTER.emit(event)
            if kind == "action.end":
                _EXPORTER.tick()

    def transition(self, name: str, state: str) -> None:
        """Record ``name``'s state only when it *changes* (streak compression).

        Cache sites call this per probe; a run of 10 000 hits costs 10 000
        dict probes but records exactly one event per flip, so the ring holds
        history instead of noise.
        """
        if not self.enabled:
            return
        self.calls += 1
        previous = self._last_state.get(name)
        if previous == state:
            return
        self._last_state[name] = state
        self._seq += 1
        event = {
            "seq": self._seq,
            "t_s": time.perf_counter(),
            "kind": "transition",
            "name": name,
            "from": previous,
            "to": state,
        }
        if _requests._EVER_SCOPED:
            request_id = getattr(_requests._SCOPE, "request_id", None)
            if request_id is not None:
                event["request_id"] = request_id
        self._events.append(event)
        if _EXPORTER.active:
            _EXPORTER.emit(event)

    def merge(self, events: List[Dict[str, Any]],
              source: Optional[str] = None) -> None:
        """Interleave another process's event snapshot into this ring.

        Events arrive from a verification worker's delta
        (:mod:`repro.obs.snapshot`): each is tagged with its ``source``
        provenance label (``src`` field) and slotted into the ring by its
        ``t_s`` timestamp — ``perf_counter`` is CLOCK_MONOTONIC, shared
        across forked processes, so parent and worker timelines are directly
        comparable.  Sequence numbers are reassigned over the merged order
        (they are per-ring, not global), and the ring bound still holds:
        oldest merged events fall off first.  Merged events also stream to
        the continuous exporter, so a tailing ``repro top`` sees worker
        activity as soon as the pool returns.
        """
        if not self.enabled or not events:
            return
        incoming: List[Dict[str, Any]] = []
        for event in events:
            event = dict(event)
            if source is not None:
                event.setdefault("src", source)
            incoming.append(event)
        combined = sorted(
            list(self._events) + incoming,
            key=lambda e: e.get("t_s", 0.0),
        )
        self._seq += len(incoming)
        retained = combined[-self._size:]
        for seq, event in enumerate(
            retained, start=self._seq - len(retained) + 1
        ):
            event["seq"] = seq
        self._events = deque(retained, maxlen=self._size)
        if _EXPORTER.active:
            for event in incoming:
                _EXPORTER.emit(event)

    def record_exception(self, kind: str, exc: BaseException,
                         **fields: Any) -> None:
        """Append an exception event carrying the full traceback text."""
        if not self.enabled:
            return
        self.record(
            kind,
            error=f"{type(exc).__name__}: {exc}",
            traceback="".join(_traceback.format_exception(
                type(exc), exc, exc.__traceback__
            )),
            **fields,
        )

    # ------------------------------------------------------------------
    # post-mortems
    # ------------------------------------------------------------------
    def snapshot(self) -> List[Dict[str, Any]]:
        """The ring's current contents, oldest first (copied)."""
        return [dict(event) for event in self._events]

    def dump(self, reason: str = "manual", **extra: Any) -> Dict[str, Any]:
        """Freeze the ring into a schema-versioned post-mortem bundle."""
        from repro.obs.export import envelope

        self._dumps += 1
        payload: Dict[str, Any] = {
            "reason": reason,
            "dump_index": self._dumps,
            "capacity": self._size,
            "dropped": max(0, self._seq - len(self._events)),
            "events": self.snapshot(),
        }
        payload.update(extra)
        return envelope("postmortem", payload)

    def dump_to_dir(
        self,
        reason: str,
        directory: Union[str, Path, None] = None,
        **extra: Any,
    ) -> Optional[Path]:
        """Write a post-mortem bundle under ``directory`` (or the
        ``REPRO_POSTMORTEM_DIR`` knob); returns the path, or ``None`` when no
        directory is configured or the recorder is disabled."""
        from repro.config import postmortem_dir

        if not self.enabled:
            return None
        if directory is None:
            directory = postmortem_dir()
        if directory is None:
            return None
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        bundle = self.dump(reason=reason, **extra)
        slug = "".join(c if c.isalnum() else "-" for c in reason)
        path = directory / f"postmortem-{bundle['dump_index']:04d}-{slug}.json"
        path.write_text(json.dumps(bundle, indent=2, default=str) + "\n")
        return path


#: The process-wide recorder every instrumented site appends to.
RECORDER = FlightRecorder()


#: Event keys a timeline line shows in its fixed columns, never as fields.
_EVENT_COLUMNS = frozenset(
    {"schema", "kind", "event", "seq", "t_s", "traceback"}
)


def render_event(event: Dict[str, Any], t0: Optional[float] = None,
                 seq_width: int = 0, hide: Iterable[str] = ()) -> str:
    """One event as a timeline line: ``#seq`` (given ``seq_width``), ms
    since ``t0`` (given one), the kind (``event`` in exported JSONL), then
    every other field not in ``hide`` as ``key=value``."""
    skip = _EVENT_COLUMNS.union(hide)
    fields = " ".join(f"{k}={v}" for k, v in event.items() if k not in skip)
    line = "  "
    if seq_width:
        line += f"#{event.get('seq', '?'):>{seq_width}}  "
    if t0 is not None:
        line += f"+{1000 * (event.get('t_s', t0) - t0):9.2f} ms  "
    kind = event.get("event", event.get("kind", "?"))
    return f"{line}{str(kind):<18}{fields}"


def render_postmortem(bundle: Dict[str, Any]) -> str:
    """A post-mortem bundle as a human-readable timeline.

    Accepts the bundle as loaded from JSON (schema-enveloped) and renders a
    header plus one line per event: sequence number, milliseconds since the
    first retained event, kind, and the event's fields.
    """
    events = bundle.get("events", [])
    lines = [
        f"post-mortem: {bundle.get('reason', '?')} "
        f"(schema {bundle.get('schema', 1)}, "
        f"{len(events)} events, {bundle.get('dropped', 0)} older dropped, "
        f"capacity {bundle.get('capacity', '?')})"
    ]
    if not events:
        lines.append("(recorder ring was empty)")
        return "\n".join(lines)
    t0 = events[0].get("t_s", 0.0)
    width = max(len(str(e.get("seq", ""))) for e in events)
    for event in events:
        lines.append(render_event(event, t0, seq_width=width))
        if "traceback" in event:
            for tb_line in str(event["traceback"]).rstrip().splitlines():
                lines.append(f"      | {tb_line}")
    return "\n".join(lines)
