"""Timed regions — the one timing primitive of ``repro.obs``.

``timed(site, **attrs)`` is a context manager around one region of work.  It
reads the clock once on entry and once on exit, records that interval as one
sample of histogram ``site`` (always on, like every histogram), and — only
while tracing is on — links the region into the span tree, so the span
starts and ends on those same two readings.  Every other record of the
region (a report's ``processing_seconds``, a ledger row, a recorder event)
reads the handle's ``.seconds``, so a region has exactly one duration.

Regions nest: one entered while another is open on the same thread becomes
its child, so a traced formulation session yields a tree — one
``action.*`` root per GUI gesture (``service.request`` under the HTTP
service) and inside it the work it triggered (``spig.construct``,
``candidates.exact``, ``verify.scan``, …).  Timings come from
``time.perf_counter`` (monotonic), never from wall-clock dates.  A region
that raises closes its span but records no sample.

The module-level :data:`TRACER` is process-wide and **off by default**.
``REPRO_TRACE=1`` enables it (see :func:`repro.config.trace_enabled`); the
engine calls :func:`sync_env` once per GUI action, so the knob is live.
For programmatic use — tests, the ``python -m repro trace`` CLI —
:func:`trace` force-enables tracing for a block regardless of the
environment:

>>> from repro.obs import timed, trace
>>> with trace() as tracer:
...     with timed("outer", kind="demo"):
...         with timed("inner") as region:
...             region.set(hits=2)
>>> [s.name for s in tracer.roots]
['outer']
>>> [(child.name, child.attrs) for child in tracer.roots[0].children]
[('inner', {'hits': 2})]
>>> region.seconds >= 0.0
True

Open spans are tracked per thread, so concurrent service requests each grow
their own tree; verification workers are separate *processes* whose
histogram samples merge home (:mod:`repro.obs.snapshot`).
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.config import trace_enabled
from repro.obs.exporter import EXPORTER as _EXPORTER
from repro.obs.histogram import observe as _observe, reset_histograms
from repro.obs.profiler import PROFILER as _PROFILER
from repro.obs.recorder import RECORDER as _RECORDER
from repro.obs.requests import current_request_id as _current_request_id


class Span:
    """One timed region: the handle :func:`timed` returns and, while
    tracing is on, a node of the span tree."""

    __slots__ = ("name", "attrs", "start_s", "end_s", "children", "_traced")

    def __init__(self, name: str, attrs: Dict[str, Any]) -> None:
        self.name = name
        self.attrs = attrs
        self.start_s = 0.0
        self.end_s: Optional[float] = None
        self.children: Sequence["Span"] = ()  # a list once traced
        self._traced = False

    def __enter__(self) -> "Span":
        if TRACER.enabled:
            TRACER._open(self)
            self._traced = True
        self.start_s = perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.end_s = end = perf_counter()
        if exc_type is None:
            _observe(self.name, end - self.start_s)
        if self._traced:
            TRACER._close(self)
        return False

    def set(self, **attrs: Any) -> None:
        """Attach/overwrite attributes (usable after the region closed)."""
        self.attrs.update(attrs)

    @property
    def seconds(self) -> float:
        """The region's duration; for a still-open region, elapsed so far."""
        end = self.end_s if self.end_s is not None else perf_counter()
        return end - self.start_s

    def walk(self, depth: int = 0) -> Iterator[Tuple["Span", int]]:
        """Depth-first (self, depth) pairs — the rendering order."""
        yield self, depth
        for child in self.children:
            yield from child.walk(depth + 1)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form (seconds, attrs, recursive children)."""
        return {
            "name": self.name,
            "seconds": self.seconds,
            "attrs": dict(self.attrs),
            "children": [c.to_dict() for c in self.children],
        }


def timed(site: str, **attrs: Any) -> Span:
    """Time one region: ``with timed("spig.construct", edge=3) as r: ...``.

    The interval feeds histogram ``site``; while tracing is on the region
    is also a span.  ``r.set(**attrs)`` adds attributes and, after the
    block, ``r.seconds`` is the recorded duration.
    """
    return Span(site, attrs)


class Tracer:
    """Process-wide span collector.

    ``enabled`` is a plain bool so a region pays one attribute load to skip
    the tree.  It follows ``REPRO_TRACE`` (via :func:`sync_env`) unless an
    override is installed by :meth:`force` / :func:`trace`.
    """

    #: Upper bound on retained root spans — a leak guard for long-lived
    #: processes that trace many sessions without draining.
    MAX_ROOTS = 4096

    def __init__(self) -> None:
        self.enabled: bool = trace_enabled()
        self._override: Optional[bool] = None
        self._local = threading.local()
        self.roots: List[Span] = []

    @property
    def _stack(self) -> List[Span]:
        """The calling thread's open spans, innermost last."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # ------------------------------------------------------------------
    # switching
    # ------------------------------------------------------------------
    def sync_env(self) -> bool:
        """Refresh ``enabled`` from ``REPRO_TRACE`` (unless overridden)."""
        if self._override is None:
            self.enabled = trace_enabled()
        return self.enabled

    def force(self, enabled: Optional[bool]) -> None:
        """Install (or with ``None`` remove) an override of the env knob."""
        self._override = enabled
        self.enabled = trace_enabled() if enabled is None else enabled

    def reset(self) -> None:
        """Drop all collected spans (and this thread's open ones)."""
        self._stack.clear()
        self.roots.clear()

    def unwind(self, depth: int) -> None:
        """Close and pop every open span above ``depth`` (exception cleanup).

        When a traced block raises past a region that was entered but never
        exited (a hand-entered handle, an abandoned generator), the open
        span would otherwise survive on the stack and silently reparent all
        later spans.  :func:`trace` calls this on the way out so the stack
        is always restored to its entry depth.
        """
        stack = self._stack
        now = perf_counter()
        while len(stack) > depth:
            abandoned = stack.pop()
            if abandoned.end_s is None:
                abandoned.end_s = now

    # ------------------------------------------------------------------
    # span lifecycle (called by Span)
    # ------------------------------------------------------------------
    def _open(self, span: Span) -> None:
        span.children = []
        stack = self._stack
        if stack:
            stack[-1].children.append(span)
        else:
            # Root spans carry the HTTP correlation id (children inherit by
            # tree position); ``/v1/requests/<id>`` selects roots by it.
            request_id = _current_request_id()
            if request_id is not None:
                span.attrs.setdefault("request_id", request_id)
            self.roots.append(span)
            if len(self.roots) > self.MAX_ROOTS:
                del self.roots[: len(self.roots) - self.MAX_ROOTS]
        stack.append(span)

    def _close(self, span: Span) -> None:
        # Tolerate out-of-order closes (e.g. a generator finalised late):
        # pop up to and including this span if present, else ignore.
        stack = self._stack
        if any(entry is span for entry in stack):
            while stack:
                if stack.pop() is span:
                    break

    def span_count(self) -> int:
        """Total number of recorded spans across all root trees."""
        return sum(1 for root in self.roots for _ in root.walk())


#: The process-wide tracer every timed region consults.
TRACER = Tracer()


def sync_env() -> bool:
    """Refresh the observability switches from the environment.

    Called at engine action entry: re-reads ``REPRO_TRACE`` for the tracer,
    ``REPRO_RECORDER``/``REPRO_RECORDER_SIZE`` for the flight recorder,
    ``REPRO_OBS_EXPORT``/``REPRO_OBS_EXPORT_INTERVAL`` for the continuous
    exporter and ``REPRO_PROFILE_HZ``/``REPRO_PROFILE_MEM`` for the
    statistical sampler, so flipping any knob mid-process takes effect at
    the next action.  All four cache the raw environment strings, so the
    per-action cost with everything at its default is a handful of
    ``environ`` probes (bounded by ``benchmarks/bench_obs_overhead.py``).
    Returns the tracer's enabled state (the historical contract).
    """
    _RECORDER.sync_env()
    _PROFILER.sync_env()
    if _EXPORTER.sync_env():
        _EXPORTER.tick()
    return TRACER.sync_env()


@contextmanager
def trace(reset: bool = True):
    """Force-enable tracing for a block and yield the tracer.

    Exception-safe: if the block raises, the tracer's prior enabled/override
    state is restored and any span left open inside the block is closed and
    popped (``Tracer.unwind``), so a failing traced block can never corrupt
    the next one.  With ``reset=True`` (the default) the span forest, the
    metrics registry and the latency histograms all start empty.
    """
    from repro.obs.metrics import METRICS

    previous = TRACER._override
    if reset:
        TRACER.reset()
        METRICS.reset()
        reset_histograms()
    depth = len(TRACER._stack)
    TRACER.force(True)
    try:
        yield TRACER
    finally:
        TRACER.force(previous)
        TRACER.unwind(depth)
