"""Counters and gauges — the metrics half of ``repro.obs``.

A *counter* is a monotonically increasing integer (cache hits, pool
fallbacks, path-taken tallies) — never a count a histogram already keeps:
how often a timed site ran is its histogram's ``count``.  A *gauge* is a
last-write-wins value (candidate-set sizes, LRU occupancy).  Both live in
the process-wide :data:`METRICS` registry and share the tracing switch:
:func:`count` and :func:`gauge` record only while
:data:`repro.obs.TRACER` is enabled, so the disabled cost at an
instrumentation site is one attribute load and a branch.

Names are dotted, lowercase, and stable — they are part of the observable
API (``docs/PERFORMANCE.md`` documents the vocabulary):

>>> from repro.obs import METRICS, count, gauge, trace
>>> with trace():
...     count("a2f.lookup.hit")
...     count("a2f.lookup.hit")
...     gauge("rq.size", 17)
>>> METRICS.snapshot()["counters"]["a2f.lookup.hit"]
2
>>> METRICS.snapshot()["gauges"]["rq.size"]
17

The canonical-code caches keep their own counters for historical reasons
(:func:`repro.graph.canonical.cache_stats`); :func:`full_snapshot` merges
them under the ``canonical.*`` prefix so one call sees everything.
"""

from __future__ import annotations

from typing import Any, Dict, Union

from repro.obs.tracer import TRACER

Number = Union[int, float]


class Metrics:
    """The process-wide counter/gauge registry."""

    __slots__ = ("_counters", "_gauges")

    def __init__(self) -> None:
        self._counters: Dict[str, Number] = {}
        self._gauges: Dict[str, Number] = {}

    def inc(self, name: str, amount: Number = 1) -> None:
        """Add ``amount`` to counter ``name`` (creating it at 0)."""
        self._counters[name] = self._counters.get(name, 0) + amount

    def set_gauge(self, name: str, value: Number) -> None:
        """Set gauge ``name`` to ``value`` (last write wins)."""
        self._gauges[name] = value

    def counter(self, name: str) -> Number:
        """Current value of counter ``name`` (0 if never incremented)."""
        return self._counters.get(name, 0)

    def snapshot(self) -> Dict[str, Dict[str, Number]]:
        """A sorted, copied view: ``{"counters": {...}, "gauges": {...}}``."""
        return {
            "counters": dict(sorted(self._counters.items())),
            "gauges": dict(sorted(self._gauges.items())),
        }

    def reset(self) -> None:
        """Zero everything (test/bench isolation)."""
        self._counters.clear()
        self._gauges.clear()


#: The process-wide registry every instrumentation site writes to.
METRICS = Metrics()


def count(name: str, amount: Number = 1) -> None:
    """Increment a counter — no-op while tracing is disabled."""
    if TRACER.enabled:
        METRICS.inc(name, amount)


def gauge(name: str, value: Number) -> None:
    """Set a gauge — no-op while tracing is disabled."""
    if TRACER.enabled:
        METRICS.set_gauge(name, value)


#: The canonical-cache bridge keys ``full_snapshot`` always reports —
#: consumers (exporters, the trace CLI, dashboards) index them
#: unconditionally, so the section must stay well-formed even when the LRU
#: tier is disabled (``REPRO_CANONICAL_CACHE=0``) or the stats source
#: changes shape.
_CANONICAL_COUNTER_KEYS = ("graph_hits", "lru_hits", "misses")


def _rss_bytes() -> int:
    """This process's resident set size in bytes (0 when unknowable).

    ``/proc/self/statm`` is the cheap, current-value source on Linux; the
    ``resource`` fallback reports the *peak* RSS (the best portable
    approximation), and any failure degrades to 0 rather than raising —
    memory gauges must never break a snapshot.
    """
    try:
        with open("/proc/self/statm", "rb") as handle:
            resident_pages = int(handle.read().split()[1])
        import os as _os

        return resident_pages * _os.sysconf("SC_PAGE_SIZE")
    except Exception:
        pass
    try:
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    except Exception:
        return 0


def full_snapshot() -> Dict[str, Dict[str, Any]]:
    """The metrics snapshot with canonical-cache stats and histograms merged.

    The canonical module's counters predate ``repro.obs`` and record
    unconditionally (they cost nothing extra); they appear here under
    ``canonical.*``: ``graph_hits`` (per-graph invariant-store hits),
    ``lru_hits`` (process-wide structural LRU hits), ``misses`` (full
    recomputations) and ``size`` (current LRU occupancy, a gauge).  With the
    LRU tier disabled (``REPRO_CANONICAL_CACHE=0``) the section is still
    emitted, zero-filled for whatever the stats source does not report — the
    shape of the snapshot is part of the observable API.

    The ``"histograms"`` section carries the latency-distribution summaries
    of :mod:`repro.obs.histogram` (always on, independent of the tracing
    switch), and ``"slo"`` the rolling-window objective state of
    :data:`repro.obs.slo.SLO` — both feed the Prometheus export.

    Process-level memory gauges (``proc.rss_bytes``,
    ``tracemalloc.peak_bytes``) are sampled at snapshot time and always
    present (zero when the source is off or unavailable), independent of the
    tracing switch — like the canonical bridge, their shape is part of the
    observable API.
    """
    from repro.graph.canonical import cache_stats
    from repro.obs.histogram import histogram_summaries
    from repro.obs.slo import SLO

    out: Dict[str, Dict[str, Any]] = METRICS.snapshot()
    stats = cache_stats()
    if not isinstance(stats, dict):  # defensive: never mis-shape the bridge
        stats = {}
    for key in _CANONICAL_COUNTER_KEYS:
        value = stats.get(key, 0)
        out["counters"][f"canonical.{key}"] = value if \
            isinstance(value, (int, float)) else 0
    size = stats.get("size", 0)
    out["gauges"]["canonical.lru_size"] = size if \
        isinstance(size, (int, float)) else 0
    out["gauges"]["proc.rss_bytes"] = _rss_bytes()
    from repro.obs.profiler import PROFILER

    out["gauges"]["tracemalloc.peak_bytes"] = PROFILER.tracemalloc_peak_bytes()
    out["histograms"] = histogram_summaries()
    out["slo"] = SLO.snapshot()
    return out
