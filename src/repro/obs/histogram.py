"""Latency histograms — log-scale buckets with exact-rank percentiles.

PRAGUE's evaluation story is a latency *budget*, and budgets are about tails:
a p99 ``action.new`` that blows past the 2 s drawing gap breaks blending for
one user in a hundred even when the mean hides comfortably.  This module is
the distribution-recording half of ``repro.obs`` — counters say *how often*,
spans say *where in one session*, histograms say *how long, across every
session the process has served*.

Design constraints, in order:

* **always on.**  Unlike spans and counters, histograms record even when
  ``REPRO_TRACE=0`` — they are the only way to see tails in production-shaped
  runs, so they must be cheap enough to never turn off.  One
  :meth:`Histogram.record` is a bisect over ~130 precomputed boundaries plus
  four scalar updates; the cost is bounded (together with the flight
  recorder) by ``benchmarks/bench_obs_overhead.py``.
* **fixed log-scale buckets.**  Boundaries grow geometrically (ratio
  ``2**(1/4) ≈ 1.19``) from 100 ns to ~200 s, so relative resolution is
  constant (~19 %) across six decades.
* **exact rank extraction.**  :meth:`percentile` computes the exact
  nearest-rank index ``⌈p/100·n⌉`` over the bucket counts — the returned
  value is the upper edge of the bucket holding that rank (clamped to the
  observed max), i.e. a certified upper bound that is within one bucket
  ratio of the true order statistic.  The property tests pin this against a
  brute-force sorted-list reference.

>>> h = Histogram("demo")
>>> for ms in (1, 2, 3, 100):
...     h.record(ms / 1000)
>>> h.count
4
>>> h.percentile(50) <= 0.0024  # within one bucket ratio of 2 ms
True
>>> h.percentile(99) == h.max   # top rank clamps to the observed maximum
True

The process-wide registry (:data:`HISTOGRAMS`) is keyed by dotted site
names; engine actions and instrumented sites feed it through
:func:`observe`, and :func:`repro.obs.metrics.full_snapshot` carries the
summaries to the exporters and ``python -m repro trace``.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Any, Dict, List, Tuple

#: Smallest resolvable latency (100 ns) and per-bucket growth ratio.
_BASE_SECONDS = 1e-7
_GROWTH = 2.0 ** 0.25

#: Percentiles every summary reports.
SUMMARY_PERCENTILES = (50.0, 90.0, 99.0)


def _boundaries() -> Tuple[float, ...]:
    bounds: List[float] = []
    edge = _BASE_SECONDS
    while edge < 200.0:  # ~130 buckets: 100 ns .. ~200 s
        bounds.append(edge)
        edge *= _GROWTH
    bounds.append(edge)
    return tuple(bounds)


#: Shared bucket upper edges; bucket ``i`` holds values in
#: ``(_BOUNDS[i-1], _BOUNDS[i]]`` (bucket 0: ``[0, _BOUNDS[0]]``).
_BOUNDS: Tuple[float, ...] = _boundaries()


def bucket_index(seconds: float) -> int:
    """The bucket a value falls into (shared scale across all histograms)."""
    if seconds <= _BASE_SECONDS:
        return 0
    return bisect_right(_BOUNDS, seconds)


class Histogram:
    """One site's latency distribution: log buckets + scalar accumulators."""

    __slots__ = ("name", "count", "sum", "min", "max", "_counts")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = 0.0
        self._counts: Dict[int, int] = {}

    def record(self, seconds: float) -> None:
        """Record one observation (negative inputs clamp to 0)."""
        if seconds < 0.0:
            seconds = 0.0
        self.count += 1
        self.sum += seconds
        if seconds < self.min:
            self.min = seconds
        if seconds > self.max:
            self.max = seconds
        index = bucket_index(seconds)
        self._counts[index] = self._counts.get(index, 0) + 1

    def percentile(self, p: float) -> float:
        """Upper bound on the ``p``-th percentile (exact nearest-rank bucket).

        The rank is the exact nearest-rank index over all recorded values;
        the return value is the upper edge of the rank's bucket, clamped to
        the observed maximum — so it always lies in the same bucket as the
        true order statistic.
        """
        if not 0.0 < p <= 100.0:
            raise ValueError("percentile must be in (0, 100]")
        if self.count == 0:
            return 0.0
        rank = max(1, int(-(-self.count * p // 100)))  # ceil(count*p/100)
        cumulative = 0
        for index in sorted(self._counts):
            cumulative += self._counts[index]
            if cumulative >= rank:
                edge = _BOUNDS[index] if index < len(_BOUNDS) else self.max
                return min(edge, self.max)
        return self.max  # pragma: no cover - ranks always land in a bucket

    def summary(self) -> Dict[str, Any]:
        """JSON-ready scalar view: count/sum/min/max plus p50/p90/p99."""
        out: Dict[str, Any] = {
            "count": self.count,
            "sum_s": self.sum,
            "min_s": self.min if self.count else 0.0,
            "max_s": self.max,
        }
        for p in SUMMARY_PERCENTILES:
            out[f"p{p:g}_s"] = self.percentile(p)
        return out

    def reset(self) -> None:
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = 0.0
        self._counts.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Histogram({self.name!r}, n={self.count})"


#: The process-wide registry every instrumented site records into.
HISTOGRAMS: Dict[str, Histogram] = {}


def observe(name: str, seconds: float) -> None:
    """Record ``seconds`` into histogram ``name`` (creating it on first use).

    Always on — this is deliberately *not* gated on :data:`repro.obs.TRACER`:
    distributions must survive production-shaped runs with tracing off.
    """
    h = HISTOGRAMS.get(name)
    if h is None:
        h = HISTOGRAMS[name] = Histogram(name)
    h.record(seconds)


def histogram_summaries() -> Dict[str, Dict[str, Any]]:
    """Name-sorted ``{site: summary}`` of every non-empty histogram."""
    return {
        name: HISTOGRAMS[name].summary()
        for name in sorted(HISTOGRAMS)
        if HISTOGRAMS[name].count
    }


def total_observations() -> int:
    """Total recorded samples across all histograms (overhead accounting)."""
    return sum(h.count for h in HISTOGRAMS.values())


def reset_histograms() -> None:
    """Drop every histogram (test/bench isolation)."""
    HISTOGRAMS.clear()
