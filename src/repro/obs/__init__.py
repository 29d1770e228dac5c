"""``repro.obs`` — zero-dependency tracing, metrics and SRT accounting.

PRAGUE's whole premise is a latency budget: per-edge work must hide inside
GUI latency, and what does not hide becomes the SRT at *Run*.  This package
is the measurement substrate for that budget — it answers *where each
millisecond of a formulation session goes* without changing any answer:

* **timed regions** (:mod:`repro.obs.tracer`) — the one timing primitive.
  ``timed(site)`` reads the clock twice, records the interval in histogram
  ``site`` and, while tracing is on, is a span of the tree: one
  ``action.*`` region per GUI gesture with children for SPIG construction,
  candidate algebra and verification;
* **metrics** (:mod:`repro.obs.metrics`) — counters/gauges for cache
  hits/misses (canonical LRU, A2F/A2I posting lists) and verification-pool
  task counts and fallbacks;
* **histograms** (:mod:`repro.obs.histogram`) — always-on latency
  distributions (log-scale buckets, exact-rank p50/p90/p99), one per timed
  site, alive even with tracing off;
* **flight recorder** (:mod:`repro.obs.recorder`) — an always-on bounded
  ring of structured events (action boundaries, cache transitions, pool
  runs/fallbacks, exceptions), dumpable as a post-mortem bundle;
* **SRT ledger** (:mod:`repro.obs.srt`) — the per-action decomposition into
  *hidden-in-GUI-latency* vs *residual-at-Run* work;
* **exporters** (:mod:`repro.obs.export`) — JSON (schema-versioned
  envelopes), Prometheus text format and human-readable tables, consumed by
  the ``python -m repro trace``, ``postmortem`` and ``top`` CLIs;
* **continuous export** (:mod:`repro.obs.exporter`) — with
  ``REPRO_OBS_EXPORT`` set, events stream to ``events.jsonl`` and the
  metrics snapshot is periodically rewritten (``metrics.prom`` +
  ``snapshot.json``), so a live session can be watched with
  ``python -m repro top``;
* **continuous profiling** (:mod:`repro.obs.profiler`) — a statistical
  wall-clock sampler (``REPRO_PROFILE_HZ``) folding ``sys._current_frames()``
  into collapsed stacks attributed per engine action and request id, with a
  ``tracemalloc`` memory tier and collapsed-stack/flamegraph export via
  ``python -m repro profile``;
* **request correlation** (:mod:`repro.obs.requests`) — a thread-local
  request-id scope: while the service dispatches a request, every recorder
  event and root span is stamped with the id, worker deltas carry it home,
  and the always-on :data:`~repro.obs.requests.REQUEST_LOG` ring keeps the
  completed-request access log behind ``/obs`` and ``/v1/requests/<id>``;
* **SLOs** (:mod:`repro.obs.slo`) — rolling-window attainment and
  error-budget burn rates for declarative objectives (action latency under
  the GUI window, error rate, admission rate), surfaced in
  ``full_snapshot()`` and the Prometheus export;
* **cross-process merge** (:mod:`repro.obs.snapshot`) — verification-pool
  workers capture counter/histogram/recorder deltas locally and the parent
  merges them back (exact bucket-wise histogram sums, per-worker provenance
  labels, timestamp-interleaved events), so ``full_snapshot()`` accounts
  for every observation at any ``REPRO_WORKERS`` setting.

Tracing is **off by default** and controlled by ``REPRO_TRACE``; histograms
and the flight recorder are **on by default** (``REPRO_RECORDER=0`` turns
the recorder off) — see ``docs/CONFIGURATION.md``.  The combined always-on
cost is bounded by ``benchmarks/bench_obs_overhead.py``.  Programmatic use
needs no environment variable:

>>> from repro import obs
>>> with obs.trace() as tracer:
...     with obs.timed("session", queries=1):
...         with obs.timed("action.new"):
...             obs.count("a2f.lookup.hit")
>>> print(obs.render_span_tree(tracer.roots).split()[0])
session
>>> obs.METRICS.snapshot()["counters"]
{'a2f.lookup.hit': 1}
>>> obs.HISTOGRAMS["action.new"].count
1

Instrumented modules never *require* tracing: with the tracer disabled the
engine behaves byte-for-byte identically (pinned by
``tests/obs/test_trace_noop_equivalence.py`` via the differential oracle,
and likewise for the recorder by ``tests/obs/test_recorder.py``).
"""

from repro.obs.export import (
    SCHEMA_VERSION,
    diff_trace_reports,
    envelope,
    open_envelope,
    render_histograms,
    render_ledger,
    render_metrics,
    render_prometheus,
    render_report_diff,
    render_request_bundle,
    render_span_tree,
    render_top,
    report_to_dict,
)
from repro.obs.exporter import EXPORTER, ContinuousExporter
from repro.obs.histogram import (
    HISTOGRAMS,
    Histogram,
    histogram_summaries,
    merge_histograms,
    observe,
    reset_histograms,
    snapshot_histograms,
)
from repro.obs.metrics import METRICS, Metrics, count, full_snapshot, gauge
from repro.obs.profiler import (
    PROFILER,
    Profiler,
    folded_lines,
    profile_action,
    profile_summary,
    render_flamegraph_html,
    top_frames,
)
from repro.obs.recorder import RECORDER, FlightRecorder, render_postmortem
from repro.obs.requests import (
    REQUEST_LOG,
    RequestLog,
    current_request_id,
    request_scope,
    set_request_id,
)
from repro.obs.slo import (
    DEFAULT_OBJECTIVES,
    SLO,
    SloObjective,
    SloTracker,
    record_action_latency,
    record_admission,
    record_request,
)
from repro.obs.snapshot import (
    begin_worker_capture,
    collect_worker_delta,
    merge_worker_delta,
    worker_context,
)
from repro.obs.srt import (
    LedgerEntry,
    SrtLedger,
    build_ledger,
    events_from_reports,
)
from repro.obs.tracer import (
    TRACER,
    Span,
    Tracer,
    sync_env,
    timed,
    trace,
)

__all__ = [
    "TRACER",
    "Tracer",
    "Span",
    "timed",
    "sync_env",
    "trace",
    "METRICS",
    "Metrics",
    "count",
    "gauge",
    "full_snapshot",
    "HISTOGRAMS",
    "Histogram",
    "observe",
    "histogram_summaries",
    "snapshot_histograms",
    "merge_histograms",
    "reset_histograms",
    "RECORDER",
    "FlightRecorder",
    "render_postmortem",
    "PROFILER",
    "Profiler",
    "profile_action",
    "profile_summary",
    "folded_lines",
    "top_frames",
    "render_flamegraph_html",
    "REQUEST_LOG",
    "RequestLog",
    "current_request_id",
    "request_scope",
    "set_request_id",
    "SLO",
    "SloTracker",
    "SloObjective",
    "DEFAULT_OBJECTIVES",
    "record_action_latency",
    "record_admission",
    "record_request",
    "EXPORTER",
    "ContinuousExporter",
    "worker_context",
    "begin_worker_capture",
    "collect_worker_delta",
    "merge_worker_delta",
    "LedgerEntry",
    "SrtLedger",
    "build_ledger",
    "events_from_reports",
    "SCHEMA_VERSION",
    "envelope",
    "open_envelope",
    "render_span_tree",
    "render_metrics",
    "render_histograms",
    "render_prometheus",
    "render_top",
    "render_request_bundle",
    "render_ledger",
    "report_to_dict",
    "diff_trace_reports",
    "render_report_diff",
]
