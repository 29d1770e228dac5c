"""Cross-process telemetry: the worker-delta capture/merge protocol.

The verification pool is where PRAGUE's residual work actually runs — and a
``multiprocessing`` worker's observations used to die with the subprocess:
the parent logged chunk-level ``pool.run`` events while every counter,
histogram sample and recorder event produced *inside* ``_verify_chunk``
vanished.  This module closes that hole with a three-step protocol driven
by :func:`repro.core.verification._run_batch`:

1. **context** — :func:`worker_context` captures the parent's observability
   posture (tracing/recorder switches) into a small picklable dict that
   travels with every chunk payload, so workers observe exactly what the
   parent would have (a worker forked before an ``obs.trace()`` block, or
   spawned without fork, learns the parent's switches only from it);
2. **capture** — :func:`begin_worker_capture` runs first inside the worker:
   it applies the context, *resets* the worker-local registries (fork copies
   the parent's state; copy-on-write makes the reset invisible to the
   parent) and suspends the continuous exporter so the worker never writes
   the parent's files.  Everything the chunk then records is, by
   construction, the chunk's own delta;
3. **merge** — :func:`collect_worker_delta` freezes that delta (counters,
   gauges, histogram buckets, recorder events) with a per-worker provenance
   label, and the parent folds it back with :func:`merge_worker_delta`:
   counters sum exactly, histograms merge bucket-wise
   (:meth:`~repro.obs.histogram.Histogram.merge_snapshot`), gauges are
   namespaced by worker, and recorder events interleave into the parent
   ring by timestamp (:meth:`~repro.obs.recorder.FlightRecorder.merge`).

The result is the acceptance property pinned by
``tests/obs/test_worker_telemetry.py``: ``full_snapshot()`` reports
identical verification counter and histogram totals at any
``REPRO_WORKERS`` setting — no lost samples, answers byte-identical.
"""

from __future__ import annotations

import os
from typing import Any, Dict

from repro.obs.exporter import EXPORTER
from repro.obs.histogram import (
    merge_histograms,
    reset_histograms,
    snapshot_histograms,
)
from repro.obs.metrics import METRICS, count
from repro.obs.profiler import PROFILER
from repro.obs.recorder import RECORDER
from repro.obs.requests import current_request_id, set_request_id
from repro.obs.tracer import TRACER


def worker_context() -> Dict[str, Any]:
    """The parent's obs posture as a picklable dict for pool payloads.

    Includes the dispatching thread's request id (if an HTTP request scope
    is active), so events a pool worker records carry the same correlation
    id as the handler that triggered the batch, and the sampler rate so a
    profiled parent gets profiled workers (their samples merge home through
    :func:`merge_worker_delta`).
    """
    return {
        "trace": TRACER.enabled,
        "recorder": RECORDER.enabled,
        "request_id": current_request_id(),
        "profile_hz": PROFILER.hz,
    }


def begin_worker_capture(ctx: Dict[str, Any]) -> None:
    """Enter delta-capture mode inside a pool worker.

    Assigns the parent's switches (a warm worker was forked with whatever
    they were at spawn time, not what they are now), clears the inherited
    registries so subsequent observations form a clean delta, and suspends
    the exporter (the worker must not append to the parent's stream).
    Called at the top of every chunk — pool workers are reused across
    chunks, and each chunk returns only its own delta.
    """
    EXPORTER.suspend()
    TRACER.enabled = bool(ctx.get("trace"))
    RECORDER.enabled = bool(ctx.get("recorder"))
    PROFILER.set_hz(float(ctx.get("profile_hz") or 0.0))
    TRACER.reset()
    METRICS.reset()
    reset_histograms()
    RECORDER.reset()
    PROFILER.reset()
    set_request_id(ctx.get("request_id"))
    # Attribute the worker's samples to the dispatching request: the chunk
    # runs on this very thread, so scoping it here covers the whole chunk.
    if PROFILER.enabled:
        PROFILER.set_scope(ctx.get("request_id"), "verify.chunk")


def collect_worker_delta(label: str = "") -> Dict[str, Any]:
    """Freeze everything recorded since :func:`begin_worker_capture`.

    The returned dict is plain JSON-able data (safe to pickle back through
    the pool).  ``label`` defaults to ``pid-<os.getpid()>`` — the provenance
    tag that ends up on merged gauges and recorder events.
    """
    snap = METRICS.snapshot()
    delta: Dict[str, Any] = {
        "worker": label or f"pid-{os.getpid()}",
        "counters": snap["counters"],
        "gauges": snap["gauges"],
        "histograms": snapshot_histograms(),
        "events": RECORDER.snapshot(),
    }
    if PROFILER.enabled and PROFILER.samples:
        delta["profile"] = PROFILER.collect()
    return delta


def merge_worker_delta(delta: Dict[str, Any]) -> None:
    """Fold one worker delta into the parent-process registries.

    Counter totals are exact (sums of sums); histogram merges are exact
    (shared buckets, bucket-wise sum); gauges land as
    ``<name>.<worker-label>``; events interleave by timestamp with a
    ``src`` label.  The ``obs.merge.deltas``/``obs.merge.events`` counters
    account for the merge traffic itself (gated like every counter).
    """
    if not isinstance(delta, dict):  # defensive: a worker returned junk
        return
    source = str(delta.get("worker") or "worker")
    METRICS.merge(
        {"counters": delta.get("counters", {}),
         "gauges": delta.get("gauges", {})},
        source=source,
    )
    merge_histograms(delta.get("histograms", {}))
    RECORDER.merge(delta.get("events", []), source=source)
    PROFILER.merge(delta.get("profile"), source=source)
    count("obs.merge.deltas")
    count("obs.merge.events", len(delta.get("events", [])))
