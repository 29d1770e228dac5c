"""Global configuration knobs and experiment-scale handling.

The paper evaluates on 40 000 real graphs and 10K–80K synthetic graphs on a
C++/Java stack.  The benches here default to laptop-sized datasets; the
``REPRO_SCALE`` environment variable scales them (1.0 ≈ defaults documented in
EXPERIMENTS.md, larger values approach paper scale).
"""

from __future__ import annotations

import os
from dataclasses import dataclass


def experiment_scale() -> float:
    """Multiplier applied to dataset sizes in the benchmark harness."""
    try:
        value = float(os.environ.get("REPRO_SCALE", "1.0"))
    except ValueError:
        return 1.0
    return max(value, 0.01)


# ----------------------------------------------------------------------
# hot-path performance knobs (see docs/PERFORMANCE.md)
# ----------------------------------------------------------------------
def verification_workers() -> int:
    """Worker-pool size for batch verification (``REPRO_WORKERS``).

    ``1`` selects the serial path (deterministic, no pool — what the tests
    pin); the default is one worker per CPU.
    """
    try:
        value = int(os.environ.get("REPRO_WORKERS", "0"))
    except ValueError:
        value = 0
    if value >= 1:
        return value
    return os.cpu_count() or 1


def pool_min_candidates() -> int:
    """Candidate count below which batch verification stays serial
    (``REPRO_POOL_MIN_CANDIDATES``, default 64).

    Chunking + IPC cost a few milliseconds per *Run*; below this many
    candidates a pool cannot win them back, so the batch APIs run the
    in-process path directly.  Floor of 1 (``0`` would pool empty batches).
    """
    try:
        value = int(os.environ.get("REPRO_POOL_MIN_CANDIDATES", "64"))
    except ValueError:
        value = 64
    return max(value, 1)


def pool_idle_ttl() -> float:
    """Seconds an idle warm pool survives before the next dispatch respawns
    it (``REPRO_POOL_TTL``, default 300, ``0`` disables expiry)."""
    try:
        value = float(os.environ.get("REPRO_POOL_TTL", "300"))
    except ValueError:
        value = 300.0
    return max(value, 0.0)


def canonical_cache_size() -> int:
    """Bound on the process-wide canonical-code LRU (``REPRO_CANONICAL_CACHE``)."""
    try:
        value = int(os.environ.get("REPRO_CANONICAL_CACHE", "8192"))
    except ValueError:
        value = 8192
    return max(value, 0)


def trace_enabled() -> bool:
    """Whether the observability layer records spans and metrics.

    ``REPRO_TRACE=1`` turns tracing on; the default (``0``/unset) is the
    no-op mode, whose per-call overhead is bounded by
    ``benchmarks/bench_obs_overhead.py``.  The engine re-reads this knob at
    every GUI action (see :data:`repro.obs.TRACER`), so flipping the variable
    mid-process takes effect at the next action.
    """
    return os.environ.get("REPRO_TRACE", "0") not in ("0", "false", "no", "")


def recorder_enabled() -> bool:
    """Whether the flight recorder keeps its event ring (``REPRO_RECORDER``).

    **On by default** — unlike tracing, the recorder exists for failures
    nobody planned to reproduce (oracle divergences, pool fallbacks), so it
    must already be running when they happen.  ``REPRO_RECORDER=0`` disables
    it; the per-event cost is bounded by
    ``benchmarks/bench_obs_overhead.py``.  Like ``REPRO_TRACE``, the knob is
    re-read at every GUI action.
    """
    return os.environ.get("REPRO_RECORDER", "1") not in ("0", "false", "no")


def recorder_size() -> int:
    """Flight-recorder ring capacity in events (``REPRO_RECORDER_SIZE``).

    The ring keeps the *last* N events; older ones are dropped (the drop
    count is reported in every post-mortem bundle).  Floor of 16 so a bundle
    always has enough context to read.
    """
    try:
        value = int(os.environ.get("REPRO_RECORDER_SIZE", "512"))
    except ValueError:
        value = 512
    return max(value, 16)


def obs_export_dir():
    """Directory for continuous telemetry export (``REPRO_OBS_EXPORT``).

    When set, the observability layer *streams*: every flight-recorder event
    is appended to ``events.jsonl`` as it happens, and the full metrics
    snapshot (counters, gauges, latency histograms) is periodically rewritten
    as ``metrics.prom`` (Prometheus text format) plus ``snapshot.json``
    (schema-v2 envelope) — the files ``python -m repro top`` tails.  Unset
    (the default) means nothing is written; returns ``None`` then.
    """
    value = os.environ.get("REPRO_OBS_EXPORT", "").strip()
    return value or None


def obs_export_interval() -> float:
    """Minimum seconds between metrics-file rewrites
    (``REPRO_OBS_EXPORT_INTERVAL``, default 1.0, floor 0).

    ``0`` rewrites at every opportunity (each completed engine action) —
    what tests use; the JSONL event stream is unaffected by this knob.
    """
    try:
        value = float(os.environ.get("REPRO_OBS_EXPORT_INTERVAL", "1.0"))
    except ValueError:
        value = 1.0
    return max(value, 0.0)


# ----------------------------------------------------------------------
# session-service knobs (see docs/CONFIGURATION.md)
# ----------------------------------------------------------------------
def service_port() -> int:
    """TCP port ``python -m repro serve`` binds (``REPRO_SERVICE_PORT``,
    default 8765; ``0`` asks the OS for an ephemeral port)."""
    try:
        value = int(os.environ.get("REPRO_SERVICE_PORT", "8765"))
    except ValueError:
        value = 8765
    return value if 0 <= value <= 65535 else 8765


def service_max_sessions() -> int:
    """Admission gate: concurrent formulation sessions one server holds
    (``REPRO_SERVICE_MAX_SESSIONS``, default 64, floor 1).

    A create request beyond the cap is rejected with HTTP 503 rather than
    queued — per-session engines hold SPIG/candidate state, so admission is
    the memory backpressure valve.
    """
    try:
        value = int(os.environ.get("REPRO_SERVICE_MAX_SESSIONS", "64"))
    except ValueError:
        value = 64
    return max(value, 1)


def service_session_ttl() -> float:
    """Idle seconds before a session is evicted (``REPRO_SERVICE_TTL``,
    default 1800, ``0`` disables eviction).

    The clock rearms on every action; eviction is lazy (checked on the next
    store access), so an idle server holds no timers.
    """
    try:
        value = float(os.environ.get("REPRO_SERVICE_TTL", "1800"))
    except ValueError:
        value = 1800.0
    return max(value, 0.0)


def slo_window() -> float:
    """Rolling window in seconds over which SLO attainment is computed
    (``REPRO_SLO_WINDOW``, default 3600, floor 1).

    Samples older than the window fall out of both the attainment fraction
    and the burn rate, so the objectives in ``/obs`` describe the last hour
    of traffic by default rather than process lifetime.
    """
    try:
        value = float(os.environ.get("REPRO_SLO_WINDOW", "3600"))
    except ValueError:
        value = 3600.0
    return max(value, 1.0)


def slo_action_threshold() -> float:
    """Per-action latency objective in seconds (``REPRO_SLO_ACTION_SECONDS``,
    default 2.0 — the paper's GUI-latency window).

    A session action counts as *good* for the ``action_latency`` objective
    iff it completes within this many seconds; PRAGUE's whole premise is
    that query processing hides inside the user's drawing latency, so the
    default is :data:`DEFAULT_EDGE_LATENCY_SECONDS`.
    """
    try:
        value = float(os.environ.get("REPRO_SLO_ACTION_SECONDS", "2.0"))
    except ValueError:
        value = 2.0
    return max(value, 0.0)


def slo_request_log_size() -> int:
    """Completed-request ring capacity behind ``/obs`` slowest/recent request
    surfacing and ``/v1/requests/<id>`` lookups (``REPRO_SLO_REQUEST_LOG``,
    default 256, floor 16)."""
    try:
        value = int(os.environ.get("REPRO_SLO_REQUEST_LOG", "256"))
    except ValueError:
        value = 256
    return max(value, 16)


def postmortem_dir():
    """Directory for automatic post-mortem bundles (``REPRO_POSTMORTEM_DIR``).

    When set, a verification-pool fallback writes a flight-recorder bundle
    here (renderable with ``python -m repro postmortem``).  Unset (the
    default) means no files are written implicitly; returns ``None`` then.
    """
    value = os.environ.get("REPRO_POSTMORTEM_DIR", "").strip()
    return value or None


# ----------------------------------------------------------------------
# continuous-profiling knobs (see docs/CONFIGURATION.md)
# ----------------------------------------------------------------------
def profile_hz() -> float:
    """Statistical-sampler frequency in Hz (``REPRO_PROFILE_HZ``).

    ``0`` (the default) keeps the sampler off: no thread is spawned and the
    per-action cost is one attribute check.  When positive, a daemon thread
    polls ``sys._current_frames()`` at this rate and folds every thread's
    stack into the collapsed-stack profile (:mod:`repro.obs.profiler`).
    ~50 Hz is the recommended always-on rate; the sampler-on overhead at
    50 Hz is bounded by ``benchmarks/bench_obs_overhead.py``.  Like
    ``REPRO_TRACE``, the knob is re-read at every engine action.  Capped at
    1000 Hz — beyond that the sampling loop itself distorts the profile.
    """
    try:
        value = float(os.environ.get("REPRO_PROFILE_HZ", "0"))
    except ValueError:
        value = 0.0
    return min(max(value, 0.0), 1000.0)


def profile_mem_topn() -> int:
    """``tracemalloc`` top-N allocation sites per bracket
    (``REPRO_PROFILE_MEM``, default 0 = off).

    When positive, engine actions are bracketed with tracemalloc snapshots
    and the top-N allocating source lines (by size delta) are attached to the
    profile's memory tier.  Starting tracemalloc roughly doubles allocation
    cost process-wide, so this is a diagnostic knob, not an always-on one.
    """
    try:
        value = int(os.environ.get("REPRO_PROFILE_MEM", "0"))
    except ValueError:
        value = 0
    return max(value, 0)


def profile_depth() -> int:
    """Maximum folded-stack depth per sample (``REPRO_PROFILE_DEPTH``,
    default 64, floor 4).

    Frames deeper than this are dropped from the *root* end of the stack —
    the leaf (hot) frames always survive — which bounds both sampling cost
    and collapsed-stack key length on pathologically deep recursion.
    """
    try:
        value = int(os.environ.get("REPRO_PROFILE_DEPTH", "64"))
    except ValueError:
        value = 64
    return max(value, 4)


@dataclass(frozen=True)
class MiningParams:
    """Parameters of the offline mining/indexing phase (Sections III, VIII).

    Attributes
    ----------
    min_support:
        The paper's ``α`` — a fragment is frequent iff ``sup(g) ≥ α·|D|``
        (0 < α < 1).
    size_threshold:
        The paper's ``β`` — frequent fragments of size ≤ β live in the
        memory-resident MF-index, larger ones in DF-index clusters.
    max_fragment_edges:
        Upper bound on mined fragment size; defaults to the paper's maximum
        visual query size (10 edges), so every frequent query fragment is
        indexed.
    """

    min_support: float = 0.1
    size_threshold: int = 4
    max_fragment_edges: int = 10

    def absolute_support(self, db_size: int) -> int:
        """``⌈α·|D|⌉`` with a floor of 1."""
        if not 0.0 < self.min_support < 1.0:
            raise ValueError("alpha must satisfy 0 < alpha < 1 (Section III)")
        import math

        return max(1, math.ceil(self.min_support * db_size))


DEFAULT_SUBGRAPH_DISTANCE = 3
"""The paper's default ``σ`` in Section VIII experiments."""

DEFAULT_EDGE_LATENCY_SECONDS = 2.0
"""Lower bound on per-edge drawing latency the paper reports (Section VIII-B)."""
