"""Global configuration knobs and experiment-scale handling.

The paper evaluates on 40 000 real graphs and 10K–80K synthetic graphs on a
C++/Java stack.  The benches here default to laptop-sized datasets; the
``REPRO_SCALE`` environment variable scales them (1.0 ≈ defaults documented in
EXPERIMENTS.md, larger values approach paper scale).

This module is the one reader of the ``REPRO_*`` environment (ten knobs, see
``docs/CONFIGURATION.md``).  The hot-path knobs (``REPRO_WORKERS``,
``REPRO_POOL_MIN_CANDIDATES``, ``REPRO_CANONICAL_CACHE``) and ``REPRO_SCALE``
are read per call, because the differential oracle varies them inside one
process.  The observability switches are read once, when their process-wide
singleton is built; everything else is a constant of the module that uses it.
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
    ``benchmarks/bench_obs_overhead.py``.  Read once, when
    :data:`repro.obs.TRACER` is built; :func:`repro.obs.trace` switches
    tracing on for a block.
    """
    return os.environ.get("REPRO_TRACE", "0") not in ("0", "false", "no", "")


def recorder_enabled() -> bool:
    """Whether the flight recorder keeps its event ring (``REPRO_RECORDER``).

    **On by default** — unlike tracing, the recorder exists for failures
    nobody planned to reproduce (oracle divergences, pool fallbacks), so it
    must already be running when they happen.  ``REPRO_RECORDER=0`` disables
    it; the per-event cost is bounded by
    ``benchmarks/bench_obs_overhead.py``.  Read once, when
    :data:`repro.obs.RECORDER` is built.
    """
    return os.environ.get("REPRO_RECORDER", "1") not in ("0", "false", "no")


def obs_export_dir():
    """Directory for continuous telemetry export (``REPRO_OBS_EXPORT``).

    When set, the observability layer *streams*: every flight-recorder event
    is appended to ``events.jsonl`` as it happens, and the full metrics
    snapshot (counters, gauges, latency histograms) is periodically rewritten
    as ``metrics.prom`` (Prometheus text format) plus ``snapshot.json``
    (schema-v2 envelope) — the files ``python -m repro top`` tails.  Unset
    (the default) means nothing is written; returns ``None`` then.  Read
    once, when :data:`repro.obs.EXPORTER` is built.
    """
    value = os.environ.get("REPRO_OBS_EXPORT", "").strip()
    return value or None


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
    50 Hz is bounded by ``benchmarks/bench_obs_overhead.py``.  Read once,
    when :data:`repro.obs.PROFILER` is built.  Capped at 1000 Hz — beyond
    that the sampling loop itself distorts the profile.
    """
    try:
        value = float(os.environ.get("REPRO_PROFILE_HZ", "0"))
    except ValueError:
        value = 0.0
    return min(max(value, 0.0), 1000.0)


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
