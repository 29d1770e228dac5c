"""The perf-regression ledger — a bounded suite with a machine-normalized trajectory.

The full benchmark suite under ``benchmarks/`` reproduces the paper's
figures; it is far too slow to run on every change.  This module is the
*regression tripwire* that is cheap enough for CI: a bounded subset of the
perf-critical paths (micro hot paths at smoke scale, the observability
probe loops, one fuzzed-session replay with its SRT fold), normalized by a
machine-speed calibration so records taken on different hardware stay
comparable, appended to ``benchmarks/results/trajectory.json`` — one record
per checkpoint, oldest first, so the file reads as the repository's
performance history.

``python -m repro perf`` appends a record; ``python -m repro perf --check``
compares a fresh run against the last checked-in record and exits non-zero
when any metric regressed by more than :data:`REGRESSION_THRESHOLD_PCT`
(the CI gate).  Normalization: every raw wall time is divided by
:func:`calibrate`'s spin-loop time, so a metric's normalized value is
"multiples of this machine's unit of pure-Python work" — slow hardware
inflates numerator and denominator together.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.export import envelope, open_envelope

#: A candidate metric more than this many percent above baseline fails
#: ``--check``.
REGRESSION_THRESHOLD_PCT = 20.0

#: Metrics below this raw wall time are too noise-dominated to gate on;
#: they are recorded but never flagged as regressions.
_NOISE_FLOOR_S = 1e-3

#: Spin-loop iterations for one calibration pass (~a few ms of arithmetic).
_CALIBRATION_LOOP = 200_000


def calibrate(repeats: int = 5) -> float:
    """Seconds for one fixed pure-Python spin loop (best of ``repeats``).

    The workload is arithmetic + attribute-free loop overhead — the same mix
    the suite's hot paths are made of — so dividing a measurement by this
    number cancels most of the machine-speed difference between records.
    """
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        acc = 0
        for i in range(_CALIBRATION_LOOP):
            acc += (i * i) & 0xFFFF
        best = min(best, time.perf_counter() - start)
    return best


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def run_perf_suite(seed: int = 2012) -> Dict[str, float]:
    """Raw wall-time metrics (seconds) of the bounded regression suite.

    Three groups, each an already-guarded perf surface:

    * ``micro.*`` — the smoke-scale hot-path benchmarks (memoized canonical
      codes, compiled containment scan, bitset intersection);
    * ``obs.probe_loop_s`` — the combined per-call probe loops of the
      observability primitives a site calls (a ``timed`` region with
      tracing off, a disabled count, enabled histogram/recorder),
      i.e. the cost bounded by ``bench_obs_overhead``;
    * ``pool.warm_dispatch_s`` — one smoke-scale warm-pool dispatch over
      the same corpus (the cost measured by ``bench_pool_warmup``);
    * ``index.build_cold_s`` — one cold mine of the same 60-graph corpus
      at sweep parameters (the cost swept at 10–100x scale by
      ``bench_build_scaling``);
    * ``session.*`` — one fuzzed formulation session replayed end to end
      under the default posture, plus its SRT fold (the Figure 9 smoke);
    * ``service.*`` — 25 concurrent scripted users against an in-process
      ``repro serve`` stack: p99 client-observed action latency, the
      99th-percentile SRT-under-load (the cost bounded by
      ``bench_service_load``), and the run's action-latency SLO attainment
      (dimensionless, tracked but never normalized).
    """
    from repro.bench.micro import run_micro_hotpaths
    from repro.bench.pool_warmup import run_pool_warmup
    from repro.bench.obs_overhead import NOOP_LOOP, _noop_costs, _replay
    from repro.datasets.aids import generate_aids_like
    from repro.graph import canonical
    from repro.obs.srt import build_ledger
    from repro.oracle.corpus import corpus_for
    from repro.oracle.fuzzer import generate_trace

    metrics: Dict[str, float] = {}

    db = generate_aids_like(60, seed=seed)
    micro = run_micro_hotpaths(db, smoke=True, seed=seed)
    metrics["micro.canonical_cached_s"] = float(micro["canonical"]["cached_s"])
    metrics["micro.scan_compiled_s"] = float(micro["scan"]["compiled_s"])
    metrics["micro.intersection_bitset_s"] = float(
        micro["intersection"]["bitset_s"]
    )

    probe_loop = NOOP_LOOP // 10  # reduced: this is a tripwire, not the bench
    costs = _noop_costs(loop=probe_loop)
    metrics["obs.probe_loop_s"] = probe_loop * sum(costs.values())

    warmup = run_pool_warmup(db, smoke=True, seed=seed)
    metrics["pool.warm_dispatch_s"] = float(warmup["warm_s"])

    trace = generate_trace(seed=seed)
    corpus = corpus_for(trace.spec)
    _replay(trace, corpus)  # warm corpus-level caches once
    canonical.clear_cache()
    metrics["session.replay_s"] = _best_of(
        lambda: _replay(trace, corpus), 3
    )

    from repro.core.prague import PragueEngine
    from repro.exceptions import ReproError
    from repro.obs.srt import events_from_reports
    from repro.oracle.trace import apply_action

    engine = PragueEngine(corpus.db, corpus.indexes, sigma=trace.sigma)
    for action in trace.actions:
        apply_action(engine, action)
    run_seconds = 0.0
    if engine.query.num_edges:
        try:
            run_seconds = engine.run().processing_seconds
        except ReproError:
            pass  # e.g. a pending option dialogue: SRT still folds the steps
    ledger = build_ledger(
        events_from_reports(engine.history, latency=2.0), run_seconds
    )
    metrics["session.srt_s"] = ledger.srt_seconds

    from repro.bench.service_load import run_service_load

    load = run_service_load(num_sessions=25, smoke=True, seed=seed)
    metrics["service.p99_action_s"] = float(load["p99_action_s"])
    metrics["service.srt_under_load_s"] = float(load["srt_under_load_s"])
    # Dimensionless (a fraction, not a wall time): recorded in the
    # trajectory but excluded from normalization by make_record, so a
    # calibration shift can never flag attainment as a "regression".
    metrics["service.slo_attainment"] = float(load["slo_attainment"])

    # Last on purpose: a cold build churns allocator/GC state enough to
    # skew the latency-sensitive measurements if it ran before them.
    from repro.bench.build_scaling import measure_build_point
    from repro.bench.harness import BUILD_SCALING_PARAMS

    build = measure_build_point(db, BUILD_SCALING_PARAMS)
    metrics["index.build_cold_s"] = float(build["cold_s"])
    return metrics


def make_record(
    metrics: Dict[str, float],
    calibration_s: float,
    label: str = "checkpoint",
) -> Dict[str, Any]:
    """One trajectory record: raw metrics + their machine-normalized form.

    Only wall-time metrics (``*_s`` by convention) are normalized —
    dividing a dimensionless metric like ``service.slo_attainment`` by the
    machine calibration would make a *faster machine* look like a value
    change.  Raw values of every metric are kept either way;
    ``compare_records`` only gates on names present in both records'
    ``normalized`` maps, so un-normalized metrics are trajectory data, not
    regression gates.
    """
    return {
        "label": label,
        "calibration_s": calibration_s,
        "metrics": dict(metrics),
        "normalized": {
            name: (value / calibration_s if calibration_s else 0.0)
            for name, value in metrics.items()
            if name.endswith("_s")
        },
    }


def compare_records(
    baseline: Dict[str, Any],
    candidate: Dict[str, Any],
    threshold_pct: float = REGRESSION_THRESHOLD_PCT,
) -> List[Dict[str, Any]]:
    """Per-metric comparison of two records' *normalized* values.

    Returns one row per metric present in both records, flagged as a
    regression when the candidate is more than ``threshold_pct`` percent
    above the baseline — unless the metric's raw time sits under the noise
    floor on both sides, where a ratio gate would only measure jitter.
    """
    rows: List[Dict[str, Any]] = []
    base_norm = baseline.get("normalized", {})
    cand_norm = candidate.get("normalized", {})
    for name in sorted(set(base_norm) & set(cand_norm)):
        base = base_norm[name]
        cand = cand_norm[name]
        change_pct = 100.0 * (cand - base) / base if base else 0.0
        noisy = (
            baseline.get("metrics", {}).get(name, 0.0) < _NOISE_FLOOR_S
            and candidate.get("metrics", {}).get(name, 0.0) < _NOISE_FLOOR_S
        )
        rows.append({
            "metric": name,
            "baseline": base,
            "candidate": cand,
            "change_pct": change_pct,
            "regression": (not noisy) and change_pct > threshold_pct,
        })
    return rows


# ----------------------------------------------------------------------
# trajectory profiles: attribution for --explain
# ----------------------------------------------------------------------
#: Collapsed stacks kept per trajectory profile — enough for attribution
#: without bloating the checked-in trajectory file.
_PROFILE_MAX_STACKS = 200


def sample_replays(
    trace, hz: float, min_seconds: float, mem: int = 0,
) -> Tuple[Dict[str, Any], Dict[str, int], int, float]:
    """Replay ``trace`` (fresh engine per pass) under the sampler until
    ``min_seconds`` of wall time or 1,000 replays, with the ``tracemalloc``
    tier at top-``mem``; returns ``(collect() payload, folded stacks,
    replays, wall_s)`` and leaves the profiler empty."""
    from repro.core.prague import PragueEngine
    from repro.obs.profiler import PROFILER
    from repro.oracle.corpus import corpus_for
    from repro.oracle.trace import apply_action

    corpus = corpus_for(trace.spec)
    saved_hz, saved_mem = PROFILER.hz, PROFILER.mem_topn
    PROFILER.reset()
    PROFILER.set_hz(hz)
    PROFILER.mem_topn = max(int(mem), 0)
    start = time.perf_counter()
    replays = 0
    try:
        while True:
            engine = PragueEngine(
                corpus.db, corpus.indexes, sigma=trace.sigma
            )
            for action in trace.actions:
                apply_action(engine, action)
            replays += 1
            wall_s = time.perf_counter() - start
            if wall_s >= min_seconds or replays >= 1000:
                break
    finally:
        PROFILER.set_hz(saved_hz)
        PROFILER.mem_topn = saved_mem
    profile, stacks = PROFILER.collect(), PROFILER.stacks()
    PROFILER.reset()
    return profile, stacks, replays, wall_s


def collect_profile(
    seed: int = 2012,
    hz: float = 200.0,
    min_seconds: float = 0.5,
) -> Dict[str, Any]:
    """A compact sampled profile of the suite's session replay.

    The busiest :data:`_PROFILE_MAX_STACKS` stacks of
    :func:`sample_replays` over the fuzzed session ``run_perf_suite``
    times.  Attached to trajectory records so ``python -m repro perf
    --explain A B`` can name the frames behind a regression — ``wall_s``
    scales sample shares back into approximate self-seconds.
    """
    from repro.oracle.fuzzer import generate_trace

    _profile, stacks, replays, wall_s = sample_replays(
        generate_trace(seed=seed), hz, min_seconds
    )
    busiest = dict(sorted(
        stacks.items(), key=lambda kv: (-kv[1], kv[0])
    )[:_PROFILE_MAX_STACKS])
    return {
        "hz": hz,
        "seed": seed,
        "wall_s": wall_s,
        "replays": replays,
        "samples": sum(stacks.values()),
        "stacks": busiest,
    }


def _self_seconds(profile: Dict[str, Any]) -> Dict[str, float]:
    """Approximate per-frame self time: wall time × leaf-sample share."""
    stacks = profile.get("stacks", {}) or {}
    total = sum(stacks.values())
    wall_s = float(profile.get("wall_s", 0.0))
    out: Dict[str, float] = {}
    if not total:
        return out
    for folded, samples in stacks.items():
        leaf = folded.rsplit(";", 1)[-1]
        out[leaf] = out.get(leaf, 0.0) + wall_s * samples / total
    return out


def explain_profiles(
    profile_a: Dict[str, Any],
    profile_b: Dict[str, Any],
    top: int = 12,
) -> List[Dict[str, Any]]:
    """Frame-level attribution of a perf delta between two profiles (A → B).

    Returns the ``top`` frames by absolute self-time change, biggest
    slowdown first — the answer to "*which code* got slower between these
    two trajectory entries".  Frames absent from one side read as zero and
    carry ``in_a``/``in_b`` flags (new/gone code paths).
    """
    self_a = _self_seconds(profile_a)
    self_b = _self_seconds(profile_b)
    rows: List[Dict[str, Any]] = []
    for frame in set(self_a) | set(self_b):
        a_s = self_a.get(frame, 0.0)
        b_s = self_b.get(frame, 0.0)
        rows.append({
            "frame": frame,
            "self_a_s": a_s,
            "self_b_s": b_s,
            "delta_s": b_s - a_s,
            "in_a": frame in self_a,
            "in_b": frame in self_b,
        })
    rows.sort(key=lambda r: (-r["delta_s"], r["frame"]))
    return rows[:max(int(top), 0)]


# ----------------------------------------------------------------------
# the trajectory file
# ----------------------------------------------------------------------
def trajectory_path() -> Path:
    from repro.bench.harness import results_dir

    return results_dir() / "trajectory.json"


def load_trajectory(path: Path) -> List[Dict[str, Any]]:
    """The records of a trajectory file, oldest first (empty if absent)."""
    path = Path(path)
    if not path.exists():
        return []
    data = open_envelope(json.loads(path.read_text()), expect_kind="trajectory")
    records = data.get("records", [])
    if not isinstance(records, list):
        raise ValueError(f"{path}: trajectory records must be a list")
    return records


def save_trajectory(path: Path, records: List[Dict[str, Any]]) -> None:
    """Write the records back as a schema-versioned trajectory artifact."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = envelope("trajectory", {"records": records})
    path.write_text(json.dumps(payload, indent=2) + "\n")


def append_record(path: Path, record: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Append ``record`` to the trajectory at ``path``; returns all records."""
    records = load_trajectory(path)
    records.append(record)
    save_trajectory(path, records)
    return records
