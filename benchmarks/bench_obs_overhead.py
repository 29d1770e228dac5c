"""Observability default-posture overhead — the ``repro.obs`` acceptance benchmark.

Not a paper figure: this guards the observability layer's core promise that
its *default posture* — tracing off, latency histograms and flight recorder
on — stays invisible.  :mod:`repro.bench.obs_overhead` measures the per-call
cost of each primitive in a tight loop (``timed`` regions with tracing off,
counters disabled, histogram ``observe`` and recorder ``record`` enabled, as
they ship), counts how many obs calls a real fuzzed session fires, and
bounds the per-session overhead as ``volume × per-call cost`` against the
session wall time.  A region is priced once, at the ``timed`` cost, which
includes its histogram sample; only per-candidate samples pay ``observe``.

The assertion is ``overhead_bound_pct < 5`` — the tentpole acceptance
criterion — plus a sanity floor that every per-call cost stays in the
sub-microsecond regime.  The traced/untraced A/B is recorded for scale but
not asserted (tracing on is opt-in and allowed to cost more).

The same ceiling applies to the *export-on* posture
(``overhead_bound_export_pct``): with the continuous exporter streaming,
the session's actually-emitted events pay the JSONL-write price.  Only the
default-posture per-call costs face the 2 µs no-op ceiling — an emitting
``record`` does real I/O and is bounded through the session-level
percentage instead.

And the same ceiling applies to the *service* posture
(``overhead_bound_service_pct``): the request-scoped telemetry — recorder
calls priced inside an active request scope, plus one access-log event, two
SLO samples and one request-ring entry per HTTP request — must not push a
served session past 5 % either.  Scoped ``record`` and an SLO sample face
the no-op per-call ceiling; a request-ring insert (dict churn against a full
ring) gets a looser ceiling of its own.

Finally the *sampler-on* posture (``overhead_sampler_pct``): a direct
best-of-N A/B of the same session with the statistical profiler running at
its recommended 50 Hz versus off.  A background thread waking 50 times a
second has no per-call-site volume to price, so this one is measured
head-to-head and clamped at zero — and must also stay under the 5 % ceiling.
"""

import pytest

from repro.bench import emit, format_table
from repro.bench.obs_overhead import OVERHEAD_CEILING_PCT, run_obs_overhead

#: A default-posture obs call that costs ≥ 2 µs would no longer be "an
#: attribute load and a branch" (or, for a region, two clock reads and one
#: histogram sample) — catch gross regressions in the cheap path itself.
NOOP_CALL_CEILING_NS = 2000.0
#: A request-ring insert is not a no-op site: it pops and re-inserts an
#: ``OrderedDict`` entry under a lock, once per HTTP request.  It gets its
#: own ceiling; at one call per request its share of the bound is small.
REQUEST_LOG_CEILING_NS = 5000.0


@pytest.mark.benchmark(group="obs_overhead")
def test_obs_overhead(benchmark):
    data = run_obs_overhead()

    per_call = data["noop_per_call_ns"]
    volume = data["volume_per_session"]
    rows = [
        ["timed() region", f"{per_call['timed']:.0f} ns",
         str(volume["regions"])],
        ["count() disabled", f"{per_call['count']:.0f} ns",
         str(volume["counter_increments"])],
        ["observe() enabled", f"{per_call['observe']:.0f} ns",
         str(volume["candidate_samples"])],
        ["record() enabled", f"{per_call['record']:.0f} ns",
         str(volume["recorder_calls"])],
        ["record() exporting",
         f"{data['noop_per_call_export_ns']['record']:.0f} ns",
         str(data["volume_per_session"]["exported_events"])],
        ["record() in req scope",
         f"{data['noop_per_call_service_ns']['record_scoped']:.0f} ns",
         str(volume["recorder_calls"])],
        ["SLO sample",
         f"{data['noop_per_call_service_ns']['slo_record']:.0f} ns",
         str(2 * volume["service_requests"])],
        ["request-ring insert",
         f"{data['noop_per_call_service_ns']['request_log']:.0f} ns",
         str(volume["service_requests"])],
        ["bound per session",
         f"{1e6 * data['noop_per_session_s']:.1f} µs",
         f"{data['overhead_bound_pct']:.2f}% of "
         f"{1e3 * data['untraced_session_s']:.2f} ms"],
        ["bound, service posture",
         f"{1e6 * data['noop_per_session_service_s']:.1f} µs",
         f"{data['overhead_bound_service_pct']:.2f}% of "
         f"{1e3 * data['untraced_session_s']:.2f} ms"],
        ["bound, export on",
         f"{1e6 * data['noop_per_session_export_s']:.1f} µs",
         f"{data['overhead_bound_export_pct']:.2f}% of "
         f"{1e3 * data['untraced_session_s']:.2f} ms"],
        ["traced / untraced", f"{data['traced_over_untraced']:.2f}x", "-"],
        [f"sampler on ({data['sampler_hz']:.0f} Hz)",
         f"{1e3 * data['sampler_on_session_s']:.2f} ms",
         f"{data['overhead_sampler_pct']:.2f}% over "
         f"{1e3 * data['sampler_off_session_s']:.2f} ms "
         f"({data['sampler_samples']} samples)"],
    ]
    table = format_table(
        f"obs no-op overhead, fuzzed session of {data['actions']} actions",
        ["probe", "cost", "volume / share"],
        rows,
    )
    emit("obs_overhead", table, data)

    # Benchmarked op: one untraced session replay (the default-mode path).
    from repro.bench.obs_overhead import _replay
    from repro.oracle.corpus import corpus_for
    from repro.oracle.fuzzer import generate_trace

    trace = generate_trace(seed=data["seed"])
    corpus = corpus_for(trace.spec)
    benchmark(lambda: _replay(trace, corpus))

    assert data["overhead_bound_pct"] < OVERHEAD_CEILING_PCT
    assert data["overhead_bound_service_pct"] < OVERHEAD_CEILING_PCT
    assert data["overhead_bound_export_pct"] < OVERHEAD_CEILING_PCT
    assert data["overhead_sampler_pct"] < OVERHEAD_CEILING_PCT
    for name, cost_ns in per_call.items():
        assert cost_ns < NOOP_CALL_CEILING_NS, (name, cost_ns)
    service_ns = data["noop_per_call_service_ns"]
    assert service_ns["record_scoped"] < NOOP_CALL_CEILING_NS, service_ns
    assert service_ns["slo_record"] < NOOP_CALL_CEILING_NS, service_ns
    assert service_ns["request_log"] < REQUEST_LOG_CEILING_NS, service_ns
