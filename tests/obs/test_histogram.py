"""Latency histograms: percentiles pinned against a brute-force reference.

The histogram's contract is *certified upper bounds*: ``percentile(p)`` must
land in the same log-scale bucket as the true nearest-rank order statistic
of everything recorded, and never exceed the observed maximum.  These tests
replay random samples through both the histogram and a plain sorted list and
check the containment property sample set by sample set.
"""

import random

import pytest

from repro.obs.histogram import (
    HISTOGRAMS,
    Histogram,
    bucket_index,
    histogram_summaries,
    observe,
    reset_histograms,
    total_observations,
)


def _reference_percentile(values, p):
    """Brute-force nearest-rank order statistic: ceil(p/100 * n)-th value."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def _random_samples(rng, n):
    """Latencies spanning the whole scale: sub-µs spikes to multi-second."""
    return [rng.choice([1e-8, 1e-6, 1e-4, 1e-2, 1.0]) * rng.uniform(0.1, 10)
            for _ in range(n)]


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("p", [50, 90, 99, 100])
def test_percentile_brackets_the_true_order_statistic(seed, p):
    rng = random.Random(seed)
    values = _random_samples(rng, rng.randrange(1, 200))
    h = Histogram("prop")
    for v in values:
        h.record(v)
    truth = _reference_percentile(values, p)
    estimate = h.percentile(p)
    # Same log bucket as the truth, and never above the observed max.
    assert bucket_index(estimate) <= bucket_index(truth) + 1
    assert estimate >= min(truth, max(values) if p == 100 else estimate)
    assert estimate <= h.max
    assert truth <= h.max


@pytest.mark.parametrize("seed", range(8))
def test_percentiles_are_monotonic_in_p(seed):
    rng = random.Random(100 + seed)
    h = Histogram("mono")
    for v in _random_samples(rng, 150):
        h.record(v)
    points = [h.percentile(p) for p in (1, 10, 25, 50, 75, 90, 99, 100)]
    assert points == sorted(points)


def test_scalar_accumulators_match_reference():
    values = [0.003, 0.0001, 2.5, 0.003, 0.9]
    h = Histogram("scalars")
    for v in values:
        h.record(v)
    s = h.summary()
    assert s["count"] == len(values)
    assert s["sum_s"] == pytest.approx(sum(values))
    assert s["min_s"] == min(values)
    assert s["max_s"] == max(values)
    assert set(s) >= {"p50_s", "p90_s", "p99_s"}


def test_negative_observations_clamp_to_zero():
    h = Histogram("clamp")
    h.record(-1.0)
    assert h.min == 0.0
    assert h.percentile(50) == 0.0


def test_empty_and_bad_percentiles():
    h = Histogram("empty")
    assert h.percentile(99) == 0.0
    with pytest.raises(ValueError):
        h.percentile(0)
    with pytest.raises(ValueError):
        h.percentile(101)


def test_registry_observe_and_reset():
    reset_histograms()
    try:
        observe("site.a", 0.001)
        observe("site.a", 0.002)
        observe("site.b", 0.5)
        assert total_observations() == 3
        summaries = histogram_summaries()
        assert list(summaries) == ["site.a", "site.b"]
        assert summaries["site.a"]["count"] == 2
    finally:
        reset_histograms()
    assert total_observations() == 0
    assert HISTOGRAMS == {}


def test_histograms_record_with_tracing_off(monkeypatch):
    """The always-on contract: tracing off must not silence histograms."""
    from repro import obs
    from repro.oracle.fuzzer import generate_trace
    from repro.oracle.replay import REFERENCE_CONFIG, replay_trace

    monkeypatch.setattr(obs.TRACER, "enabled", False)
    reset_histograms()
    try:
        replay_trace(generate_trace(seed=5), REFERENCE_CONFIG)
        assert total_observations() > 0
        assert any(name.startswith("action.") for name in HISTOGRAMS)
    finally:
        reset_histograms()
