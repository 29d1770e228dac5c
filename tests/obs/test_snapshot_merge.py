"""The mergeable-snapshot protocol: cross-process merges lose nothing.

Every obs registry that travels back from a verification worker —
histograms, counters, gauges, the flight-recorder ring — must merge into
the parent *exactly*: a merged histogram is indistinguishable from one that
observed the concatenated sample stream (same buckets ⇒ bucket-wise sum ⇒
same exact-rank percentiles), counters are sums of sums, gauges carry their
worker's provenance label, and recorder events interleave by timestamp.
"""

import random

import pytest

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - CI always has hypothesis
    HAVE_HYPOTHESIS = False

from repro.obs.histogram import (
    HISTOGRAMS,
    Histogram,
    merge_histograms,
    reset_histograms,
    snapshot_histograms,
)
from repro.obs.metrics import Metrics
from repro.obs.recorder import FlightRecorder

#: Sample space spanning the histogram's six decades (100 ns .. ~200 s).
_samples = None
if HAVE_HYPOTHESIS:
    _samples = st.lists(
        st.floats(min_value=0.0, max_value=250.0,
                  allow_nan=False, allow_infinity=False),
        max_size=60,
    )


def _observe_all(name, values):
    h = Histogram(name)
    for v in values:
        h.record(v)
    return h


class TestHistogramMergeIsExact:
    @pytest.mark.skipif(not HAVE_HYPOTHESIS, reason="hypothesis unavailable")
    @settings(max_examples=60, deadline=None)
    @given(left=_samples, right=_samples)
    def test_merge_equals_observing_the_concatenation(self, left, right):
        """merge(snapshot(B)) into A ≡ one histogram that saw A's and B's
        samples — identical count/sum/min/max/buckets, hence identical
        exact-rank percentiles.  This is the property the cross-process
        worker merge rests on."""
        a = _observe_all("a", left)
        b = _observe_all("b", right)
        a.merge_snapshot(b.snapshot())

        ref = _observe_all("ref", left + right)
        assert a.count == ref.count
        assert a.sum == pytest.approx(ref.sum)
        assert a.max == ref.max
        if ref.count:
            assert a.min == ref.min
        assert a.snapshot()["buckets"] == ref.snapshot()["buckets"]
        for p in (50, 90, 99):
            if ref.count:
                assert a.percentile(p) == ref.percentile(p)

    def test_merge_is_order_independent(self):
        rng = random.Random(7)
        streams = [[rng.uniform(0, 2) for _ in range(20)] for _ in range(3)]
        forward = Histogram("f")
        backward = Histogram("b")
        for s in streams:
            forward.merge_snapshot(_observe_all("x", s).snapshot())
        for s in reversed(streams):
            backward.merge_snapshot(_observe_all("x", s).snapshot())
        assert forward.snapshot() == backward.snapshot()

    def test_empty_snapshot_is_a_no_op(self):
        h = _observe_all("h", [0.001, 0.002])
        before = h.snapshot()
        h.merge_snapshot(Histogram("empty").snapshot())
        assert h.snapshot() == before

    def test_registry_merge_creates_missing_sites(self):
        reset_histograms()
        try:
            worker = _observe_all("verify.candidate", [0.01, 0.02, 0.5])
            merge_histograms({"verify.candidate": worker.snapshot()})
            assert HISTOGRAMS["verify.candidate"].count == 3
            # a second worker's delta folds into the now-existing site
            merge_histograms({"verify.candidate": worker.snapshot()})
            assert HISTOGRAMS["verify.candidate"].count == 6
        finally:
            reset_histograms()

    def test_snapshot_histograms_skips_empty_sites(self):
        reset_histograms()
        try:
            Histogram("never.recorded")  # not registered, and empty anyway
            HISTOGRAMS["empty.site"] = Histogram("empty.site")
            HISTOGRAMS["busy.site"] = _observe_all("busy.site", [0.1])
            snaps = snapshot_histograms()
            assert list(snaps) == ["busy.site"]
        finally:
            reset_histograms()


class TestMetricsMerge:
    def test_counters_sum_exactly(self):
        parent, w1, w2 = Metrics(), Metrics(), Metrics()
        parent.inc("verify.tested", 10)
        w1.inc("verify.tested", 7)
        w2.inc("verify.tested", 5)
        w2.inc("verify.pool.chunks", 2)
        parent.merge(w1.snapshot(), source="w1")
        parent.merge(w2.snapshot(), source="w2")
        assert parent.counter("verify.tested") == 22
        assert parent.counter("verify.pool.chunks") == 2

    def test_gauges_namespaced_by_source_never_overwrite(self):
        parent, worker = Metrics(), Metrics()
        parent.set_gauge("rq.size", 100)
        worker.set_gauge("rq.size", 3)
        parent.merge(worker.snapshot(), source="pid-42")
        gauges = parent.snapshot()["gauges"]
        assert gauges["rq.size"] == 100  # parent's value untouched
        assert gauges["rq.size.pid-42"] == 3

    def test_merge_without_source_overwrites_gauges(self):
        parent, other = Metrics(), Metrics()
        parent.set_gauge("rq.size", 1)
        other.set_gauge("rq.size", 9)
        parent.merge(other.snapshot())
        assert parent.snapshot()["gauges"]["rq.size"] == 9


class TestRecorderMerge:
    def _ring(self, size=16):
        r = FlightRecorder(size=size)
        r.enabled = True
        return r

    def test_events_interleave_by_timestamp_with_provenance(self):
        parent = self._ring()
        parent.record("action.start", op="run")
        parent.record("action.end", op="run")
        events = parent.snapshot()
        # a worker event that happened *between* the parent's two
        worker_event = {
            "seq": 1,
            "t_s": (events[0]["t_s"] + events[1]["t_s"]) / 2,
            "kind": "pool.chunk",
            "hits": 4,
        }
        parent.merge([worker_event], source="pid-9")
        merged = parent.snapshot()
        assert [e["kind"] for e in merged] == [
            "action.start", "pool.chunk", "action.end",
        ]
        assert merged[1]["src"] == "pid-9"
        assert "src" not in merged[0]  # parent events stay unlabelled
        assert [e["seq"] for e in merged] == [1, 2, 3]  # renumbered, dense

    def test_merge_respects_the_ring_bound(self):
        parent = self._ring(size=4)
        for _ in range(4):
            parent.record("parent.event")
        base = parent.snapshot()[-1]["t_s"]
        incoming = [
            {"seq": i, "t_s": base + 1 + i, "kind": "worker.event"}
            for i in range(3)
        ]
        parent.merge(incoming, source="w")
        merged = parent.snapshot()
        assert len(merged) == 4  # bound holds: oldest parent events dropped
        assert [e["kind"] for e in merged] == [
            "parent.event", "worker.event", "worker.event", "worker.event",
        ]
        assert merged[-1]["seq"] == 7  # 4 recorded + 3 merged

    def test_merge_noop_when_disabled_or_empty(self):
        parent = self._ring()
        parent.record("only.event")
        parent.merge([], source="w")
        assert len(parent.snapshot()) == 1
        parent.enabled = False
        parent.merge([{"seq": 1, "t_s": 0.0, "kind": "x"}], source="w")
        parent.enabled = True
        assert len(parent.snapshot()) == 1

    def test_merge_does_not_mutate_the_caller_events(self):
        parent = self._ring()
        parent.record("anchor")
        original = {"seq": 5, "t_s": 0.0, "kind": "worker.event"}
        parent.merge([original], source="w")
        assert original == {"seq": 5, "t_s": 0.0, "kind": "worker.event"}
