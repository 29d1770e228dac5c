"""Timed regions as spans: nesting, ordering, attributes, enable/disable modes."""

import pytest

from repro import obs
from repro.obs.tracer import Span, Tracer


class TestSpanNesting:
    def test_children_nest_under_open_parent(self):
        with obs.trace() as tracer:
            with obs.timed("outer"):
                with obs.timed("inner.a"):
                    pass
                with obs.timed("inner.b"):
                    pass
        assert [root.name for root in tracer.roots] == ["outer"]
        (outer,) = tracer.roots
        assert [child.name for child in outer.children] == [
            "inner.a",
            "inner.b",
        ]

    def test_sequential_spans_become_separate_roots(self):
        with obs.trace() as tracer:
            with obs.timed("first"):
                pass
            with obs.timed("second"):
                pass
        assert [root.name for root in tracer.roots] == ["first", "second"]
        assert all(not root.children for root in tracer.roots)

    def test_deep_nesting_preserves_ancestry(self):
        with obs.trace() as tracer:
            with obs.timed("a"):
                with obs.timed("b"):
                    with obs.timed("c"):
                        pass
        a = tracer.roots[0]
        assert a.children[0].name == "b"
        assert a.children[0].children[0].name == "c"

    def test_timings_are_monotonic_and_contained(self):
        with obs.trace() as tracer:
            with obs.timed("parent"):
                with obs.timed("child"):
                    pass
        parent = tracer.roots[0]
        child = parent.children[0]
        assert parent.end_s is not None and child.end_s is not None
        assert parent.start_s <= child.start_s
        assert child.end_s <= parent.end_s
        assert child.seconds >= 0.0
        assert parent.seconds >= child.seconds

    def test_walk_yields_depth_first_preorder(self):
        with obs.trace() as tracer:
            with obs.timed("a"):
                with obs.timed("b"):
                    pass
                with obs.timed("c"):
                    pass
        names = [(depth, s.name) for s, depth in tracer.roots[0].walk()]
        assert names == [(0, "a"), (1, "b"), (1, "c")]

    def test_span_count_counts_every_recorded_span(self):
        with obs.trace() as tracer:
            with obs.timed("a"):
                with obs.timed("b"):
                    pass
            with obs.timed("c"):
                pass
        assert tracer.span_count() == 3

    def test_exception_inside_span_still_closes_it(self):
        with obs.trace() as tracer:
            with pytest.raises(ValueError):
                with obs.timed("doomed"):
                    raise ValueError("boom")
            with obs.timed("after"):
                pass
        assert [root.name for root in tracer.roots] == ["doomed", "after"]
        assert tracer.roots[0].end_s is not None


class TestRegionSamples:
    def test_region_records_one_sample_of_its_span_duration(self):
        with obs.trace() as tracer:
            with obs.timed("site") as region:
                pass
        histogram = obs.HISTOGRAMS["site"]
        assert histogram.count == 1
        assert histogram.sum == region.seconds == tracer.roots[0].seconds

    def test_raising_region_closes_its_span_and_records_no_sample(self):
        with obs.trace() as tracer:
            with pytest.raises(ValueError):
                with obs.timed("doomed.outer"):
                    with obs.timed("doomed.inner"):
                        raise ValueError("boom")
            assert tracer._stack == []
        (outer,) = tracer.roots
        assert outer.end_s is not None
        assert outer.children[0].end_s is not None
        for site in ("doomed.outer", "doomed.inner"):
            histogram = obs.HISTOGRAMS.get(site)
            assert histogram is None or histogram.count == 0


class TestAttributes:
    def test_constructor_and_set_attrs_merge(self):
        with obs.trace() as tracer:
            with obs.timed("s", edge=3) as sp:
                sp.set(status="frequent", rq=7)
        attrs = tracer.roots[0].attrs
        assert attrs == {"edge": 3, "status": "frequent", "rq": 7}

    def test_to_dict_round_trips_structure(self):
        with obs.trace() as tracer:
            with obs.timed("p", k=1):
                with obs.timed("q"):
                    pass
        d = tracer.roots[0].to_dict()
        assert d["name"] == "p"
        assert d["attrs"] == {"k": 1}
        assert d["children"][0]["name"] == "q"


class TestEnablement:
    def test_disabled_by_default_without_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        assert Tracer().enabled is False
        monkeypatch.setattr(obs.TRACER, "enabled", False)
        obs.TRACER.reset()
        with obs.timed("ignored"):
            pass
        assert obs.TRACER.roots == []

    def test_trace_contextmanager_overrides_env_and_restores(
        self, monkeypatch
    ):
        monkeypatch.setattr(obs.TRACER, "enabled", False)
        with obs.trace():
            assert obs.TRACER.enabled is True
        assert obs.TRACER.enabled is False

    def test_disabled_spans_record_nothing(self, monkeypatch):
        monkeypatch.setattr(obs.TRACER, "enabled", False)
        obs.TRACER.reset()
        with obs.timed("a"):
            with obs.timed("b"):
                pass
        assert obs.TRACER.roots == []
        assert obs.TRACER.span_count() == 0

    def test_untraced_region_accepts_set(self, monkeypatch):
        # instrumented code calls .set(...) unconditionally
        monkeypatch.setattr(obs.TRACER, "enabled", False)
        with obs.timed("quiet", edge=1) as sp:
            sp.set(more=True)
        sp.set(status="x")  # after the region closed, too
        assert sp.attrs == {"edge": 1, "more": True, "status": "x"}
        assert sp.seconds >= 0.0

    def test_span_standalone_duration(self):
        s = Span("x", {})
        s.end_s = s.start_s + 0.5
        assert s.seconds == pytest.approx(0.5)
