"""Prometheus text-format escaping in ``render_prometheus``.

The exposition format reserves ``\\``, ``"`` and newline inside label
values; everything the obs layer puts there is hostile to at least one of
them — dotted metric names ride in labels by design, worker-merged gauges
are namespaced ``<name>.<worker-label>``, and recorder-derived labels can
carry arbitrary text.  A scrape that hits one unescaped quote silently
drops the whole exposition, so these tests pin the escaping and that every
emitted line parses.
"""

import re

from repro.obs.export import _prom_escape, render_prometheus

#: One sample line: metric name, optional {labels}, then a number.
_SAMPLE = re.compile(
    r'^[a-zA-Z_:][a-zA-Z0-9_:]*'
    r'(\{[a-zA-Z_]+="(?:[^"\\]|\\.)*"(,[a-zA-Z_]+="(?:[^"\\]|\\.)*")*\})?'
    r' [-+0-9.eE]+$'
)


def _snapshot(**overrides):
    base = {"counters": {}, "gauges": {}, "histograms": {}, "slo": {}}
    base.update(overrides)
    return base


class TestEscapeHelper:
    def test_backslash_quote_and_newline(self):
        assert _prom_escape('a\\b"c\nd') == 'a\\\\b\\"c\\nd'

    def test_backslash_escaped_before_quote_not_after(self):
        # escaping the quote first would double-escape its backslash
        assert _prom_escape('"') == '\\"'
        assert _prom_escape('\\"') == '\\\\\\"'


class TestDottedNamesRideInLabels:
    def test_counter_and_gauge_names_are_labels_not_metric_names(self):
        text = render_prometheus(_snapshot(
            counters={"verify.pool.chunks": 8},
            gauges={"pool.workers": 4},
        ))
        assert 'repro_counter{name="verify.pool.chunks"} 8' in text
        assert 'repro_gauge{name="pool.workers"} 4' in text
        # the dot never leaks into a metric name (illegal there)
        for line in text.splitlines():
            if not line.startswith("#"):
                assert "." not in line.split("{", 1)[0]

    def test_dashed_gauge_names_survive(self):
        # a name with several dots and a dash rides intact in the label
        text = render_prometheus(_snapshot(
            gauges={"pool.chunk_ids.pid-4242": 17},
        ))
        assert 'repro_gauge{name="pool.chunk_ids.pid-4242"} 17' in text


class TestHostileLabelValues:
    def test_quotes_and_backslashes_in_names_are_escaped(self):
        text = render_prometheus(_snapshot(
            counters={'say."hello"': 1},
            gauges={"win\\path.bytes": 2},
        ))
        assert 'repro_counter{name="say.\\"hello\\""} 1' in text
        assert 'repro_gauge{name="win\\\\path.bytes"} 2' in text

    def test_newlines_never_split_a_sample_line(self):
        text = render_prometheus(_snapshot(
            counters={"multi\nline": 3},
        ))
        assert 'repro_counter{name="multi\\nline"} 3' in text
        assert "multi\nline" not in text

    def test_histogram_sites_and_slo_objectives_are_escaped(self):
        text = render_prometheus(_snapshot(
            histograms={'site"x': {
                "p50_s": 0.1, "p90_s": 0.2, "p99_s": 0.3,
                "sum_s": 1.0, "count": 4,
            }},
            slo={'objective"y': {
                "attainment": 0.5, "burn_rate": 1.5,
            }},
        ))
        assert 'repro_latency_seconds{site="site\\"x",quantile="0.50"}' in text
        assert 'repro_latency_seconds_count{site="site\\"x"} 4' in text
        assert 'repro_slo_attainment{objective="objective\\"y"} 0.5' in text
        assert 'repro_slo_burn_rate{objective="objective\\"y"} 1.5' in text


class TestExpositionParses:
    def test_every_sample_line_matches_the_grammar(self):
        text = render_prometheus(_snapshot(
            counters={"verify.tested": 10, 'odd"name\\1': 1},
            gauges={"proc.rss_bytes": 123456789,
                    "pool.chunk_ids.pid-1": 2},
            histograms={"action.run": {
                "p50_s": 0.01, "p90_s": 0.02, "p99_s": 0.03,
                "sum_s": 0.5, "count": 20,
            }},
            slo={"action_latency": {"attainment": 0.99, "burn_rate": 0.2}},
        ))
        samples = [l for l in text.splitlines()
                   if l and not l.startswith("#")]
        assert samples
        for line in samples:
            assert _SAMPLE.match(line), f"unparseable sample line: {line!r}"
