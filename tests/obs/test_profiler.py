"""The continuous profiling plane: sampler, attribution, merge, renderers.

The headline acceptance property rides in
:class:`TestWorkerAttributionEndToEnd`: with ``REPRO_WORKERS=2`` and the
sampler on, one request-scoped slice of the profile contains frames from
*both* the parent process (SPIG construction / candidate maintenance) and
the pooled VF2 workers (merged home through the worker-delta protocol,
prefixed ``worker:<label>;``).  Around it: the sampler lifecycle (env knob,
``force``, the shared no-op scope when off), ``(request_id, action)``
attribution, the memory tier, the collapsed-stack/flamegraph renderers, and
the guarantee that sampling never perturbs answers (differential oracle).
"""

import random
import sys
import time

import pytest

from repro import obs
from repro.core.verification import verify_batch
from repro.datasets import generate_aids_like
from repro.graph.generators import random_connected_subgraph
from repro.obs.profiler import (
    PROFILER,
    Profiler,
    _NOOP,
    folded_lines,
    profile_action,
    profile_block,
    profile_summary,
    render_flamegraph_html,
    top_frames,
)
from repro.obs.requests import request_scope


@pytest.fixture(autouse=True)
def _pristine_profiler():
    """Every test starts and ends with the sampler off and empty."""
    PROFILER.force(None)
    PROFILER.force_mem(None)
    PROFILER.reset()
    yield
    PROFILER.force(None)
    PROFILER.force_mem(None)
    PROFILER.reset()


def _spin(seconds: float) -> int:
    """A hot loop the sampler cannot miss."""
    deadline = time.perf_counter() + seconds
    acc = 0
    while time.perf_counter() < deadline:
        acc += 1
    return acc


def _wait_for_samples(minimum: int = 1, seconds: float = 5.0) -> None:
    deadline = time.monotonic() + seconds
    while PROFILER.samples < minimum and time.monotonic() < deadline:
        _spin(0.02)


class TestSamplerLifecycle:
    def test_off_by_default_and_scopes_are_the_shared_noop(self):
        assert not PROFILER.enabled
        assert PROFILER.hz == 0.0
        assert profile_action("new") is _NOOP
        assert profile_block("arena.build") is _NOOP

    def test_force_starts_sampling_and_none_stops_it(self):
        PROFILER.force(500.0)
        assert PROFILER.enabled and PROFILER.hz == 500.0
        _wait_for_samples()
        assert PROFILER.samples > 0
        stacks = PROFILER.stacks()
        assert stacks
        # frames are pkg-relative "path:function" labels joined with ";"
        assert any("test_profiler" in folded and "_spin" in folded
                   for folded in stacks)
        PROFILER.force(None)
        assert not PROFILER.enabled
        settled = PROFILER.samples
        _spin(0.05)
        time.sleep(0.05)
        assert PROFILER.samples == settled

    def test_sync_env_picks_up_the_knob(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE_HZ", "125")
        assert PROFILER.sync_env() is True
        assert PROFILER.hz == 125.0
        monkeypatch.delenv("REPRO_PROFILE_HZ")
        assert PROFILER.sync_env() is False
        assert not PROFILER.enabled

    def test_rate_is_clamped_to_the_documented_bound(self):
        PROFILER.force(1e9)
        assert PROFILER.hz == 1000.0
        PROFILER.force(-5)
        assert not PROFILER.enabled

    def test_fold_trims_roots_and_keeps_leaves(self):
        profiler = Profiler()
        profiler.depth = 3

        def leaf():
            return profiler._fold(sys._getframe())

        def mid():
            return leaf()

        folded = mid()
        labels = folded.split(";")
        assert len(labels) == 3
        # deepest (leaf-end) frames survive, root-end frames are trimmed
        assert labels[-1].endswith(":leaf")
        assert labels[-2].endswith(":mid")


class TestAttribution:
    def test_samples_land_in_the_request_and_action_slice(self):
        PROFILER.force(500.0)
        with request_scope("req-42"):
            with profile_action("new"):
                _wait_for_samples()
        profile = PROFILER.collect()
        keys = {(s["request_id"], s["action"]) for s in profile["slices"]}
        assert ("req-42", "new") in keys
        assert PROFILER.slice_for_request("req-42")
        assert PROFILER.slice_for_request("other-request") == {}

    def test_nested_actions_restore_the_outer_scope(self, monkeypatch):
        # Scopes on but no sampler thread: each sample is taken by hand, so
        # it sees exactly the scope in force at that line.
        monkeypatch.setattr(PROFILER, "enabled", True)
        with profile_action("outer"):
            with profile_action("inner"):
                PROFILER._sample_once()
            before = {
                s["action"] for s in PROFILER.collect()["slices"]
            }
            PROFILER._sample_once()
        actions = {s["action"] for s in PROFILER.collect()["slices"]}
        assert "inner" in before
        assert "outer" in actions  # post-inner samples re-attribute to outer

    def test_unscoped_samples_keep_a_null_slice(self):
        PROFILER.force(500.0)
        _wait_for_samples()
        profile = PROFILER.collect()
        assert any(
            s["request_id"] is None and s["action"] is None
            for s in profile["slices"]
        )


class TestWorkerMerge:
    def test_merge_prefixes_frames_and_aligns_slice_keys(self):
        delta_profile = {
            "hz": 250.0,
            "samples": 3,
            "slices": [{
                "request_id": "req-9",
                "action": "verify.chunk",
                "stacks": {"repro/core/verification.py:_verify_chunk": 3},
            }],
            "memory": {"action.arena.build": {"top": [], "peak_bytes": 7}},
        }
        PROFILER.merge(delta_profile, source="pid-123")
        merged = PROFILER.slice_for_request("req-9")
        assert merged == {
            "worker:pid-123;repro/core/verification.py:_verify_chunk": 3
        }
        assert PROFILER.samples == 3
        profile = PROFILER.collect()
        assert "action.arena.build.pid-123" in profile["memory"]
        # merging the same delta again accumulates — counts are additive
        PROFILER.merge(delta_profile, source="pid-123")
        assert sum(PROFILER.slice_for_request("req-9").values()) == 6

    def test_merge_tolerates_empty_and_none(self):
        PROFILER.merge(None)
        PROFILER.merge({})
        assert PROFILER.samples == 0


class TestMemoryTier:
    def test_mem_bracket_attributes_allocating_lines(self):
        PROFILER.force_mem(5)
        assert PROFILER.mem_topn == 5
        with profile_block("index.build"):
            hoard = [bytearray(4096) for _ in range(200)]
        assert hoard
        memory = PROFILER.collect()["memory"]
        assert "action.index.build" in memory
        bracket = memory["action.index.build"]
        assert bracket["peak_bytes"] > 0
        assert len(bracket["top"]) <= 5
        assert any(
            entry["size_diff_bytes"] > 0 for entry in bracket["top"]
        )
        assert PROFILER.tracemalloc_peak_bytes() > 0

    def test_memory_tier_off_means_no_tracemalloc_brackets(self):
        with profile_action("new"):
            pass
        assert PROFILER.collect()["memory"] == {}


class TestRenderers:
    STACKS = {
        "a.py:main;a.py:hot": 6,
        "a.py:main;b.py:cold": 2,
        "a.py:main": 1,
    }

    def test_folded_lines_are_flamegraph_pl_input(self):
        lines = folded_lines(self.STACKS)
        assert lines[0] == "a.py:main;a.py:hot 6"
        assert all(line.rsplit(" ", 1)[1].isdigit() for line in lines)

    def test_top_frames_attribute_self_samples_to_leaves(self):
        top = top_frames(self.STACKS, 2)
        assert top[0] == ("a.py:hot", 6)
        # "a.py:main" gets only its own leaf sample, not its children's
        assert ("a.py:main", 1) not in top[:1]

    def test_flamegraph_is_self_contained_and_escaped(self):
        stacks = {'x.py:<listcomp>;y.py:f"quote': 5}
        html = render_flamegraph_html(stacks, title="t <&> q")
        assert html.startswith("<!DOCTYPE html>") and "</html>" in html
        assert "<script" not in html  # pure HTML/CSS artifact
        assert "&lt;listcomp&gt;" in html
        assert "t &lt;&amp;&gt; q" in html
        assert "<listcomp>" not in html

    def test_flamegraph_survives_zero_samples(self):
        html = render_flamegraph_html({})
        assert "no samples" in html

    def test_profile_summary_is_compact_and_sorted(self):
        profile = {
            "hz": 50.0,
            "samples": 9,
            "slices": [
                {"request_id": None, "action": None,
                 "stacks": {"a.py:main": 1}},
                {"request_id": "r1", "action": "run",
                 "stacks": {"a.py:main;a.py:hot": 8}},
            ],
            "memory": {"action.run": {}},
        }
        summary = profile_summary(profile, top=3)
        assert summary["hz"] == 50.0 and summary["samples"] == 9
        assert summary["top_frames"][0] == {
            "frame": "a.py:hot", "self_samples": 8,
        }
        assert summary["slices"][0]["request_id"] == "r1"  # busiest first
        assert summary["memory_sites"] == ["action.run"]


class TestMemoryGauges:
    def test_full_snapshot_carries_process_memory_gauges(self):
        snapshot = obs.full_snapshot()
        gauges = snapshot["gauges"]
        assert gauges["proc.rss_bytes"] > 0
        assert gauges["arena.segment_bytes"] >= 0
        assert gauges["tracemalloc.peak_bytes"] >= 0


class TestWorkerAttributionEndToEnd:
    """The acceptance check: one request-scoped profile slice holds parent
    *and* pool-worker frames after a ``REPRO_WORKERS=2`` session."""

    def test_request_slice_spans_parent_and_pool_workers(self, monkeypatch):
        monkeypatch.setenv("REPRO_POOL_MIN_CANDIDATES", "16")
        from repro.oracle.corpus import corpus_for
        from repro.oracle.fuzzer import generate_trace
        from repro.oracle.trace import apply_action
        from repro.core.prague import PragueEngine

        trace = generate_trace(seed=11)  # SPIG-heavy formulation session
        oracle_corpus = corpus_for(trace.spec)
        corpus = generate_aids_like(60, seed=7)  # chunky enough to sample
        rng = random.Random(2012)
        while True:
            g = corpus[rng.randrange(len(corpus))]
            query = random_connected_subgraph(rng, g, min(4, g.num_edges))
            if query is not None:
                break
        ids = list(corpus.ids())

        PROFILER.force(1000.0)
        parent = worker = ()
        with obs.trace():
            with request_scope("prof-e2e"):
                deadline = time.monotonic() + 60
                while time.monotonic() < deadline:
                    engine = PragueEngine(
                        oracle_corpus.db, oracle_corpus.indexes,
                        sigma=trace.sigma,
                    )
                    for action in trace.actions:
                        apply_action(engine, action)
                    verify_batch(query, ids, corpus, workers=2)
                    profile_slice = PROFILER.slice_for_request("prof-e2e")
                    parent = [
                        f for f in profile_slice
                        if not f.startswith("worker:")
                        and ("spig/construct" in f or "core/candidates" in f)
                    ]
                    worker = [
                        f for f in profile_slice
                        if f.startswith("worker:")
                        and "core/verification" in f
                    ]
                    if parent and worker:
                        break
            counters = obs.full_snapshot()["counters"]
        PROFILER.force(None)
        if counters.get("verify.pool.fallbacks", 0):
            pytest.skip("pool unavailable on this platform")
        assert parent, "no parent-side frames attributed to the request"
        assert worker, "no merged pool-worker frames in the request slice"
        # the same slice renders through the request-bundle surface
        from repro.obs.export import render_request_bundle

        text = render_request_bundle({
            "request_id": "prof-e2e",
            "profile": PROFILER.slice_for_request("prof-e2e"),
        })
        assert "profile slice" in text


class TestProfileCli:
    def test_profile_command_writes_all_three_artifacts(
        self, tmp_path, capsys
    ):
        import json

        from repro.cli import main
        from repro.obs.export import open_envelope

        out_dir = tmp_path / "prof"
        code = main([
            "profile", "--seed", "1", "--hz", "250",
            "--seconds", "0.5", "--out", str(out_dir),
        ])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "replays" in stdout
        assert "hottest frames" in stdout

        folded = (out_dir / "profile.folded").read_text().splitlines()
        assert folded and all(
            line.rsplit(" ", 1)[1].isdigit() for line in folded if line
        )
        assert any("repro/" in line for line in folded)

        payload = json.loads((out_dir / "profile.json").read_text())
        open_envelope(payload, expect_kind="profile")
        assert payload["profile"]["samples"] > 0
        assert payload["summary"]["top_frames"]
        assert payload["replays"] >= 1

        html = (out_dir / "flamegraph.html").read_text()
        assert html.startswith("<!DOCTYPE html>") and "</html>" in html
        # the sampler is back off once the command returns
        assert not PROFILER.enabled

    def test_profile_command_memory_tier(self, tmp_path, capsys):
        from repro.cli import main

        out_dir = tmp_path / "prof-mem"
        code = main([
            "profile", "--seed", "1", "--hz", "100", "--mem", "5",
            "--seconds", "0.3", "--out", str(out_dir),
        ])
        assert code == 0
        assert "memory brackets" in capsys.readouterr().out


class TestSamplerDoesNotPerturbAnswers:
    def test_oracle_observations_identical_with_sampler_on(self):
        from repro.oracle.diff import first_divergence
        from repro.oracle.fuzzer import generate_trace
        from repro.oracle.replay import OracleConfig, replay_trace

        trace = generate_trace(seed=9)
        baseline = replay_trace(trace, OracleConfig())
        PROFILER.force(800.0)
        try:
            sampled = replay_trace(trace, OracleConfig())
        finally:
            PROFILER.force(None)
        divergence = first_divergence(
            baseline.observations, sampled.observations,
            "sampler-off", "sampler-on",
        )
        assert divergence is None
