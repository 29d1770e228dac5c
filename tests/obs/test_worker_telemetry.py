"""Worker telemetry parity: the pool loses no observations — or answers.

A pool chunk returns what it observed and the parent records it
(:func:`repro.core.verification._run_batch`): running verification with
``REPRO_WORKERS=4`` must report *identical* verification counter and
histogram totals to the serial path in ``full_snapshot()`` — every time a
pool worker measured arrives back in the parent — while the answers stay
byte-identical (pinned through the differential oracle's observation diff).

Also covers the fallback-provenance satellite: when the failure happens
*inside* a worker, the ``pool.fallback`` event carries the worker's own
traceback, not just the parent-side re-raise.
"""

import warnings

import pytest

import repro.core.verification as verif
from repro import obs
from repro.core.verification import sim_verify_scan, verify_batch
from repro.datasets import generate_aids_like
from repro.graph.generators import random_connected_subgraph
from repro.obs.recorder import RECORDER
from repro.oracle.diff import first_divergence
from repro.oracle.fuzzer import generate_trace
from repro.oracle.replay import OracleConfig, replay_trace


@pytest.fixture(autouse=True)
def _pool_floor_16(monkeypatch):
    """Pin the pool floor below the 60-graph corpus.

    The default ``REPRO_POOL_MIN_CANDIDATES`` (64) would silently route
    these batches down the serial path — and every assertion here exists to
    watch a *pool* run (chunk samples, chunk events, worker tracebacks).
    """
    monkeypatch.setenv("REPRO_POOL_MIN_CANDIDATES", "16")


@pytest.fixture(scope="module")
def corpus():
    """60 AIDS-like graphs — comfortably above the parallel floor of 16."""
    return generate_aids_like(60, seed=7)


def _query(db, seed, edges=4):
    import random

    rng = random.Random(seed)
    while True:
        g = db[rng.randrange(len(db))]
        sub = random_connected_subgraph(rng, g, min(edges, g.num_edges))
        if sub is not None:
            return sub


def _verification_totals(snapshot):
    hists = snapshot["histograms"]
    return {
        "candidate.count": hists.get("verify.candidate", {}).get("count", 0),
        "sim.candidate.count":
            hists.get("verify.sim.candidate", {}).get("count", 0),
    }


class TestTelemetryParityAcrossWorkerCounts:
    def test_verify_batch_totals_match_serial_at_four_workers(self, corpus):
        """The headline acceptance check: with four workers,
        ``full_snapshot()`` accounts for 100% of verification observations —
        one ``verify.candidate`` sample per candidate on either path — and
        the answer ids are identical."""
        query = _query(corpus, seed=2012)
        ids = list(corpus.ids())

        with obs.trace():
            serial_out = verify_batch(query, ids, corpus, workers=1)
            serial = _verification_totals(obs.full_snapshot())
        with obs.trace():
            pooled_out = verify_batch(query, ids, corpus, workers=4)
            snapshot = obs.full_snapshot()
            pooled = _verification_totals(snapshot)

        assert pooled_out == serial_out
        fell_back = snapshot["counters"].get("verify.pool.fallbacks", 0)
        assert not fell_back, "pool unavailable: parity test needs a pool run"
        assert pooled["candidate.count"] == serial["candidate.count"] \
            == len(ids)

    def test_sim_verify_totals_match_serial_at_four_workers(self, corpus):
        fragments = [_query(corpus, seed=s, edges=3) for s in (5, 6)]
        ids = list(corpus.ids())

        with obs.trace():
            serial_out = sim_verify_scan(fragments, ids, corpus, workers=1)
            serial = _verification_totals(obs.full_snapshot())
        with obs.trace():
            pooled_out = sim_verify_scan(fragments, ids, corpus, workers=4)
            snapshot = obs.full_snapshot()
            pooled = _verification_totals(snapshot)

        assert pooled_out == serial_out
        if snapshot["counters"].get("verify.pool.fallbacks", 0):
            pytest.skip("pool unavailable on this platform")
        assert pooled["sim.candidate.count"] \
            == serial["sim.candidate.count"] == len(ids)

    def test_chunk_histogram_covers_every_pool_chunk(
        self, corpus, monkeypatch
    ):
        """Worker-side ``verify.chunk`` durations come back: one sample per
        chunk the ``pool.run`` event says was dispatched."""
        query = _query(corpus, seed=3)
        monkeypatch.setattr(RECORDER, "enabled", True)
        RECORDER.reset()
        try:
            with obs.trace():
                verify_batch(query, list(corpus.ids()), corpus, workers=4)
                snapshot = obs.full_snapshot()
                events = RECORDER.snapshot()
        finally:
            RECORDER.reset()
        if snapshot["counters"].get("verify.pool.fallbacks", 0):
            pytest.skip("pool unavailable on this platform")
        (run,) = [e for e in events if e["kind"] == "pool.run"]
        assert run["chunks"] >= 2
        assert snapshot["histograms"]["verify.chunk"]["count"] \
            == run["chunks"]


class TestWorkerEventsReachTheParentRing:
    def test_pool_chunk_events_carry_provenance(self, corpus, monkeypatch):
        query = _query(corpus, seed=4)
        monkeypatch.setattr(RECORDER, "enabled", True)
        RECORDER.reset()
        try:
            with obs.trace():
                verify_batch(query, list(corpus.ids()), corpus, workers=4)
                snapshot = obs.full_snapshot()
                events = RECORDER.snapshot()
        finally:
            RECORDER.reset()
        if snapshot["counters"].get("verify.pool.fallbacks", 0):
            pytest.skip("pool unavailable on this platform")
        chunk_events = [e for e in events if e["kind"] == "pool.chunk"]
        assert len(chunk_events) == \
            snapshot["histograms"]["verify.chunk"]["count"]
        assert all(e.get("src", "").startswith("pid-") for e in chunk_events)
        # the parent records chunk events in order: the ring stays sorted
        stamps = [e["t_s"] for e in events]
        assert stamps == sorted(stamps)
        # sequence numbers stay dense
        assert [e["seq"] for e in events] == list(
            range(events[0]["seq"], events[0]["seq"] + len(events))
        )


class TestAnswersByteIdenticalAcrossWorkerCounts:
    def test_oracle_observations_identical_serial_vs_four_workers(self):
        """Full-session check through the differential oracle: a replay at
        ``REPRO_WORKERS=4`` produces observation streams byte-identical to
        the serial reference — telemetry capture never perturbs answers."""
        trace = generate_trace(seed=9)
        serial = replay_trace(trace, OracleConfig(workers=1))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            pooled = replay_trace(trace, OracleConfig(workers=4))
        divergence = first_divergence(
            serial.observations, pooled.observations,
            "workers=1", "workers=4",
        )
        assert divergence is None


def _raising_chunk_worker(db, payload):
    """Module-level (picklable) worker that dies inside the pool."""
    raise ValueError(f"boom while testing chunk {payload!r}")


class TestFallbackCarriesWorkerTraceback:
    def test_worker_side_failure_attaches_the_worker_traceback(
        self, small_db, monkeypatch
    ):
        """When the chunk worker itself raises, ``concurrent.futures`` hands
        the parent a ``_RemoteTraceback`` — the ``pool.fallback`` event must
        preserve that worker-side text (only the parent's re-raise frame
        used to survive) and name the worker's exception as its cause."""
        monkeypatch.setattr(RECORDER, "enabled", True)
        RECORDER.reset()
        try:
            with pytest.warns(RuntimeWarning, match="serial"):
                with pytest.raises(ValueError, match="boom"):
                    # the serial fallback re-runs the worker and re-raises
                    verif._run_batch(
                        _raising_chunk_worker,
                        lambda chunk: list(chunk),
                        list(range(32)),
                        workers=2,
                        db=small_db,
                    )
            events = RECORDER.snapshot()
        finally:
            RECORDER.reset()
        fallback = next(e for e in events if e["kind"] == "pool.fallback")
        assert "worker_traceback" in fallback
        assert "boom while testing chunk" in fallback["worker_traceback"]
        assert "_raising_chunk_worker" in fallback["worker_traceback"]
        # The cause leads with the worker's exception, not the quote line
        # that wraps the remote traceback.
        assert fallback["cause"].startswith("ValueError: boom")

    def test_parent_side_failure_has_no_worker_traceback(
        self, small_db, monkeypatch
    ):
        """Unpicklable payloads fail before any worker runs — no remote
        frame exists, and the event must not carry a fabricated one."""
        monkeypatch.setattr(RECORDER, "enabled", True)
        RECORDER.reset()
        try:
            with pytest.warns(RuntimeWarning, match="serial"):
                out = verif._run_batch(
                    _chunk_identity,
                    lambda chunk: (chunk, lambda g: g),  # lambda: unpicklable
                    list(range(32)),
                    workers=2,
                    db=small_db,
                )
            events = RECORDER.snapshot()
        finally:
            RECORDER.reset()
        assert out == list(range(32))
        fallback = next(e for e in events if e["kind"] == "pool.fallback")
        assert "worker_traceback" not in fallback
        assert "traceback" in fallback  # the parent-side trace still rides


def _chunk_identity(db, payload):
    chunk, transform = payload
    return [transform(gid) for gid in chunk], []
