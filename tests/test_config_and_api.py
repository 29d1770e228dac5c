"""Configuration knobs and the public API surface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.config import (
    DEFAULT_EDGE_LATENCY_SECONDS,
    DEFAULT_SUBGRAPH_DISTANCE,
    MiningParams,
    experiment_scale,
)


class TestMiningParams:
    def test_absolute_support_ceiling(self):
        assert MiningParams(0.1).absolute_support(10_000) == 1000
        assert MiningParams(0.1).absolute_support(15) == 2  # ceil(1.5)

    def test_absolute_support_floor_one(self):
        assert MiningParams(0.01).absolute_support(10) == 1

    def test_alpha_bounds(self):
        with pytest.raises(ValueError):
            MiningParams(0.0).absolute_support(10)
        with pytest.raises(ValueError):
            MiningParams(1.0).absolute_support(10)

    def test_frozen(self):
        params = MiningParams()
        with pytest.raises(AttributeError):
            params.min_support = 0.5  # type: ignore[misc]

    def test_defaults_match_paper(self):
        params = MiningParams()
        assert params.min_support == 0.1  # the paper's AIDS default alpha
        assert DEFAULT_SUBGRAPH_DISTANCE == 3  # the paper's default sigma
        assert DEFAULT_EDGE_LATENCY_SECONDS == 2.0  # stated latency floor


class TestExperimentScale:
    def test_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert experiment_scale() == 1.0

    def test_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "2.5")
        assert experiment_scale() == 2.5

    def test_garbage_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "lots")
        assert experiment_scale() == 1.0

    def test_floor(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0")
        assert experiment_scale() == 0.01


class TestStartupKnobs:
    def test_obs_switches_are_read_when_the_singletons_are_built(
        self, tmp_path
    ):
        """The observability knobs take effect through a process's
        environment at start-up: each singleton reads its knob once."""
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_")}
        env.update({
            "PYTHONPATH": str(Path(repro.__file__).resolve().parents[1]),
            "REPRO_TRACE": "1",
            "REPRO_RECORDER": "0",
            "REPRO_PROFILE_HZ": "50",
            "REPRO_OBS_EXPORT": str(tmp_path / "export"),
        })
        probe = (
            "import json\n"
            "from repro.obs import EXPORTER, PROFILER, RECORDER, TRACER\n"
            "print(json.dumps([TRACER.enabled, RECORDER.enabled,"
            " PROFILER.hz, EXPORTER.active]))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True,
            text=True, timeout=60, check=True,
        ).stdout
        trace, recorder, hz, exporting = json.loads(out)
        assert trace is True
        assert recorder is False
        assert hz == 50.0
        assert exporting is True


class TestPublicApi:
    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_exception_hierarchy(self):
        from repro import exceptions

        assert issubclass(exceptions.GraphError, exceptions.ReproError)
        assert issubclass(exceptions.MiningError, exceptions.ReproError)
        assert issubclass(exceptions.SpigError, exceptions.ReproError)
        assert issubclass(exceptions.QueryError, exceptions.ReproError)
        assert issubclass(exceptions.SessionError, exceptions.ReproError)
        assert issubclass(exceptions.IndexError_, exceptions.ReproError)

    def test_subpackage_exports_resolve(self):
        import repro.baselines
        import repro.core
        import repro.datasets
        import repro.graph
        import repro.gui
        import repro.index
        import repro.mining
        import repro.spig

        for module in (
            repro.graph, repro.mining, repro.index, repro.spig,
            repro.core, repro.baselines, repro.gui, repro.datasets,
        ):
            for name in module.__all__:
                assert getattr(module, name, None) is not None, (
                    module.__name__, name,
                )
