"""Checks of the end-to-end benchmark itself (not part of the tier-1 suite).

    PYTHONPATH=src python -m pytest benchmarks/e2e/tests -q

The smoke tests boot real servers and take about half a minute.
"""

from __future__ import annotations

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parents[1]
SRC = ROOT / "src"
sys.path[:0] = [str(HERE), str(SRC)]

import layers  # noqa: E402
import loadgen  # noqa: E402
import workloads  # noqa: E402
from repro.baselines.naive import (  # noqa: E402
    naive_containment_search,
    naive_similarity_search,
)
from repro.graph.labeled_graph import Graph  # noqa: E402
from repro.graph.serialization import read_database  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
ENGINE_PACKAGES = ("repro.core", "repro.spig", "repro.index", "repro.service")
INPUT_PACKAGES = ("repro.datasets", "repro.graph", "repro.baselines")


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
def test_input_generation_imports_only_data_modules():
    tree = ast.parse((HERE / "workloads.py").read_text())
    imported = {
        node.module for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro")
    } | {
        alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
        for alias in node.names if alias.name.startswith("repro")
    }
    assert imported and all(m.startswith(INPUT_PACKAGES) for m in imported), imported


def test_input_generation_runs_no_engine_code(tmp_path):
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_globals.get("__name__", ""))

    sys.setprofile(profile)
    try:
        for name, w in workloads.WORKLOADS.items():
            workloads.build_inputs(workloads.smoke_variant(w), 3, tmp_path / name)
    finally:
        sys.setprofile(None)
    assert "repro.baselines.naive" in called
    assert not sorted(m for m in called if m.startswith(ENGINE_PACKAGES))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(name, tmp_path):
    w = workloads.smoke_variant(workloads.WORKLOADS[name])
    for out in ("a", "b"):
        workloads.build_inputs(w, 11, tmp_path / out)
    workloads.build_inputs(w, 12, tmp_path / "other")
    for filename in (workloads.CORPUS_FILE, workloads.SCRIPTS_FILE):
        first = (tmp_path / "a" / filename).read_bytes()
        assert first == (tmp_path / "b" / filename).read_bytes()
        assert first != (tmp_path / "other" / filename).read_bytes()
    scripts = workloads.load_scripts(tmp_path / "a")["scripts"]
    assert len(scripts) == w.scripts
    assert all(s["ops"][-1]["op"] == "run" and s["expect"] for s in scripts)


def _final_query(ops) -> Graph:
    q = Graph()
    for op in ops:
        if op["op"] == "add_node":
            q.add_node(*op["args"])
        elif op["op"] == "add_edge":
            q.add_edge(*op["args"])
    return q


def test_similarity_reference_equals_the_naive_mccs_scan(tmp_path):
    w = workloads.smoke_variant(workloads.WORKLOADS["similarity-heavy"])
    workloads.build_inputs(w, 5, tmp_path)
    db = read_database(tmp_path / workloads.CORPUS_FILE)
    for script in workloads.load_scripts(tmp_path)["scripts"]:
        q = _final_query(script["ops"])
        assert naive_containment_search(q, db) == []
        naive = naive_similarity_search(q, db, w.sigma)
        assert script["expect"]["similar"] == [[g, naive[g]] for g in sorted(naive)]


# ----------------------------------------------------------------------
# client-side arithmetic
# ----------------------------------------------------------------------
def _session(latencies, run):
    ops = [loadgen.Op("action", "add_edge", 0.0, s, "r") for s in latencies]
    ops.append(loadgen.Op("action", "run", 0.0, run, "r"))
    return loadgen.Session(script=0, planned=len(ops) + 2, ops=ops)


def test_srt_folds_step_overflow_into_run():
    assert loadgen.srt(_session([0.5, 0.5], 0.1)) == pytest.approx(0.1)
    # 2.5 s of work under a 2 s window leaves 0.5 s for the next step,
    # which absorbs only what fits: 0.5 + 1.8 - 2.0 = 0.3 s remain at Run.
    assert loadgen.srt(_session([2.5, 1.8], 0.1)) == pytest.approx(0.4)


def test_percentile_and_support():
    values = list(range(1, 101))
    assert loadgen.percentile(values, 50) == 50
    assert loadgen.percentile(values, 90) == 90
    assert loadgen.supported(100, 90) and not loadgen.supported(99, 90)


def test_run_answers_are_compared_exactly():
    exact = {"exact": [1, 4]}
    assert loadgen.check_run(exact, {"exact": [1, 4]}) is None
    assert loadgen.check_run(exact, {"exact": [1]}) is not None
    similar = {"similar": [[2, 1], [5, 3]]}
    run = {"exact": [], "similar": [
        {"graph_id": 5, "distance": 3}, {"graph_id": 2, "distance": 1},
    ]}
    assert loadgen.check_run(similar, run) is None
    run["similar"][0]["distance"] = 2
    assert loadgen.check_run(similar, run) is not None


# ----------------------------------------------------------------------
# wrapper table
# ----------------------------------------------------------------------
def test_wrapper_table_installs_in_a_fresh_interpreter():
    code = "import layers; layers.install(layers.Recorder())"
    subprocess.run(
        [sys.executable, "-c", code], cwd=HERE, check=True, timeout=60,
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
    )


def test_missing_attribute_is_reported():
    bogus = layers.Wrap("repro.core.prague", "PragueEngine.gone", "engine",
                        layers.ALL)
    with pytest.raises(layers.MissingAttribute):
        layers._owner_and_name(bogus)


def test_idle_layers_names_entries_the_workload_should_call():
    calls = {spec.key: 1 for spec in layers.TABLE}
    del calls["repro.core.undo.restore_snapshot"]
    trace = {"calls": calls}
    assert layers.idle_layers(trace, layers.MODIFY) == [
        "repro.core.undo.restore_snapshot"
    ]
    assert layers.idle_layers(trace, layers.LIGHT) == []


# ----------------------------------------------------------------------
# end to end
# ----------------------------------------------------------------------
def _run(*args):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


def _names(kind):
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


def test_smoke_reports_every_end_to_end_metric():
    _, line = _run("--workload", "gesture-light")
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    units = {k: v["unit"] for k, v in line["metrics"].items()}
    assert units == _names("end_to_end")
    assert all(v["value"] > 0 for v in line["metrics"].values())


def test_smoke_trace_parts_sum_to_client_wall_time():
    stdout, line = _run("--trace", "1")
    assert line["correct"] and line["failed"] == 0
    names = set(_names("per_layer"))
    assert {k.split("/", 1)[1] for k in line["metrics"]} == names
    paths = [l.split(": ", 1)[1] for l in stdout.splitlines() if "result file:" in l]
    assert len(paths) == len(workloads.WORKLOADS)
    for path in paths:
        result = json.loads(Path(path).read_text())
        assert result["failures"] == []
        assert result["summary"]["failed"] == 0
        assert result["metrics"]["unaccounted_pct"]["value"] < 1.0
        report = {k: v["value"] for k, v in result["metrics"].items()}
        assert report["http.network_pct"] > 0
        # analyze() fails the run beyond 1%; the result file keeps the worst.
        assert result["max_residual_frac"] <= 0.01
