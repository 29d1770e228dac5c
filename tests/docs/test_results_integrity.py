"""Checked-in benchmark artifacts must stay in matched pairs and load clean.

Every ``benchmarks/results/*.md`` table is the rendering of a sibling
``.json`` (``repro.bench.harness.emit`` writes both); a table without its
data — or data without its table — means someone committed half a refresh.
The trajectory is the one json-only artifact (it has no table form), and it
must parse through the schema-versioned loader.
"""

import json
from pathlib import Path

RESULTS = Path(__file__).resolve().parents[2] / "benchmarks" / "results"

#: json-only artifacts (no rendered table counterpart): the perf trajectory
#: and the oracle-smoke manifest are machine-consumed, never tabled.
TABLELESS = {"trajectory", "oracle_smoke"}


def test_every_table_has_its_data_and_vice_versa():
    tables = {p.stem for p in RESULTS.glob("*.md")}
    data = {p.stem for p in RESULTS.glob("*.json")}
    assert tables, f"no result tables under {RESULTS}"
    assert tables - data == set(), "tables missing their .json data"
    assert data - tables - TABLELESS == set(), "data missing its .md table"


def test_every_json_artifact_parses():
    for path in RESULTS.glob("*.json"):
        payload = json.loads(path.read_text())
        assert isinstance(payload, dict), path


def test_trajectory_loads_through_the_versioned_loader():
    from repro.bench.ledger import load_trajectory

    records = load_trajectory(RESULTS / "trajectory.json")
    assert records and isinstance(records, list)


def test_oracle_manifest_lists_the_current_matrix():
    """The checked-in oracle-smoke manifest was produced by the current
    configuration matrix (regenerate it with ``python -m repro
    oracle-smoke --sessions 15 --out benchmarks/results/oracle_smoke.json``
    when the matrix changes)."""
    from repro.oracle.replay import CONFIG_MATRIX

    manifest = json.loads((RESULTS / "oracle_smoke.json").read_text())
    assert manifest["configs"] == [c.name for c in CONFIG_MATRIX]
