"""Knob-coverage audit: every ``REPRO_*`` knob is documented.

``docs/CONFIGURATION.md`` claims to be the single source of truth for knob
names, defaults and semantics.  This audit makes that claim enforceable:
every ``REPRO_*`` environment variable read anywhere in ``src/repro/``
must have a summary-table row in CONFIGURATION.md, and every knob the
table documents must still exist in the code — doc rot is caught in both
directions.  A test, benchmark, script or CI step that sets a knob the code
no longer reads would silently do nothing, so those are audited too.
"""

import re
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
CONFIG_SOURCE = REPO_ROOT / "src" / "repro" / "config.py"
CONFIG_DOC = REPO_ROOT / "docs" / "CONFIGURATION.md"

_KNOB = re.compile(r"\bREPRO_[A-Z0-9_]+\b")


def _concrete(names):
    """Drop family prefixes like the ``REPRO_SERVICE_`` in ``REPRO_SERVICE_*``."""
    return {name for name in names if not name.endswith("_")}
#: A summary-table row: ``| `REPRO_FOO` | default | accessor | ... |``
_TABLE_ROW = re.compile(r"^\|\s*`(REPRO_[A-Z0-9_]+)`\s*\|", re.MULTILINE)


def knobs_in_source():
    """Every REPRO_* name read anywhere under ``src/repro/``."""
    found = set()
    for path in (REPO_ROOT / "src" / "repro").rglob("*.py"):
        found.update(_KNOB.findall(path.read_text()))
    return _concrete(found)


def knobs_in_config_module():
    return _concrete(_KNOB.findall(CONFIG_SOURCE.read_text()))


def _knob_users():
    """Files outside ``src/`` that set or name knobs: tests, benchmarks,
    scripts and CI workflows."""
    yield from (REPO_ROOT / "tests").rglob("*.py")
    yield from (REPO_ROOT / "benchmarks").rglob("*.py")
    yield from (
        p for p in (REPO_ROOT / "scripts").rglob("*")
        if p.is_file() and "__pycache__" not in p.parts
    )
    yield from (REPO_ROOT / ".github" / "workflows").glob("*")


def test_config_module_is_the_single_reader():
    """Knobs are only read via repro.config — no stray os.environ lookups."""
    stray = knobs_in_source() - knobs_in_config_module()
    assert not stray, (
        f"REPRO_* knobs referenced outside src/repro/config.py's vocabulary: "
        f"{sorted(stray)} — add accessors to repro.config"
    )


def test_tests_benchmarks_and_ci_name_only_live_knobs():
    live = knobs_in_config_module()
    dead = {}
    for path in _knob_users():
        for name in _concrete(_KNOB.findall(path.read_text())) - live:
            dead.setdefault(name, []).append(
                str(path.relative_to(REPO_ROOT))
            )
    dead.pop("REPRO_FOO", None)  # this file's table-row example
    assert not dead, f"knobs repro.config does not read: {dead}"


def test_every_knob_has_a_table_row():
    documented = set(_TABLE_ROW.findall(CONFIG_DOC.read_text()))
    missing = knobs_in_config_module() - documented
    assert not missing, (
        f"knobs missing from the CONFIGURATION.md summary table: "
        f"{sorted(missing)}"
    )


def test_every_documented_knob_exists():
    text = CONFIG_DOC.read_text()
    stale = _concrete(_KNOB.findall(text)) - knobs_in_source()
    assert not stale, (
        f"CONFIGURATION.md documents knobs no code reads: {sorted(stale)}"
    )


def test_knob_coverage_is_nontrivial():
    """Guard the guard: the regexes extract exactly the knob vocabulary."""
    assert knobs_in_config_module() == {
        "REPRO_SCALE",
        "REPRO_WORKERS",
        "REPRO_POOL_MIN_CANDIDATES",
        "REPRO_CANONICAL_CACHE",
        "REPRO_TRACE",
        "REPRO_RECORDER",
        "REPRO_OBS_EXPORT",
        "REPRO_POSTMORTEM_DIR",
        "REPRO_PROFILE_HZ",
        "REPRO_SERVICE_PORT",
    }
    assert len(_TABLE_ROW.findall(CONFIG_DOC.read_text())) == 10
