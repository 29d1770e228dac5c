"""Knob-coverage audit: every ``REPRO_*`` knob is documented.

``docs/CONFIGURATION.md`` claims to be the single source of truth for knob
names, defaults and semantics.  This audit makes that claim enforceable:
every ``REPRO_*`` environment variable read anywhere in ``src/repro/``
must have a summary-table row in CONFIGURATION.md, and every knob the
table documents must still exist in the code — doc rot is caught in both
directions.
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


def test_config_module_is_the_single_reader():
    """Knobs are only read via repro.config — no stray os.environ lookups."""
    stray = knobs_in_source() - knobs_in_config_module()
    assert not stray, (
        f"REPRO_* knobs referenced outside src/repro/config.py's vocabulary: "
        f"{sorted(stray)} — add accessors to repro.config"
    )


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
    """Guard the guard: the regexes really extract the knob vocabulary."""
    knobs = knobs_in_config_module()
    assert {
        "REPRO_SCALE",
        "REPRO_WORKERS",
        "REPRO_POOL_WARM",
        "REPRO_CANONICAL_CACHE",
        "REPRO_ARENA",
    } <= knobs
    assert len(_TABLE_ROW.findall(CONFIG_DOC.read_text())) >= 15
