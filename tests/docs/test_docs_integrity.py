"""Documentation integrity: links resolve, documented commands exist.

Docs rot silently — a renamed file or CLI subcommand breaks every tutorial
that mentions it without failing a single code test.  This suite walks
``README.md`` and ``docs/*.md`` and asserts that

* every relative markdown link points at a file that exists,
* every backticked repo path (``src/...``, ``docs/...``, ``tests/...``,
  ``benchmarks/...``) resolves,
* every documented ``python -m repro <subcommand>`` is a real subcommand of
  :mod:`repro.cli`.
"""

import re
from pathlib import Path

import pytest

from repro.cli import _COMMANDS

REPO_ROOT = Path(__file__).resolve().parents[2]

DOC_FILES = sorted(
    [REPO_ROOT / "README.md"] + list((REPO_ROOT / "docs").glob("*.md"))
)

_LINK = re.compile(r"\[[^\]]+\]\(([^)\s]+)\)")
_BACKTICKED_PATH = re.compile(
    r"`((?:src|docs|tests|benchmarks)/[A-Za-z0-9_./-]+)`"
)
_CLI_COMMAND = re.compile(r"python -m repro (\w[\w-]*)")
_CLI_BRACE_LIST = re.compile(r"python -m repro \{([^}]+)\}")


def _doc_ids(path):
    return str(path.relative_to(REPO_ROOT))


@pytest.mark.parametrize("doc", DOC_FILES, ids=_doc_ids)
class TestOneDocument:
    def test_exists_and_nonempty(self, doc):
        assert doc.is_file()
        assert doc.read_text().strip()

    def test_relative_links_resolve(self, doc):
        text = doc.read_text()
        broken = []
        for match in _LINK.finditer(text):
            target = match.group(1)
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            target = target.split("#", 1)[0]  # drop in-page anchors
            if not target:
                continue
            if not (doc.parent / target).resolve().exists():
                broken.append(target)
        assert not broken, f"{doc.name}: broken links {broken}"

    def test_backticked_repo_paths_resolve(self, doc):
        text = doc.read_text()
        broken = []
        for match in _BACKTICKED_PATH.finditer(text):
            path = match.group(1)
            if "*" in path:
                continue  # glob examples like benchmarks/results/*.md
            candidate = REPO_ROOT / path
            if not candidate.exists():
                broken.append(path)
        assert not broken, f"{doc.name}: dangling paths {broken}"

    def test_documented_cli_subcommands_exist(self, doc):
        text = doc.read_text()
        documented = set(_CLI_COMMAND.findall(text))
        for brace_list in _CLI_BRACE_LIST.findall(text):
            documented.update(
                cmd.strip() for cmd in brace_list.split(",") if cmd.strip()
            )
        unknown = documented - set(_COMMANDS)
        assert not unknown, f"{doc.name}: unknown subcommands {unknown}"


def test_corpus_of_documents_is_nontrivial():
    """Guard the guard: the glob really picked up the documentation set."""
    names = {doc.name for doc in DOC_FILES}
    assert {
        "README.md",
        "ARCHITECTURE.md",
        "CONFIGURATION.md",
        "PERFORMANCE.md",
        "CORRECTNESS.md",
    } <= names


def test_readme_links_architecture_and_configuration():
    """The README must route readers to the module map and the knob page."""
    text = (REPO_ROOT / "README.md").read_text()
    assert "docs/ARCHITECTURE.md" in text
    assert "docs/CONFIGURATION.md" in text
    assert "docs/OPERATIONS.md" in text


def test_trace_subcommand_is_documented_and_real():
    assert "trace" in _COMMANDS
    readme = (REPO_ROOT / "README.md").read_text()
    assert "python -m repro trace" in readme
    assert "python -m repro trace --diff" in readme


def test_serve_subcommand_is_documented_and_real():
    assert "serve" in _COMMANDS
    readme = (REPO_ROOT / "README.md").read_text()
    assert "python -m repro serve" in readme
    # the production runbook documents how to actually operate it
    operations = (REPO_ROOT / "docs" / "OPERATIONS.md").read_text()
    assert "python -m repro serve" in operations


def test_perf_subcommand_is_documented_and_real():
    assert "perf" in _COMMANDS
    readme = (REPO_ROOT / "README.md").read_text()
    assert "python -m repro perf" in readme


def test_top_subcommand_is_documented_and_real():
    assert "top" in _COMMANDS
    readme = (REPO_ROOT / "README.md").read_text()
    assert "python -m repro top" in readme
    operations = (REPO_ROOT / "docs" / "OPERATIONS.md").read_text()
    assert "python -m repro top" in operations


def test_operations_page_covers_the_serve_knob_families():
    """OPERATIONS.md must mention every serve-relevant knob family."""
    operations = (REPO_ROOT / "docs" / "OPERATIONS.md").read_text()
    for knob in (
        "REPRO_SERVICE_MAX_SESSIONS",
        "REPRO_SERVICE_TTL",
        "REPRO_WORKERS",
        "REPRO_ARENA",
        "REPRO_POOL_WARM",
        "REPRO_POSTMORTEM_DIR",
        "REPRO_OBS_EXPORT",
    ):
        assert knob in operations, f"OPERATIONS.md does not mention {knob}"


def test_tutorial_reaches_the_service_layer():
    """The walkthrough must end at dataset → build → serve → top."""
    tutorial = (REPO_ROOT / "docs" / "TUTORIAL.md").read_text()
    assert "python -m repro generate" in tutorial
    assert "python -m repro index" in tutorial
    assert "python -m repro serve" in tutorial
    assert "python -m repro top" in tutorial
