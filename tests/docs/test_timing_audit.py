"""Timing audit: ``repro.obs.timed`` is the one way to time a region.

A region timed by hand (a ``perf_counter()`` pair feeding ``observe``, a
span opened beside it) records itself more than once, and the records
disagree.  Outside ``repro/obs`` nothing imports ``span`` or calls
``add_attrs``, and in the engine, SPIG, index and service packages
``perf_counter`` is read only by the two per-candidate verification loops,
whose samples sit inside a ``verify.*`` region and are not regions.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: Packages whose timing must go through ``timed``.
TIMED_PACKAGES = ("core", "spig", "index", "service")

#: The per-candidate loops allowed an inline clock pair.
CLOCK_PAIR_OWNERS = {"_test_pattern", "_test_fragments"}


def _modules(root):
    return sorted(p for p in root.rglob("*.py") if "__pycache__" not in p.parts)


def _calls(tree):
    """``(call node, name of the innermost enclosing function)`` pairs."""
    def walk(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from walk(child, child.name)
            else:
                if isinstance(child, ast.Call):
                    yield child, function
                yield from walk(child, function)

    yield from walk(tree, None)


def _called_name(call):
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def test_no_module_outside_obs_opens_spans_by_hand():
    offenders = []
    for path in _modules(SRC):
        if path.parent.name == "obs":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and any(
                alias.name in ("span", "add_attrs") for alias in node.names
            ):
                offenders.append(f"{path.relative_to(SRC)}:{node.lineno}")
        for call, _function in _calls(tree):
            if _called_name(call) in ("span", "add_attrs"):
                offenders.append(f"{path.relative_to(SRC)}:{call.lineno}")
    assert not offenders, f"hand-opened spans: {offenders}"


def test_perf_counter_only_in_the_per_candidate_loops():
    reads = []
    for package in TIMED_PACKAGES:
        for path in _modules(SRC / package):
            tree = ast.parse(path.read_text(), filename=str(path))
            for call, function in _calls(tree):
                if _called_name(call) == "perf_counter":
                    reads.append((f"{path.relative_to(SRC)}:{call.lineno}",
                                  function))
    stray = [site for site, fn in reads if fn not in CLOCK_PAIR_OWNERS]
    assert not stray, (
        f"hand-rolled perf_counter() timing: {stray} — use repro.obs.timed"
    )
    # Two reads per loop: the inline pair behind each candidate sample.
    assert len(reads) == 2 * len(CLOCK_PAIR_OWNERS)
