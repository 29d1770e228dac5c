"""Benchmark harness: cached datasets/indexes/workloads and table emission.

Every table and figure of the paper's Section VIII has a bench module under
``benchmarks/``; they all build on this harness.  Datasets and indexes are
expensive to mine, so everything is cached on disk under ``.bench_cache/`` in
the repository root, keyed by content fingerprints — the first benchmark run
pays the mining cost once.

Scales default to laptop-size and honour ``REPRO_SCALE`` (see
:func:`repro.config.experiment_scale`); EXPERIMENTS.md records the mapping to
the paper's 40K/10K-80K datasets.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.config import MiningParams, experiment_scale
from repro.datasets.aids import generate_aids_like
from repro.datasets.queries import (
    WorkloadQuery,
    standard_containment_workload,
    standard_similarity_workload,
)
from repro.datasets.synthetic import generate_graphgen_like
from repro.graph.database import GraphDatabase
from repro.index.builder import ActionAwareIndexes, build_indexes

#: Laptop-scale defaults (paper scale in parentheses).
AIDS_DEFAULT_SIZE = 1000        # paper: 40 000
SYNTHETIC_SWEEP_SIZES = (500, 1000, 2000, 3000, 4000)  # paper: 10K..80K
#: The cold-build scale sweep: 10x–100x the 60-graph perf-ledger corpus,
#: generated chunked (:mod:`repro.datasets.scale`) so corpora this large
#: can be produced in parallel.  ``bench_build_scaling`` sweeps these.
SCALE_SWEEP_SIZES = (600, 2000, 6000)
AIDS_PARAMS = MiningParams(min_support=0.1, size_threshold=4,
                           max_fragment_edges=8)
SYNTHETIC_PARAMS = MiningParams(min_support=0.05, size_threshold=4,
                                max_fragment_edges=8)
#: Mining parameters for the cold-build sweep — α matches AIDS_PARAMS; the
#: edge bound is 5 so a 100x corpus still builds in CI-friendly minutes.
BUILD_SCALING_PARAMS = MiningParams(min_support=0.1, size_threshold=4,
                                    max_fragment_edges=5)
DEFAULT_SIGMA = 3
QUERY_EDGES = 7


def repo_root() -> Path:
    return Path(__file__).resolve().parents[3]


def cache_dir() -> Path:
    path = repo_root() / ".bench_cache"
    path.mkdir(exist_ok=True)
    return path


def results_dir() -> Path:
    path = repo_root() / "benchmarks" / "results"
    path.mkdir(parents=True, exist_ok=True)
    return path


def scaled(n: int) -> int:
    return max(20, int(round(n * experiment_scale())))


# ----------------------------------------------------------------------
# cached datasets / indexes / workloads
# ----------------------------------------------------------------------
_DB_CACHE: Dict[str, GraphDatabase] = {}
_INDEX_CACHE: Dict[str, ActionAwareIndexes] = {}


def aids_db(size: Optional[int] = None) -> GraphDatabase:
    size = scaled(AIDS_DEFAULT_SIZE) if size is None else size
    key = f"aids:{size}"
    if key not in _DB_CACHE:
        _DB_CACHE[key] = generate_aids_like(size)
    return _DB_CACHE[key]


def synthetic_db(size: int) -> GraphDatabase:
    key = f"synth:{size}"
    if key not in _DB_CACHE:
        _DB_CACHE[key] = generate_graphgen_like(size)
    return _DB_CACHE[key]


def synthetic_sweep_sizes() -> List[int]:
    return [scaled(s) for s in SYNTHETIC_SWEEP_SIZES]


def scale_db(size: int) -> GraphDatabase:
    """Chunk-generated AIDS-like corpus for the cold-build scale sweep
    (:mod:`repro.datasets.scale`), cached under its size."""
    from repro.datasets.scale import generate_scaled

    key = f"scale:{size}"
    if key not in _DB_CACHE:
        _DB_CACHE[key] = generate_scaled("aids", size)
    return _DB_CACHE[key]


def scale_sweep_sizes() -> List[int]:
    return [scaled(s) for s in SCALE_SWEEP_SIZES]


def indexes_for(
    db: GraphDatabase, params: MiningParams, tag: str
) -> ActionAwareIndexes:
    key = f"{tag}:{len(db)}:{params.min_support}:{params.size_threshold}:" \
          f"{params.max_fragment_edges}"
    if key not in _INDEX_CACHE:
        _INDEX_CACHE[key] = build_indexes(db, params, cache_dir=cache_dir())
    return _INDEX_CACHE[key]


def aids_indexes(
    size: Optional[int] = None, params: MiningParams = AIDS_PARAMS
) -> ActionAwareIndexes:
    return indexes_for(aids_db(size), params, "aids")


def synthetic_indexes(size: int) -> ActionAwareIndexes:
    return indexes_for(synthetic_db(size), SYNTHETIC_PARAMS, "synth")


def aids_similarity_workload(
    size: Optional[int] = None,
    sigma: int = DEFAULT_SIGMA,
    num_queries: int = 4,
) -> Dict[str, WorkloadQuery]:
    """Q1-Q4 analogues over the AIDS-like corpus (Q1 best case)."""
    db = aids_db(size)
    return standard_similarity_workload(
        db, aids_indexes(size), num_queries=num_queries,
        num_edges=QUERY_EDGES, sigma=sigma, prefix="Q",
    )


def synthetic_similarity_workload(
    size: int, sigma: int = DEFAULT_SIGMA, num_queries: int = 4
) -> Dict[str, WorkloadQuery]:
    """Q5-Q8 analogues over one synthetic corpus."""
    db = synthetic_db(size)
    out = standard_similarity_workload(
        db, synthetic_indexes(size), num_queries=num_queries,
        num_edges=QUERY_EDGES, sigma=sigma, prefix="S",
    )
    renamed = {}
    for i, (name, wq) in enumerate(sorted(out.items()), start=5):
        renamed[f"Q{i}"] = wq
    return renamed


def aids_containment_workload(size: Optional[int] = None):
    return standard_containment_workload(aids_db(size))


# ----------------------------------------------------------------------
# table emission
# ----------------------------------------------------------------------
def format_table(
    title: str, headers: Sequence[str], rows: Sequence[Sequence[object]]
) -> str:
    def fmt(cell: object) -> str:
        if isinstance(cell, float):
            return f"{cell:,.3f}" if abs(cell) < 100 else f"{cell:,.1f}"
        return str(cell)

    str_rows = [[fmt(c) for c in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in str_rows)) if str_rows else len(h)
        for i, h in enumerate(headers)
    ]
    sep = "-+-".join("-" * w for w in widths)
    lines = [title, "=" * len(title)]
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in str_rows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def emit(name: str, table: str, data: object) -> None:
    """Print the paper-style table and persist it under benchmarks/results."""
    print()
    print(table)
    out = results_dir()
    (out / f"{name}.md").write_text("```\n" + table + "\n```\n")
    with (out / f"{name}.json").open("w") as handle:
        json.dump(data, handle, indent=2, default=str)
