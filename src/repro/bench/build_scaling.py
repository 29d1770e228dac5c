"""Cold-start index builds at 10–100x scale.

The measurement behind ``benchmarks/bench_build_scaling.py`` and the
``index.build_cold_s`` perf-ledger metric: for each corpus size in the
scale sweep, time one cold mine (:func:`repro.index.builder.mine_serial`,
the one-pass gSpan + DIF mining every ``build_indexes`` runs).

``parallel_cpus`` (the scheduler-visible CPU count) is part of every result
payload, so a sweep read on another machine says what hardware it ran on.
"""

from __future__ import annotations

import os
import time
from typing import Any, Dict, Optional, Sequence

from repro.config import MiningParams
from repro.graph.database import GraphDatabase
from repro.index.builder import mine_serial


def parallel_cpus() -> int:
    """CPUs the scheduler will actually give this process."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def measure_build_point(db: GraphDatabase, params: MiningParams) -> Dict[str, Any]:
    """One timed cold mine of one corpus (cold builds are seconds to
    minutes — repetition buys nothing)."""
    start = time.perf_counter()
    frequent, difs = mine_serial(db, params)
    cold_s = time.perf_counter() - start
    return {
        "graphs": len(db),
        "cold_s": cold_s,
        "frequent": len(frequent),
        "difs": len(difs),
    }


def run_build_scaling(
    sizes: Optional[Sequence[int]] = None,
    params: Optional[MiningParams] = None,
    seed: int = 2012,
) -> Dict[str, Any]:
    """The full sweep: one :func:`measure_build_point` per corpus size,
    on the chunk-generated corpora of :func:`repro.bench.harness.scale_db`."""
    from repro.bench.harness import (
        BUILD_SCALING_PARAMS,
        scale_db,
        scale_sweep_sizes,
    )

    sizes = list(sizes if sizes is not None else scale_sweep_sizes())
    params = params or BUILD_SCALING_PARAMS
    points: Dict[str, Dict[str, Any]] = {}
    for size in sizes:
        points[str(size)] = measure_build_point(scale_db(size), params)
    return {
        "parallel_cpus": parallel_cpus(),
        "seed": seed,
        "params": {
            "min_support": params.min_support,
            "size_threshold": params.size_threshold,
            "max_fragment_edges": params.max_fragment_edges,
        },
        "points": points,
    }
