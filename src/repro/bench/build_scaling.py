"""Cold-start index builds at 10–100x scale: serial vs sharded.

The measurement behind ``benchmarks/bench_build_scaling.py`` and the
``index.build_cold_s`` / ``index.build_sharded_s`` perf-ledger metrics: for
each corpus size in the scale sweep, time one serial mine (the one-pass
gSpan + DIF mining ``build_indexes`` runs at ``workers=1``) and one sharded build
(:func:`repro.index.sharded.mine_sharded`) at ``workers`` workers, and check
the two catalogs are equivalent.

Honesty note on speedups: sharding only pays when the machine actually has
cores — ``parallel_cpus`` (the scheduler-visible CPU count) is part of every
result payload, and the ≥ 2x floor is asserted by the benchmark only when at
least 2 CPUs are available.  On a single-CPU box the sharded build is
*slower* than serial (same mining work + merge overhead + process plumbing),
and the results record that truthfully rather than gaming the measurement.
"""

from __future__ import annotations

import os
import time
from typing import Any, Dict, Optional, Sequence

from repro.config import MiningParams
from repro.graph.database import GraphDatabase
from repro.index.builder import mine_serial
from repro.index.sharded import mine_sharded

#: Worker count the sweep (and the ISSUE floor) is defined at.
SWEEP_WORKERS = 4


def parallel_cpus() -> int:
    """CPUs the scheduler will actually give this process."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def measure_build_point(
    db: GraphDatabase,
    params: MiningParams,
    workers: int = SWEEP_WORKERS,
    check_equivalence: bool = True,
) -> Dict[str, Any]:
    """Serial vs sharded cold build of one corpus; one timed run of each
    (cold builds are seconds-to-minutes — repetition buys nothing)."""
    start = time.perf_counter()
    frequent_serial, difs_serial = mine_serial(db, params)
    cold_s = time.perf_counter() - start

    start = time.perf_counter()
    frequent_sharded, difs_sharded = mine_sharded(db, params, workers)
    sharded_s = time.perf_counter() - start

    point: Dict[str, Any] = {
        "graphs": len(db),
        "workers": workers,
        "cold_s": cold_s,
        "sharded_s": sharded_s,
        "speedup": (cold_s / sharded_s) if sharded_s else 0.0,
        "frequent": len(frequent_sharded),
        "difs": len(difs_sharded),
    }
    if check_equivalence:
        point["equivalent"] = (
            set(frequent_sharded) == set(frequent_serial)
            and set(difs_sharded) == set(difs_serial)
            and all(
                frequent_sharded[c].fsg_ids == frequent_serial[c].fsg_ids
                for c in frequent_serial
            )
            and all(
                difs_sharded[c].fsg_ids == difs_serial[c].fsg_ids
                for c in difs_serial
            )
        )
    return point


def run_build_scaling(
    sizes: Optional[Sequence[int]] = None,
    workers: int = SWEEP_WORKERS,
    params: Optional[MiningParams] = None,
    seed: int = 2012,
) -> Dict[str, Any]:
    """The full sweep: one :func:`measure_build_point` per corpus size.

    Equivalence is verified at every size (the check is a set/id comparison —
    trivial next to the builds themselves).  Corpora come from the chunked
    generator so the 100x point does not spend its wall-clock in the RNG.
    """
    from repro.bench.harness import (
        BUILD_SCALING_PARAMS,
        scale_db,
        scale_sweep_sizes,
    )

    sizes = list(sizes if sizes is not None else scale_sweep_sizes())
    params = params or BUILD_SCALING_PARAMS
    points: Dict[str, Dict[str, Any]] = {}
    for size in sizes:
        db = scale_db(size, workers=workers)
        points[str(size)] = measure_build_point(db, params, workers=workers)
    return {
        "workers": workers,
        "parallel_cpus": parallel_cpus(),
        "seed": seed,
        "params": {
            "min_support": params.min_support,
            "size_threshold": params.size_threshold,
            "max_fragment_edges": params.max_fragment_edges,
        },
        "points": points,
    }
