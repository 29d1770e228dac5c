"""Pool warm-up micro-benchmark: serial vs warm-pool dispatch.

The warm verification pool (:mod:`repro.core.pool`) exists to take the pool
cold start — process spawn plus payload pickling — out of every *Run*
action's SRT.  This benchmark measures what a dispatch costs once that start
is paid: the per-dispatch wall time of a full-corpus ``verify_batch`` on two
configurations over identical inputs:

* **serial** — ``workers=1``, the in-process reference path;
* **warm** — the first dispatch spawns (timed once as ``spawn_s``), the
  measured ones reuse the running workers, forked with the database.

Both produce identical answers (asserted); ``warm_vs_serial`` is the serial
time over the warm time, so a value below 1 means the pool loses at this
batch size (``benchmarks/bench_pool_warmup.py``).
"""

from __future__ import annotations

import os
import random
import time
from contextlib import contextmanager
from typing import Dict, Optional

from repro.core import pool as pool_mod
from repro.core.verification import verify_batch
from repro.graph.database import GraphDatabase
from repro.graph.generators import random_connected_subgraph
from repro.graph.labeled_graph import Graph


@contextmanager
def _env(**overrides: str):
    saved = {key: os.environ.get(key) for key in overrides}
    os.environ.update(overrides)
    try:
        yield
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


def _sample_query(db: GraphDatabase, rng: random.Random, edges: int) -> Graph:
    while True:
        g = db[rng.randrange(len(db))]
        sub = random_connected_subgraph(rng, g, min(edges, g.num_edges))
        if sub is not None:
            return sub


def _best_dispatch(query: Graph, db: GraphDatabase, workers: int,
                   repeats: int) -> float:
    """Best-of-``repeats`` wall time of one full-corpus dispatch."""
    ids = list(db.ids())
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        verify_batch(query, ids, db, workers=workers)
        best = min(best, time.perf_counter() - start)
    return best


def run_pool_warmup(
    db: Optional[GraphDatabase] = None,
    smoke: bool = False,
    seed: int = 2012,
    workers: int = 4,
) -> Dict[str, object]:
    """Measure serial vs warm-pool dispatch; returns the payload.

    The pool floor is pinned to 1 so both configurations actually take their
    intended path regardless of corpus size.  The warm pool is shut down
    before its first dispatch so the spawn cost is charged to ``spawn_s``,
    not smeared into the reused dispatches: ``spawn_s`` is the fork plus
    that first dispatch.
    """
    from repro.datasets.aids import generate_aids_like

    if db is None:
        db = generate_aids_like(40 if smoke else 120, seed=seed)
    rng = random.Random(seed)
    query = _sample_query(db, rng, edges=4)
    ids = list(db.ids())
    repeats = 3 if smoke else 5

    with _env(REPRO_POOL_MIN_CANDIDATES="1"):
        serial_answer = verify_batch(query, ids, db, workers=1)
        serial_s = _best_dispatch(query, db, workers=1, repeats=repeats)

        pool_mod.POOL.shutdown()  # charge the spawn to spawn_s, once
        spawn_start = time.perf_counter()
        warm_answer = verify_batch(query, ids, db, workers=workers)
        spawn_s = time.perf_counter() - spawn_start
        warm_s = _best_dispatch(query, db, workers=workers, repeats=repeats)
        pool_mod.shutdown()

    assert serial_answer == warm_answer
    return {
        "smoke": smoke,
        "corpus": len(db),
        "candidates": len(ids),
        "workers": workers,
        "repeats": repeats,
        "serial_s": serial_s,
        "spawn_s": spawn_s,
        "warm_s": warm_s,
        "warm_vs_serial": serial_s / warm_s if warm_s else float("inf"),
        "hits": len(serial_answer),
    }
