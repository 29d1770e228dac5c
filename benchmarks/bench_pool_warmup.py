"""Warm-pool dispatch benchmark — what a Run pays once the pool is up.

Not a paper figure: this suite records the cost of the warm verification
pool (:mod:`repro.core.pool`).  One full-corpus ``verify_batch`` is
dispatched serially and on the warm pool (reused workers, forked with the
database) on identical inputs, with identical answers asserted.  No speed floor is enforced: the
table is the input for deciding when a batch is worth pooling.  That a
dispatch reuses the running workers is checked by
``tests/core/test_warm_pool.py::TestWarmPoolLifecycle``.

``python -m repro perf`` runs the same code at smoke scale (its
``pool.warm_dispatch_s`` metric).
"""

import pytest

from repro.bench import emit, format_table
from repro.bench.harness import aids_db
from repro.bench.pool_warmup import run_pool_warmup


@pytest.mark.benchmark(group="pool_warmup")
def test_pool_warmup(benchmark):
    db = aids_db()
    data = run_pool_warmup(db, smoke=False)

    rows = [
        ["serial (workers=1)", f"{data['serial_s'] * 1000:.2f}", "1.00x"],
        ["warm pool (reused workers)", f"{data['warm_s'] * 1000:.2f}",
         f"{data['warm_vs_serial']:.2f}x"],
    ]
    table = format_table(
        f"Pool dispatch: |D|={data['corpus']}, workers={data['workers']} "
        f"(one-time warm spawn {data['spawn_s'] * 1000:.2f} ms)",
        ["configuration", "dispatch (ms)", "speed vs serial"],
        rows,
    )
    emit("pool_warmup", table, data)

    # Benchmarked op: one warm-pool dispatch (the steady-state Run action).
    from repro.core import pool as pool_mod
    from repro.core.verification import verify_batch
    from repro.bench.pool_warmup import _env, _sample_query
    import random

    query = _sample_query(db, random.Random(7), edges=4)
    ids = list(db.ids())
    with _env(REPRO_POOL_MIN_CANDIDATES="1"):
        verify_batch(query, ids, db, workers=4)  # spawn outside the timer
        benchmark(lambda: verify_batch(query, ids, db, workers=4))
        pool_mod.shutdown()
