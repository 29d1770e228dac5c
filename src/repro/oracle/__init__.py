"""Differential-testing oracle for the blended formulation/processing engine.

Two hot paths have a reference twin (memoized canonical codes vs
recomputation, pooled verification vs serial) — exactly the configuration
matrix where silent divergence bugs hide, and Algorithm 1's per-edge
blending means one wrong candidate set corrupts every later action of a
session.  This package systematically hunts such bugs:

* :mod:`repro.oracle.fuzzer` generates randomized-but-valid formulation
  sessions (seeded, hence reproducible) over small synthetic corpora;
* :mod:`repro.oracle.replay` replays a session under each hot-path
  configuration (canonical cache on/off × ``REPRO_WORKERS`` 1/N) and
  captures an observation per step — candidate sets, statuses, results;
  timings are deliberately excluded;
* :mod:`repro.oracle.oracles` adds two independent ground truths: the naive
  scan baseline (no index, no SPIG) and a from-scratch re-formulation of the
  final query (incremental SPIG state must equal fresh state);
* :mod:`repro.oracle.diff` pinpoints the first diverging step;
* :mod:`repro.oracle.shrink` reduces a diverging trace to a minimal
  reproducer and renders it as a paste-able regression test;
* :mod:`repro.oracle.harness` ties it together; ``python -m repro
  oracle-smoke`` runs a bounded seeded sweep for CI.

See docs/CORRECTNESS.md for the workflow.
"""

from repro.oracle.corpus import OracleCorpus, corpus_for
from repro.oracle.diff import Divergence, first_divergence
from repro.oracle.fuzzer import generate_trace
from repro.oracle.harness import (
    SessionResult,
    SweepReport,
    check_session,
    run_sweep,
)
from repro.oracle.oracles import fresh_replay_check, naive_baseline_check
from repro.oracle.replay import (
    CONFIG_MATRIX,
    REFERENCE_CONFIG,
    OracleConfig,
    replay_trace,
)
from repro.oracle.shrink import format_reproducer, shrink_trace
from repro.oracle.trace import SessionTrace, TraceAction

__all__ = [
    "CONFIG_MATRIX",
    "Divergence",
    "OracleConfig",
    "OracleCorpus",
    "REFERENCE_CONFIG",
    "SessionResult",
    "SessionTrace",
    "SweepReport",
    "TraceAction",
    "check_session",
    "corpus_for",
    "first_divergence",
    "format_reproducer",
    "fresh_replay_check",
    "generate_trace",
    "naive_baseline_check",
    "replay_trace",
    "run_sweep",
    "shrink_trace",
]
