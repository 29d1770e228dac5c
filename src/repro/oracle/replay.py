"""Config-matrix replay: one trace, every hot-path configuration.

The hot-path layer reads its knobs from the environment at call time
(:func:`repro.config.canonical_cache_size`,
:func:`repro.config.verification_workers`), so a configuration is just an
environment patch.  :func:`replay_trace` applies one, replays a trace on a
fresh engine and records an observation per step; the harness diffs those
observation streams across the matrix.

Engine-raised :class:`~repro.exceptions.ReproError`\\ s (and any crash) are
*recorded into the observation* rather than propagated: a trace therefore
replays to completion under every configuration, which keeps divergence
defined step-wise and makes delta-debugging shrinks total.
"""

from __future__ import annotations

import itertools
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.core.prague import PragueEngine
from repro.graph import canonical
from repro.obs.recorder import RECORDER
from repro.oracle.corpus import OracleCorpus, corpus_for
from repro.oracle.trace import SessionTrace, apply_action, observe_step


@dataclass(frozen=True)
class OracleConfig:
    """One cell of the hot-path configuration matrix."""

    canonical_cache: bool = True
    workers: int = 1

    @property
    def name(self) -> str:
        return f"cache={int(self.canonical_cache)},workers={self.workers}"

    def env(self) -> Dict[str, str]:
        return {
            "REPRO_CANONICAL_CACHE": "8192" if self.canonical_cache else "0",
            "REPRO_WORKERS": str(self.workers),
            # Fuzzed sessions verify a handful of candidates per batch
            # (3-13 on the oracle corpora); a floor of 1 makes every batch
            # of a workers>1 cell take the pooled path instead of silently
            # degenerating to the serial one.
            "REPRO_POOL_MIN_CANDIDATES": "1",
        }


#: The reference cell every other cell is diffed against: canonical LRU on,
#: serial verification — the CI default.
REFERENCE_CONFIG = OracleConfig(canonical_cache=True, workers=1)

#: Matrix: canonical cache on/off × workers 1/3 (3 workers dispatch to the
#: warm pool over the shared-memory arena).
CONFIG_MATRIX: Tuple[OracleConfig, ...] = tuple(
    OracleConfig(canonical_cache=c, workers=w)
    for c, w in itertools.product((True, False), (1, 3))
)


#: Knobs every matrix cell pins *off* regardless of the ambient environment:
#: a replay sweep must never stream telemetry into a live session's export
#: directory (interleaved JSONL from dozens of replays would poison it), and
#: the extra file I/O would skew the step timings the oracles compare.
_ISOLATED_ENV = {"REPRO_OBS_EXPORT": ""}


@contextmanager
def applied(config: OracleConfig):
    """Temporarily install ``config``'s environment (and isolate the LRU)."""
    patch = {**config.env(), **_ISOLATED_ENV}
    saved = {key: os.environ.get(key) for key in patch}
    os.environ.update(patch)
    canonical.clear_cache()  # no memo carry-over between replays
    try:
        yield
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


@dataclass
class ReplaySession:
    """A completed replay: the per-step observations plus the final engine."""

    trace: SessionTrace
    config: OracleConfig
    corpus: OracleCorpus
    observations: List[Dict[str, Any]] = field(default_factory=list)
    engine: Optional[PragueEngine] = None


def replay_trace(
    trace: SessionTrace,
    config: OracleConfig = REFERENCE_CONFIG,
    corpus: Optional[OracleCorpus] = None,
) -> ReplaySession:
    """Replay ``trace`` under ``config`` on a fresh engine, start to finish."""
    if corpus is None:
        corpus = corpus_for(trace.spec)
    session = ReplaySession(trace=trace, config=config, corpus=corpus)
    with applied(config):
        engine = PragueEngine(
            corpus.db, corpus.indexes, sigma=trace.sigma, auto_similarity=True
        )
        for action in trace.actions:
            result, error = None, None
            try:
                result = apply_action(engine, action)
            except Exception as exc:  # recorded, not raised — see module doc
                error = exc
                RECORDER.record_exception(
                    "replay.exception", exc,
                    config=config.name, step=len(session.observations),
                )
            session.observations.append(
                observe_step(engine, action, result, error)
            )
    session.engine = engine
    return session
