"""Offline index construction: mine ``F`` and ``Id``, build A2F and A2I.

This is GBLENDER's / PRAGUE's preprocessing phase: gSpan extracts the frequent
fragments [13], the DIF generator derives the discriminative infrequent
fragments, and both are packaged into the action-aware indexes that the online
algorithms probe at every formulation step.

Index construction at realistic scales is minutes of CPU, so
:func:`build_indexes` supports an on-disk cache keyed by a content hash of the
database and the mining parameters (used by the test/benchmark fixtures).
"""

from __future__ import annotations

import hashlib
import pickle
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Tuple

from repro.config import MiningParams
from repro.graph.database import GraphDatabase
from repro.index.a2f import A2FIndex
from repro.index.a2i import A2IIndex
from repro.mining.dif import mine_catalogs
from repro.mining.fragments import FragmentCatalog


@dataclass
class ActionAwareIndexes:
    """The full offline artefact: both indexes plus the raw catalogs."""

    a2f: A2FIndex
    a2i: A2IIndex
    frequent: FragmentCatalog
    difs: FragmentCatalog
    params: MiningParams
    db_size: int

    @property
    def min_support_abs(self) -> int:
        return self.params.absolute_support(self.db_size)


def database_fingerprint(db: GraphDatabase, params: MiningParams) -> str:
    """Stable content hash of (database, mining parameters) for caching."""
    h = hashlib.sha256()
    h.update(
        f"{params.min_support}|{params.size_threshold}|"
        f"{params.max_fragment_edges}|{len(db)}".encode()
    )
    for _, g in db.items():
        h.update(b"t")
        for node in sorted(g.nodes(), key=repr):
            h.update(f"v{node}{g.label(node)}".encode())
        for u, v in sorted(g.edges(), key=repr):
            h.update(f"e{u}{v}{g.edge_label(u, v)}".encode())
    return h.hexdigest()[:24]


def mine_serial(
    db: GraphDatabase, params: MiningParams
) -> Tuple[FragmentCatalog, FragmentCatalog]:
    """The cold build's mining: ``(frequent, difs)`` in one gSpan pass,
    DIF supports read off its projections
    (:func:`repro.mining.dif.mine_catalogs`)."""
    return mine_catalogs(
        db, params.absolute_support(len(db)), params.max_fragment_edges
    )


def build_indexes(
    db: GraphDatabase,
    params: Optional[MiningParams] = None,
    cache_dir: Optional[Path] = None,
) -> ActionAwareIndexes:
    """Mine (:func:`mine_serial`) and build the A2F/A2I indexes for ``db``.

    With ``cache_dir`` set, a previous build for the identical database and
    parameters is loaded from disk instead of re-mined.
    """
    params = params or MiningParams()
    cache_path: Optional[Path] = None
    if cache_dir is not None:
        cache_dir = Path(cache_dir)
        cache_dir.mkdir(parents=True, exist_ok=True)
        cache_path = cache_dir / f"indexes_{database_fingerprint(db, params)}.pkl"
        if cache_path.exists():
            with cache_path.open("rb") as handle:
                frequent, difs = pickle.load(handle)
            return _assemble(db, params, frequent, difs)

    frequent, difs = mine_serial(db, params)

    if cache_path is not None:
        with cache_path.open("wb") as handle:
            pickle.dump((frequent, difs), handle, protocol=pickle.HIGHEST_PROTOCOL)
    return _assemble(db, params, frequent, difs)


def _assemble(
    db: GraphDatabase,
    params: MiningParams,
    frequent: FragmentCatalog,
    difs: FragmentCatalog,
) -> ActionAwareIndexes:
    return ActionAwareIndexes(
        a2f=A2FIndex(frequent, params.size_threshold),
        a2i=A2IIndex(difs),
        frequent=frequent,
        difs=difs,
        params=params,
        db_size=len(db),
    )
