"""The shared, immutable half of the engine state.

Everything a formulation session *reads* but never *writes* — the graph
database and the mined A2F/A2I indexes — bundled into one
:class:`SharedPlane` that is built once per process and shared read-only by
every concurrent session.  Per-session state (the visual query, the SPIG
set, candidates, the undo stack) stays inside each
:class:`~repro.core.prague.PragueEngine`.

Constructing an engine from a plane is O(1): the plane snapshotted the id
universe when it was built, so spinning up session number 500 costs a few
attribute writes, not a re-walk of the database.  ``db.add()`` mid-flight
stays correct — both the plane and the engine version-guard their snapshots
on ``len(db)``.
"""

from __future__ import annotations

import threading
from typing import FrozenSet

from repro.config import DEFAULT_SUBGRAPH_DISTANCE
from repro.graph.database import GraphDatabase
from repro.index.builder import ActionAwareIndexes


class SharedPlane:
    """One process-wide bundle of (db, indexes) shared by sessions."""

    def __init__(self, db: GraphDatabase, indexes: ActionAwareIndexes) -> None:
        self.db = db
        self.indexes = indexes
        self._lock = threading.Lock()
        self._ids: FrozenSet[int] = frozenset(db.ids())

    @property
    def db_ids(self) -> FrozenSet[int]:
        """The id universe, version-guarded against ``db.add()``."""
        ids = self._ids
        if len(ids) != len(self.db):
            with self._lock:
                if len(self._ids) != len(self.db):
                    self._ids = frozenset(self.db.ids())
                ids = self._ids
        return ids

    def warm(self) -> None:
        """Precompute the database's label statistics (idempotent).

        A server calls this once at startup so the first Run action of the
        first session doesn't pay the pass: every verification reads them,
        and pool workers fork with them cached.  The pool itself stays
        lazy — a workload that never pools never holds idle workers.
        """
        self.db.label_frequencies()

    def engine(
        self,
        sigma: int = DEFAULT_SUBGRAPH_DISTANCE,
        auto_similarity: bool = True,
    ):
        """A fresh per-session engine wired to this plane."""
        from repro.core.prague import PragueEngine

        return PragueEngine.from_plane(
            self, sigma=sigma, auto_similarity=auto_similarity
        )
