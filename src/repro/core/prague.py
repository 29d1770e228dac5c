"""The PRAGUE engine — Algorithm 1 as an interactive state machine.

One :class:`PragueEngine` instance backs one query-formulation session on the
GUI.  The four monitored actions map to methods:

==============  =====================================================
GUI action      Engine method
==============  =====================================================
``New``         :meth:`PragueEngine.add_edge`
``Modify``      :meth:`PragueEngine.delete_edge`
``SimQuery``    :meth:`PragueEngine.enable_similarity`
``Run``         :meth:`PragueEngine.run`
==============  =====================================================

After every new edge the engine builds the edge's SPIG (Algorithm 2) and
refreshes the candidate state: exact candidates ``Rq`` while the query still
has exact matches, per-level ``Rfree``/``Rver`` buckets once it is a
similarity query.  When ``Rq`` first becomes empty the engine raises the
option dialogue (``option_pending``); the caller either deletes an edge
(possibly the engine's suggestion) or continues — by default, continuing to
draw implicitly opts into similarity search, matching Figure 3's flow where
the status simply turns "Similar" and formulation proceeds.

Every gesture is one timed region, ``action.<op>``
(:func:`repro.obs.tracer.timed`): its single duration is the report's
``processing_seconds``, the ``action.<op>`` histogram sample, the flight
recorder's ``action.end`` event and, when ``REPRO_TRACE`` is on, the
gesture's span.  The session layer overlays these timings on the GUI-latency
timeline to compute SRT (:mod:`repro.obs.srt`).

Example — formulate a two-edge path query over a small seeded corpus and
run it (ids are deterministic because the corpus is)::

    >>> from repro.oracle.corpus import corpus_for
    >>> corpus = corpus_for()                      # 24 seeded graphs + indexes
    >>> engine = PragueEngine(corpus.db, corpus.indexes, sigma=1)
    >>> engine.add_node("a", "A")
    'a'
    >>> engine.add_node("b", "B")
    'b'
    >>> engine.add_node("c", "C")
    'c'
    >>> report = engine.add_edge("a", "b")         # New: SPIG + Rq refresh
    >>> (report.status.value, report.rq_size)
    ('frequent', 15)
    >>> report = engine.add_edge("b", "c")
    >>> (report.status.value, report.rq_size)
    ('frequent', 7)
    >>> run = engine.run()                         # Run: verification + results
    >>> sorted(run.results.exact_ids)
    [0, 6, 14, 17, 19, 22, 23]
    >>> run.verification_free                      # the A-B-C path is indexed
    True
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, FrozenSet, Iterator, List, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.plane import SharedPlane

from repro.config import DEFAULT_SUBGRAPH_DISTANCE
from repro.core.actions import Action, QueryStatus
from repro.core.exact import exact_sub_candidates, is_verification_free
from repro.core.modify import DeletionSuggestion, apply_deletion, suggest_deletion
from repro.core.results import QueryResults, SimilarCandidates
from repro.core.similar import similar_results_gen, similar_sub_candidates
from repro.core.verification import exact_verification
from repro.exceptions import SessionError
from repro.graph.database import GraphDatabase
from repro.graph.labeled_graph import NodeId
from repro.index.builder import ActionAwareIndexes
from repro.obs.exporter import EXPORTER
from repro.obs.profiler import profile_action
from repro.obs.recorder import RECORDER
from repro.obs.tracer import Span, timed
from repro.query_graph import VisualQuery
from repro.spig.manager import SpigManager


@dataclass
class StepReport:
    """What the engine did in response to one GUI action."""

    action: Action
    status: QueryStatus
    edge_id: Optional[int] = None
    rq_size: Optional[int] = None
    candidate_count: Optional[int] = None
    processing_seconds: float = 0.0
    spig_seconds: float = 0.0
    suggestion: Optional[DeletionSuggestion] = None


@dataclass
class RunReport:
    """Timing and bookkeeping of the final *Run* action."""

    results: QueryResults = field(default_factory=QueryResults)
    processing_seconds: float = 0.0
    verification_free: bool = False
    candidate_count: int = 0


class PragueEngine:
    """Blended formulation/processing of one visual subgraph query."""

    def __init__(
        self,
        db: Optional[GraphDatabase] = None,
        indexes: Optional[ActionAwareIndexes] = None,
        sigma: int = DEFAULT_SUBGRAPH_DISTANCE,
        auto_similarity: bool = True,
        *,
        plane: Optional["SharedPlane"] = None,
    ) -> None:
        if plane is not None:
            db, indexes = plane.db, plane.indexes
        if db is None or indexes is None:
            raise ValueError("PragueEngine needs (db, indexes) or a plane")
        self.db = db
        self.indexes = indexes
        self.sigma = sigma
        self.auto_similarity = auto_similarity
        self.plane = plane
        if plane is None:
            self._db_ids: FrozenSet[int] = frozenset(db.ids())
        else:
            # The plane snapshotted the universe once for every session —
            # construction stays O(1).
            self._db_ids = plane.db_ids
        self._db_ids_size = len(self._db_ids)
        self._candidates_db_size = len(db)
        self.query = VisualQuery()
        self.manager = SpigManager(indexes)
        self.sim_flag = False
        self.option_pending = False
        self.rq: FrozenSet[int] = frozenset()
        self.similar_candidates: Optional[SimilarCandidates] = None
        self.history: List[StepReport] = []

    @classmethod
    def from_plane(
        cls,
        plane: "SharedPlane",
        sigma: int = DEFAULT_SUBGRAPH_DISTANCE,
        auto_similarity: bool = True,
    ) -> "PragueEngine":
        """A per-session engine over a process-wide :class:`SharedPlane`."""
        return cls(sigma=sigma, auto_similarity=auto_similarity, plane=plane)

    @property
    def db_ids(self) -> FrozenSet[int]:
        """The current id universe, version-guarded against ``db.add()``.

        Graphs appended mid-session (``GraphDatabase.add`` — e.g. through
        :class:`~repro.index.maintenance.IncrementalIndexMaintainer`) must be
        visible to every later candidate computation; a snapshot taken at
        ``__init__`` silently hid them from ``Rq``/``Rfree``/``Rver``.
        """
        if self._db_ids_size != len(self.db):
            self._db_ids = frozenset(self.db.ids())
            self._db_ids_size = len(self.db)
        return self._db_ids

    # ------------------------------------------------------------------
    # formulation actions
    # ------------------------------------------------------------------
    def add_node(self, node: NodeId, label: str) -> NodeId:
        """Drop a node on the canvas (no processing is triggered)."""
        return self.query.add_node(node, label)

    def add_edge(
        self, u: NodeId, v: NodeId, label: Optional[str] = None
    ) -> StepReport:
        """Action ``New``: draw an edge, build its SPIG, refresh candidates."""
        if self.option_pending:
            if not self.auto_similarity:
                raise SessionError(
                    "option dialogue pending: call delete_edge or "
                    "enable_similarity first"
                )
            # Continuing to draw = implicitly opting into similarity search.
            self.enable_similarity()
        with self._action("new") as region:
            edge_id = self.query.add_edge(u, v, label)
            spig = self.manager.on_new_edge(self.query, edge_id)
            report = StepReport(
                action=Action.NEW,
                status=QueryStatus.FREQUENT,
                edge_id=edge_id,
                spig_seconds=spig.construct_seconds,
            )
            if not self.sim_flag:
                target = self.manager.target_vertex(self.query)
                self._refresh_rq(target)
                report.rq_size = len(self.rq)
                if self.rq:
                    report.status = (
                        QueryStatus.FREQUENT
                        if target.fragment_list.freq_id is not None
                        else QueryStatus.INFREQUENT
                    )
                else:
                    report.status = QueryStatus.SIMILAR
                    self.option_pending = True  # Alg 1, line 8: dialogue pops up
            else:
                self._refresh_similar_candidates()
                assert self.similar_candidates is not None
                report.status = QueryStatus.SIMILAR
                report.candidate_count = self.similar_candidates.candidate_count
            region.set(edge=edge_id, status=report.status.value)
        return self._finish(report, region)

    def add_pattern(
        self,
        pattern,
        attach: Optional[dict] = None,
    ) -> List[StepReport]:
        """Drop a canned pattern (footnote 1's future-work extension).

        ``pattern`` is a connected labeled :class:`~repro.graph.Graph` (or a
        :class:`~repro.gui.patterns.CannedPattern`); ``attach`` optionally
        maps pattern nodes onto existing canvas nodes (fusion points, with
        matching labels).  The gesture is one drag-and-drop on the GUI, but
        the engine still processes edge-at-a-time: each pattern edge gets its
        own formulation id and SPIG, so candidate maintenance, the option
        dialogue and modification all work unchanged.
        """
        from repro.exceptions import QueryError

        graph = getattr(pattern, "graph", pattern)
        if graph.num_edges == 0 or not graph.is_connected():
            raise QueryError("patterns must be connected with >= 1 edge")
        attach = dict(attach or {})
        if self.query.num_edges > 0 and not attach:
            raise QueryError(
                "attach the pattern to an existing node to keep the query "
                "connected (pass attach={pattern_node: canvas_node})"
            )
        node_map: dict = {}
        for p_node, canvas_node in attach.items():
            if not graph.has_node(p_node):
                raise QueryError(f"pattern has no node {p_node!r}")
            if self.query.node_label(canvas_node) != graph.label(p_node):
                raise QueryError(
                    f"fusion point label mismatch at {canvas_node!r}"
                )
            node_map[p_node] = canvas_node
        for p_node in graph.nodes():
            if p_node not in node_map:
                fresh = self.query.fresh_node_id(0)
                self.query.add_node(fresh, graph.label(p_node))
                node_map[p_node] = fresh
        # Draw edges so every prefix stays connected, starting at a fusion
        # point when the query is non-empty.
        connected = set(attach) if attach else set()
        pending = list(graph.edges())
        reports: List[StepReport] = []
        while pending:
            for i, (u, v) in enumerate(pending):
                if not connected or u in connected or v in connected:
                    connected.update((u, v))
                    del pending[i]
                    reports.append(
                        self.add_edge(
                            node_map[u], node_map[v], graph.edge_label(u, v)
                        )
                    )
                    break
            else:  # pragma: no cover - unreachable for connected patterns
                raise QueryError("pattern is not connected")
        return reports

    def enable_similarity(self) -> StepReport:
        """Action ``SimQuery``: switch to substructure similarity search."""
        with self._action("simquery") as region:
            self.sim_flag = True
            self.option_pending = False
            self._refresh_similar_candidates()
            assert self.similar_candidates is not None
            report = StepReport(
                action=Action.SIM_QUERY,
                status=QueryStatus.SIMILAR,
                candidate_count=self.similar_candidates.candidate_count,
            )
            region.set(candidates=report.candidate_count)
        return self._finish(report, region)

    def suggestion(self) -> Optional[DeletionSuggestion]:
        """The edge PRAGUE recommends deleting to make ``Rq`` non-empty."""
        return suggest_deletion(self.query, self.manager, self.indexes, self.db_ids)

    def delete_edge(self, edge_id: Optional[int] = None) -> StepReport:
        """Action ``Modify``: delete an edge (``None`` accepts the suggestion)."""
        with self._action("modify") as region:
            suggestion = None
            if edge_id is None:
                suggestion = self.suggestion()
                if suggestion is None:
                    raise SessionError("nothing can be deleted from this query")
                edge_id = suggestion.edge_id
            apply_deletion(self.query, self.manager, edge_id)
            self.option_pending = False
            report = StepReport(
                action=Action.MODIFY,
                status=QueryStatus.SIMILAR,
                edge_id=edge_id,
                suggestion=suggestion,
            )
            self._refresh_after_modification(report)
            region.set(
                edge=edge_id, suggested=suggestion is not None,
                status=report.status.value,
            )
        return self._finish(report, region)

    def delete_edges(self, edge_ids) -> StepReport:
        """Action ``Modify`` with several edges in one gesture.

        The paper notes single-edge deletion extends trivially to multiple
        deletions; the SPIG set is pruned once per deleted edge and the
        candidate state refreshed once at the end.
        """
        from repro.core.modify import apply_multi_deletion

        with self._action("modify") as region:
            applied = apply_multi_deletion(self.query, self.manager, edge_ids)
            self.option_pending = False
            report = StepReport(
                action=Action.MODIFY,
                status=QueryStatus.SIMILAR,
                edge_id=applied[-1] if applied else None,
            )
            self._refresh_after_modification(report)
            region.set(edges=len(applied), status=report.status.value)
        return self._finish(report, region)

    def relabel_node(self, node: NodeId, new_label: str) -> StepReport:
        """Relabel a node (footnote 5: deletions plus re-insertions).

        The incident edges are deleted and re-drawn against a fresh node with
        the new label; each re-drawn edge gets its own SPIG, so the resulting
        state is exactly what a fresh formulation would have produced.
        """
        from repro.core.modify import relabel_node as _relabel

        with self._action("modify") as region:
            new_ids = _relabel(self.query, self.manager, node, new_label)
            self.option_pending = False
            report = StepReport(
                action=Action.MODIFY,
                status=QueryStatus.SIMILAR,
                edge_id=new_ids[-1] if new_ids else None,
            )
            self._refresh_after_modification(report)
            region.set(
                relabel=str(node), edges=len(new_ids),
                status=report.status.value,
            )
        return self._finish(report, region)

    @contextmanager
    def _action(self, op: str) -> Iterator[Span]:
        """One gesture's observation: the ``action.<op>`` region.

        Records ``action.start``, scopes the profiler and times the body;
        afterwards ``action.end`` carries the region's attributes and its
        duration, and the continuous exporter may rewrite its metrics files.
        A gesture that raises records no sample and no ``action.end``.
        """
        RECORDER.record("action.start", op=op)
        with profile_action(op), timed(f"action.{op}") as region:
            yield region
        RECORDER.record(
            "action.end", op=op, **region.attrs, seconds=region.seconds
        )
        if EXPORTER.active:
            EXPORTER.tick()

    def _finish(self, report: StepReport, region: Span) -> StepReport:
        """Stamp the region's duration on ``report`` and log the step."""
        report.processing_seconds = region.seconds
        self.history.append(report)
        return report

    def _refresh_after_modification(self, report: StepReport) -> None:
        """Recompute the candidate state after any Modify gesture."""
        if self.query.num_edges == 0:
            self.sim_flag = False
            self.rq = frozenset()
            self.similar_candidates = None
            report.rq_size = 0
        elif self.sim_flag:
            self._refresh_similar_candidates()
            assert self.similar_candidates is not None
            report.candidate_count = self.similar_candidates.candidate_count
        else:
            target = self.manager.target_vertex(self.query)
            self._refresh_rq(target)
            report.rq_size = len(self.rq)
            if self.rq:
                report.status = (
                    QueryStatus.FREQUENT
                    if target.fragment_list.freq_id is not None
                    else QueryStatus.INFREQUENT
                )
                self.option_pending = False
            else:
                report.status = QueryStatus.SIMILAR
                self.option_pending = True

    def run(self) -> RunReport:
        """Action ``Run``: produce the final results (Alg 1, lines 16-23)."""
        if self.query.num_edges == 0:
            raise SessionError("cannot run an empty query")
        with self._action("run") as region:
            self._ensure_current_candidates()
            report = RunReport()
            if not self.sim_flag:
                target = self.manager.target_vertex(self.query)
                verification_free = is_verification_free(
                    target, self.indexes, self.db
                )
                exact_ids = exact_verification(
                    self.query.graph(), self.rq, self.db, verification_free
                )
                report.verification_free = verification_free
                report.candidate_count = len(self.rq)
                if exact_ids:
                    report.results = QueryResults(exact_ids=exact_ids)
                else:
                    # Alg 1, lines 19-21: fall back to similarity search.  Exact
                    # matches are now proven absent, so skip the |q| level.
                    candidates = similar_sub_candidates(
                        self.query, self.sigma, self.manager, self.indexes,
                        self.db_ids, include_exact_level=False,
                    )
                    matches = similar_results_gen(
                        self.query, candidates, self.sigma, self.manager, self.db
                    )
                    report.results = QueryResults(similar=matches)
                    report.candidate_count = candidates.candidate_count
            else:
                if self.similar_candidates is None:
                    self._refresh_similar_candidates()
                assert self.similar_candidates is not None
                matches = similar_results_gen(
                    self.query, self.similar_candidates, self.sigma, self.manager,
                    self.db,
                )
                report.results = QueryResults(similar=matches)
                report.candidate_count = self.similar_candidates.candidate_count
            region.set(
                similar=self.sim_flag,
                candidates=report.candidate_count,
                verification_free=report.verification_free,
            )
        report.processing_seconds = region.seconds
        return report

    # ------------------------------------------------------------------
    @property
    def status(self) -> QueryStatus:
        if self.history:
            return self.history[-1].status
        return QueryStatus.FREQUENT

    def _refresh_rq(self, target) -> None:
        with timed("candidates.exact") as region:
            self.rq = exact_sub_candidates(target, self.indexes, self.db_ids)
            region.set(rq=len(self.rq))
        self._candidates_db_size = len(self.db)

    def _refresh_similar_candidates(self) -> None:
        self.similar_candidates = similar_sub_candidates(
            self.query, self.sigma, self.manager, self.indexes, self.db_ids
        )
        self._candidates_db_size = len(self.db)

    def _ensure_current_candidates(self) -> None:
        """Re-derive the candidate state if the database grew since the last
        refresh (``db.add`` after the final formulation action): *Run* must
        consult the universe as of the button press, not of the last edge."""
        if self._candidates_db_size == len(self.db) or self.query.num_edges == 0:
            return
        if self.sim_flag:
            self._refresh_similar_candidates()
        else:
            self._refresh_rq(self.manager.target_vertex(self.query))
