"""Formulation sessions and the SRT timeline model.

System response time (SRT) is "the duration between the time a user presses
the Run icon and the time when the user gets the query results".  In the
blended paradigm the per-step work overlaps the GUI latency the user spends
drawing (at least ~2 s per edge, Section VIII-B); only the *backlog* — work
that did not fit into the available latency — plus the final Run-time work is
felt by the user.  In the traditional paradigm nothing overlaps and the SRT
is the whole evaluation time.

:class:`QuerySpec` is a scripted formulation: dropped nodes, the edge sequence
(the paper's "default sequence" labels in Figure 8), and where applicable an
alternative sequence (Table III) and the step at which ``Rq`` empties.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.config import DEFAULT_EDGE_LATENCY_SECONDS
from repro.core.prague import PragueEngine, RunReport, StepReport
from repro.core.results import QueryResults
from repro.graph.labeled_graph import Graph, NodeId
from repro.obs.srt import SrtLedger, build_ledger, events_from_reports
from repro.obs.tracer import timed


@dataclass(frozen=True)
class QuerySpec:
    """A scripted visual query formulation."""

    name: str
    nodes: Dict[NodeId, str]
    edges: Tuple[Tuple[NodeId, NodeId], ...]
    edge_labels: Dict[Tuple[NodeId, NodeId], str] = field(default_factory=dict)

    @property
    def size(self) -> int:
        return len(self.edges)

    def graph(self) -> Graph:
        """The final query graph the user intends to pose.

        Every declared node is part of the intended query — including nodes
        the script drops but never wires to an edge.  (The *engine's* live
        fragment, :meth:`repro.query_graph.VisualQuery.graph`, deliberately
        counts only edge-incident nodes; the ground-truth spec must not.)
        """
        g = Graph()
        for node, label in self.nodes.items():
            g.add_node(node, label)
        for u, v in self.edges:
            g.add_edge(u, v, self.edge_labels.get((u, v)))
        return g

    def reordered(self, order: Sequence[int], suffix: str = "-alt") -> "QuerySpec":
        """The same query formulated in a different edge order (Table III).

        ``order`` holds 1-based positions into the default sequence.
        """
        if sorted(order) != list(range(1, len(self.edges) + 1)):
            raise ValueError("order must be a permutation of 1..|edges|")
        edges = tuple(self.edges[i - 1] for i in order)
        return replace(self, name=self.name + suffix, edges=edges)


@dataclass
class SessionTrace:
    """Everything a simulated formulation produced, timeline included."""

    spec_name: str
    step_reports: List[StepReport]
    run_report: RunReport
    edge_latency: float
    backlog_before_run: float
    srt_seconds: float
    formulation_seconds: float
    #: Per-action SRT decomposition (:mod:`repro.obs.srt`); the scalar
    #: ``backlog_before_run``/``srt_seconds`` fields above are its folds.
    ledger: Optional[SrtLedger] = None

    @property
    def results(self) -> QueryResults:
        return self.run_report.results

    @property
    def total_step_processing(self) -> float:
        return sum(r.processing_seconds for r in self.step_reports)

    @property
    def spig_seconds_per_step(self) -> List[float]:
        return [r.spig_seconds for r in self.step_reports]


def formulate(
    engine: PragueEngine,
    spec: QuerySpec,
    edge_latency: float = DEFAULT_EDGE_LATENCY_SECONDS,
) -> SessionTrace:
    """Simulate a user formulating ``spec`` on ``engine`` and pressing Run.

    The timeline model: each drawn edge offers ``edge_latency`` seconds during
    which the engine's per-step processing runs in the background; processing
    that exceeds the offered latency carries over as backlog.  The SRT felt at
    Run is ``backlog + run processing``.
    """
    for node, label in spec.nodes.items():
        engine.add_node(node, label)
    reports: List[StepReport] = []
    for u, v in spec.edges:
        reports.append(engine.add_edge(u, v, spec.edge_labels.get((u, v))))
    run_report = engine.run()
    ledger = build_ledger(
        events_from_reports(reports, edge_latency),
        run_seconds=run_report.processing_seconds,
    )
    return SessionTrace(
        spec_name=spec.name,
        step_reports=reports,
        run_report=run_report,
        edge_latency=edge_latency,
        backlog_before_run=ledger.backlog_before_run,
        srt_seconds=ledger.srt_seconds,
        formulation_seconds=edge_latency * len(spec.edges),
        ledger=ledger,
    )


def traditional_srt(
    search: Callable[[Graph], object], query: Graph
) -> Tuple[object, float]:
    """SRT of a traditional (non-blended) system: full evaluation at Run."""
    with timed("srt.traditional") as region:
        results = search(query)
    return results, region.seconds
