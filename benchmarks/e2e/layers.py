"""The traced pass: a wrapper table over each layer's public functions.

:func:`install` replaces every attribute in :data:`TABLE` *where it is
looked up* (``repro.core.prague.exact_verification``, not the definition in
``repro.core.verification``) with a wrapper that times the call on a
thread-local span stack.  A span's *self time* -- its duration minus the
time its child spans cover -- is charged to the entry's layer.  The HTTP
handlers (``ServiceHandler.do_*``) are the roots: each root collects the
self times of everything under it, keyed by the ``X-Prague-Request`` id the
client sent, so :func:`analyze` can join them to the client's wall times.
Spans outside any request (database load, index build, arena warm-up) are
the server's set-up.

Nothing here edits the program: the launcher ``traced_serve.py`` installs
the table and then runs ``repro serve`` unchanged.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Optional

from loadgen import REQUEST_ID_HEADER

LIGHT = "gesture-light"
CONTAINMENT = "containment-heavy"
SIMILARITY = "similarity-heavy"
MODIFY = "modify-undo"
ALL: FrozenSet[str] = frozenset({LIGHT, CONTAINMENT, SIMILARITY, MODIFY})
NONE: FrozenSet[str] = frozenset()


def _tally_run(args, result, counts) -> None:
    counts["runs"] += 1


def _tally_vertices(args, result, counts) -> None:
    counts["spig.news"] += 1
    counts["spig.vertices"] += args[0].num_vertices()


def _tally_rq(args, result, counts) -> None:
    counts["rq.calls"] += 1
    counts["rq.size"] += len(result)


def _tally_free(args, result, counts) -> None:
    counts["verify.free"] += bool(args[3])


def _tally_verify(args, result, counts) -> None:
    counts["verify.candidates"] += len(args[1])
    counts["verify.hits"] += len(result)


def _tally_dispatch(args, result, counts) -> None:
    counts["pool.dispatches"] += 1


@dataclass(frozen=True)
class Wrap:
    """One wrapped attribute, the layer it is charged to, and the workloads
    on which it must be called at least once."""

    module: str
    attr: str  # "function" or "Class.method"
    layer: str
    busy_on: FrozenSet[str]
    tally: Optional[Callable] = None
    root: bool = False

    @property
    def key(self) -> str:
        return f"{self.module}.{self.attr}"


TABLE = (
    # service.http -- the roots
    Wrap("repro.service.http", "ServiceHandler.do_GET", "http.handler", NONE, root=True),
    Wrap("repro.service.http", "ServiceHandler.do_POST", "http.handler", ALL, root=True),
    Wrap("repro.service.http", "ServiceHandler.do_DELETE", "http.handler", ALL, root=True),
    # service.sessions: lock wait and bookkeeping around the gesture
    Wrap("repro.service.sessions", "SessionManager.create", "sessions", ALL),
    Wrap("repro.service.sessions", "SessionManager.act", "sessions", ALL),
    Wrap("repro.service.sessions", "SessionManager.close", "sessions", ALL),
    # core.prague: the gesture itself
    Wrap("repro.service.sessions", "apply_action", "engine", ALL),
    Wrap("repro.core.prague", "PragueEngine.add_edge", "engine", ALL),
    Wrap("repro.core.prague", "PragueEngine.run", "engine", ALL, _tally_run),
    Wrap("repro.core.prague", "PragueEngine.delete_edge", "engine", frozenset({MODIFY})),
    Wrap("repro.core.prague", "PragueEngine.enable_similarity", "engine", frozenset({SIMILARITY})),
    # core.undo
    Wrap("repro.core.undo", "take_snapshot", "undo.snapshot", ALL),
    Wrap("repro.core.undo", "restore_snapshot", "undo.restore", frozenset({MODIFY})),
    # spig
    Wrap("repro.spig.manager", "SpigManager.on_new_edge", "spig.construct", ALL, _tally_vertices),
    Wrap("repro.spig.manager", "SpigManager.on_delete_edge", "spig.prune", frozenset({MODIFY})),
    # core.candidates
    Wrap("repro.core.prague", "exact_sub_candidates", "candidates.exact", ALL, _tally_rq),
    Wrap("repro.core.prague", "similar_sub_candidates", "candidates.similar", frozenset({SIMILARITY})),
    # core.modify
    Wrap("repro.core.prague", "suggest_deletion", "modify.suggest", frozenset({MODIFY})),
    Wrap("repro.core.prague", "apply_deletion", "modify.apply", frozenset({MODIFY})),
    # core.verification
    Wrap("repro.core.prague", "exact_verification", "verify.exact",
         frozenset({LIGHT, CONTAINMENT, MODIFY}), _tally_free),
    Wrap("repro.core.verification", "verify_batch", "verify.exact",
         frozenset({CONTAINMENT}), _tally_verify),
    Wrap("repro.core.prague", "similar_results_gen", "verify.similar", frozenset({SIMILARITY})),
    Wrap("repro.core.similar", "sim_verify_scan", "verify.similar",
         frozenset({SIMILARITY}), _tally_verify),
    # core.pool
    Wrap("repro.core.pool", "WarmPool.map", "pool.map", frozenset({CONTAINMENT}), _tally_dispatch),
    # set-up, outside any request
    Wrap("repro.cli", "read_database", "setup.db_load", ALL),
    Wrap("repro.cli", "build_indexes", "setup.index_build", ALL),
    Wrap("repro.core.plane", "SharedPlane.warm", "setup.arena_warm", ALL),
)

#: Layers whose self time is reported as a share of client wall time.
SHARE_LAYERS = (
    "http.network", "http.handler", "sessions", "engine", "undo.snapshot",
    "undo.restore", "spig.construct", "spig.prune", "candidates.exact",
    "candidates.similar", "modify.suggest", "modify.apply", "verify.exact",
    "verify.similar", "pool.map",
)


class MissingAttribute(RuntimeError):
    """A wrapped attribute no longer exists: the table is out of date."""


class Recorder:
    """Span stacks per server thread; finished requests and call counts."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.calls: Counter = Counter()
        self.outside: Dict[str, float] = defaultdict(float)
        self.requests: List[dict] = []
        self._cache_stats: Callable[[], dict] = dict

    def wrap(self, fn: Callable, spec: Wrap) -> Callable:
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            local = recorder._local
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
                local.request = None
            if spec.root and not stack:
                local.request = {
                    "id": args[0].headers.get(REQUEST_ID_HEADER),
                    "parts": defaultdict(float),
                    "counts": Counter(),
                }
            request = local.request
            frame = [0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                elapsed = end - start
                if stack:
                    stack[-1][0] += elapsed
                with recorder._lock:
                    recorder.calls[spec.key] += 1
                    if request is None:
                        recorder.outside[spec.layer] += elapsed - frame[0]
                    else:
                        request["parts"][spec.layer] += elapsed - frame[0]
                    if spec.root and not stack:
                        request.update(
                            start=start, end=end, cache=recorder._cache_stats()
                        )
                        recorder.requests.append(request)
                        local.request = None
            if spec.tally is not None and request is not None:
                spec.tally(args, result, request["counts"])
            return result

        return wrapper

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "calls": dict(self.calls),
                "outside": dict(self.outside),
                "requests": [
                    {**r, "parts": dict(r["parts"]), "counts": dict(r["counts"])}
                    for r in self.requests
                ],
            }


def _owner_and_name(spec: Wrap):
    module = importlib.import_module(spec.module)
    owner, _, name = spec.attr.rpartition(".")
    target = getattr(module, owner) if owner else module
    if not hasattr(target, name):
        raise MissingAttribute(f"wrapped attribute {spec.key} does not exist")
    return target, name


def install(recorder: Recorder) -> None:
    """Patch every :data:`TABLE` entry; raises :class:`MissingAttribute`."""
    from repro.graph.canonical import cache_stats

    resolved = [(spec, *_owner_and_name(spec)) for spec in TABLE]
    recorder._cache_stats = cache_stats
    for spec, target, name in resolved:
        setattr(target, name, recorder.wrap(getattr(target, name), spec))


# ----------------------------------------------------------------------
# joining server spans to client wall times
# ----------------------------------------------------------------------
def idle_layers(trace: dict, workload: str) -> List[str]:
    """Table entries never called on a workload that should keep them busy."""
    calls = trace["calls"]
    return [
        spec.key for spec in TABLE
        if workload in spec.busy_on and not calls.get(spec.key)
    ]


def breakdown(op, request: Optional[dict]) -> Dict[str, float]:
    """Where one request's client wall time went, in seconds.

    Network time is what the client waited outside the handler: from its
    send to the handler's start, and from the handler's end to the last
    byte read (both processes read the same monotonic clock).  The parts
    sum to the wall time when the join is right and no span overlaps.
    """
    if request is None:
        return {"unaccounted": op.end - op.start}
    parts = dict(request["parts"])
    parts["http.network"] = (request["start"] - op.start) + (op.end - request["end"])
    parts["unaccounted"] = (op.end - op.start) - sum(parts.values())
    return parts


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def analyze(ops, trace: dict) -> dict:
    """Per-layer metrics over the client ops ``ops`` (already windowed)."""
    by_id = {r["id"]: r for r in trace["requests"]}
    totals: Dict[str, float] = defaultdict(float)
    by_op: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
    op_count: Counter = Counter()
    counts: Counter = Counter()
    wall = 0.0
    worst = 0.0
    joined = []
    for op in ops:
        request = by_id.get(op.request_id)
        parts = breakdown(op, request)
        seconds = op.end - op.start
        wall += seconds
        op_count[op.op] += 1
        for layer, value in parts.items():
            totals[layer] += value
            by_op[op.op][layer] += value
        if request is None:
            continue
        joined.append(request)
        counts.update(request["counts"])
        if min(v for k, v in parts.items() if k != "unaccounted") < 0:
            worst = max(worst, 1.0)
        worst = max(worst, abs(parts["unaccounted"]) / seconds)

    share = {layer: 100.0 * _ratio(totals[layer], wall) for layer in SHARE_LAYERS}
    joined.sort(key=lambda r: r["end"])
    hits = misses = 0
    if len(joined) >= 2:
        first, last = joined[0]["cache"], joined[-1]["cache"]
        hits = sum(last[k] - first[k] for k in ("graph_hits", "lru_hits"))
        misses = last["misses"] - first["misses"]
    verify_time = totals["verify.exact"] + totals["verify.similar"] + totals["pool.map"]
    runs = counts["runs"]
    metrics = {f"{layer}_pct": share[layer] for layer in SHARE_LAYERS}
    metrics.update({
        "http.handler_self_pct": metrics.pop("http.handler_pct"),
        "sessions.self_pct": metrics.pop("sessions_pct"),
        "engine.self_pct": metrics.pop("engine_pct"),
        "spig.vertices": _ratio(counts["spig.vertices"], counts["spig.news"]),
        "canonical.hit_ratio": _ratio(hits, hits + misses),
        "candidates.rq_size": _ratio(counts["rq.size"], counts["rq.calls"]),
        "verify.candidates": _ratio(counts["verify.candidates"], runs),
        "verify.hits": _ratio(counts["verify.hits"], runs),
        "verify.precision": _ratio(counts["verify.hits"], counts["verify.candidates"]),
        "verify.free_runs": _ratio(counts["verify.free"], runs),
        "pool.dispatches": _ratio(counts["pool.dispatches"], runs),
        "pool.map_share": _ratio(totals["pool.map"], verify_time),
        "unaccounted_pct": 100.0 * _ratio(totals["unaccounted"], wall),
    })
    per_op = {
        name: {
            layer: 1000.0 * value / op_count[name]
            for layer, value in layers.items()
        }
        for name, layers in by_op.items()
    }
    return {
        "metrics": metrics,
        "per_op_ms": per_op,
        "op_counts": dict(op_count),
        "requests": len(ops),
        "unjoined": len(ops) - len(joined),
        "max_residual_frac": worst,
    }


def setup_metrics(trace: dict, setup_s: float) -> Dict[str, float]:
    """Set-up phases of the traced boot, in seconds; ``setup.other_s`` is
    the rest of spawn-to-ready (imports, plane and socket set-up)."""
    outside = trace["outside"]
    phases = {
        "setup.db_load_s": outside.get("setup.db_load", 0.0),
        "setup.index_build_s": outside.get("setup.index_build", 0.0),
        "setup.arena_warm_s": outside.get("setup.arena_warm", 0.0),
    }
    phases["setup.other_s"] = setup_s - sum(phases.values())
    return phases
