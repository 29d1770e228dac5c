"""The continuous profiling plane: a statistical wall-clock sampler.

Histograms (:mod:`repro.obs.metrics`) say *how slow* an action was; this
module says *why* — which frames the process was actually executing while
the action ran.  A daemon thread polls ``sys._current_frames()`` at
``REPRO_PROFILE_HZ`` (default off; ~50 Hz is the recommended always-on
rate) and folds every thread's stack into a collapsed-stack profile:
``"pkg/mod.py:outer;pkg/mod.py:inner" -> sample count``, the format
flamegraph tooling has standardized on.

Sampling is *attributed*: :func:`profile_action` marks the dynamic extent
of one engine action on one thread, and captures the active request id
(:mod:`repro.obs.requests`) at entry — so every sample lands in a
``(request_id, action)`` slice and a profile can be cut per
``/v1/sessions/<id>/actions`` call.  Verification workers run their own
sampler (seeded through the :mod:`repro.obs.snapshot` worker-delta
protocol) and their samples merge home tagged with the worker's name, so
pooled VF2 chunks appear in the parent's profile under the same request id.

The memory tier is opt-in (``REPRO_PROFILE_MEM=N``): actions and the
arena build are bracketed with ``tracemalloc`` snapshots and the
top-N allocating lines (by size delta) are kept per site.

Everything here is pure stdlib.  The off-path cost is one attribute check
per action (:data:`_NOOP` is shared), bounded like every other obs surface
by ``benchmarks/bench_obs_overhead.py``.

>>> PROFILER.force(200.0)         # doctest: +SKIP
>>> with profile_action("new"):   # doctest: +SKIP
...     hot_loop()
>>> PROFILER.force(None)          # doctest: +SKIP
"""

from __future__ import annotations

import os
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.config import profile_depth, profile_hz, profile_mem_topn
from repro.obs import requests as _requests

#: Slice key for samples taken outside any action/request scope.
_UNSCOPED: Tuple[str, str] = ("", "")


def _frame_label(code: Any) -> str:
    """``pkg-relative-path:function`` for one code object.

    Paths are trimmed to start at the ``repro/`` package when possible so
    collapsed stacks are stable across checkouts and virtualenvs.
    """
    filename = code.co_filename.replace("\\", "/")
    marker = filename.rfind("/repro/")
    if marker >= 0:
        short = filename[marker + 1:]
    else:
        short = filename.rsplit("/", 1)[-1]
    return f"{short}:{code.co_name}"


class Profiler:
    """Process-wide statistical sampler (one per process, like the tracer).

    Thread model: the sampler thread reads ``sys._current_frames()`` and
    mutates the slice dictionaries under ``_lock``; action scopes mutate the
    per-thread scope map under the same lock; renderers and ``collect`` copy
    under it.  All sampling state lives here — there is no per-frame
    bookkeeping on the threads being profiled.
    """

    def __init__(self) -> None:
        self._hz_raw = os.environ.get("REPRO_PROFILE_HZ")
        self._mem_raw = os.environ.get("REPRO_PROFILE_MEM")
        self._override: Optional[float] = None
        self._mem_override: Optional[int] = None
        self._lock = threading.Lock()
        #: thread id -> (request_id or "", action name) for the sampler.
        self._scopes: Dict[int, Tuple[str, str]] = {}
        #: (request_id or "", action or "") -> {folded stack: sample count}.
        self._slices: Dict[Tuple[str, str], Dict[str, int]] = {}
        self._label_cache: Dict[int, str] = {}
        #: Memory tier: site name -> last tracemalloc bracket result.
        self._mem_sites: Dict[str, Dict[str, Any]] = {}
        self.samples: int = 0
        self.hz: float = 0.0
        self.enabled: bool = False
        self.mem_topn: int = 0
        self.depth: int = profile_depth()
        self._generation = 0
        self._thread: Optional[threading.Thread] = None
        self._thread_id: Optional[int] = None
        self._started_tracemalloc = False
        self._apply(profile_hz())
        self._apply_mem(profile_mem_topn())

    # ------------------------------------------------------------------
    # switching (mirrors Tracer/FlightRecorder: env knob + override)
    # ------------------------------------------------------------------
    def sync_env(self) -> bool:
        """Refresh the sampler rate from the environment (called per action).

        Raw-string caching keeps the off-path at one ``environ`` probe and a
        compare — ``float()`` in try/except per action would blow the
        ``sync_env`` budget in ``bench_obs_overhead``.
        """
        raw = os.environ.get("REPRO_PROFILE_HZ")
        if raw != self._hz_raw:
            self._hz_raw = raw
            if self._override is None:
                self._apply(profile_hz())
        mem_raw = os.environ.get("REPRO_PROFILE_MEM")
        if mem_raw != self._mem_raw:
            self._mem_raw = mem_raw
            if self._mem_override is None:
                self._apply_mem(profile_mem_topn())
        return self.enabled

    def force(self, hz: Optional[float]) -> None:
        """Install (or with ``None`` remove) a rate override of the env knob."""
        self._override = hz
        self._apply(profile_hz() if hz is None else float(hz))

    def force_mem(self, topn: Optional[int]) -> None:
        """Install (or with ``None`` remove) a memory-tier top-N override."""
        self._mem_override = topn
        self._apply_mem(profile_mem_topn() if topn is None else int(topn))

    def _apply(self, hz: float) -> None:
        hz = min(max(float(hz), 0.0), 1000.0)
        self.hz = hz
        self.enabled = hz > 0.0
        if self.enabled:
            self.depth = profile_depth()
            if self._thread is None or not self._thread.is_alive():
                self._generation += 1
                generation = self._generation
                thread = threading.Thread(
                    target=self._run, args=(generation,),
                    name="repro-profiler", daemon=True,
                )
                self._thread = thread
                thread.start()
        else:
            # The loop observes the generation bump at its next wake-up and
            # exits; no join — it is a daemon and holds no resources.
            self._generation += 1
            self._thread = None
            self._thread_id = None

    def _apply_mem(self, topn: int) -> None:
        self.mem_topn = max(int(topn), 0)

    # ------------------------------------------------------------------
    # the sampling loop
    # ------------------------------------------------------------------
    def _run(self, generation: int) -> None:
        self._thread_id = threading.get_ident()
        while self._generation == generation and self.hz > 0.0:
            time.sleep(1.0 / self.hz)
            if self._generation != generation:
                break
            try:
                self._sample_once()
            except Exception:  # pragma: no cover - must never kill sampling
                pass

    def _sample_once(self) -> None:
        frames = sys._current_frames()
        own = self._thread_id
        with self._lock:
            for thread_id, frame in frames.items():
                if thread_id == own:
                    continue
                folded = self._fold(frame)
                if not folded:
                    continue
                key = self._scopes.get(thread_id, _UNSCOPED)
                bucket = self._slices.get(key)
                if bucket is None:
                    bucket = self._slices[key] = {}
                bucket[folded] = bucket.get(folded, 0) + 1
                self.samples += 1

    def _fold(self, frame: Any) -> str:
        """One thread's stack as ``root;...;leaf``, depth-bounded at the root."""
        labels: List[str] = []
        cache = self._label_cache
        while frame is not None:
            code = frame.f_code
            label = cache.get(id(code))
            if label is None:
                label = _frame_label(code)
                cache[id(code)] = label
            labels.append(label)
            frame = frame.f_back
        if len(labels) > self.depth:
            del labels[self.depth:]  # trim root-end frames, keep the leaves
        labels.reverse()
        return ";".join(labels)

    # ------------------------------------------------------------------
    # attribution scopes
    # ------------------------------------------------------------------
    def set_scope(self, request_id: Optional[str],
                  action: Optional[str]) -> None:
        """Unconditionally scope the *current thread*'s future samples.

        Worker processes use this (via
        :func:`repro.obs.snapshot.begin_worker_capture`) where there is no
        enclosing action to restore; handler threads should prefer
        :func:`profile_action`.
        """
        with self._lock:
            self._scopes[threading.get_ident()] = (
                request_id or "", action or "",
            )

    def enter_action(self, name: str) -> Optional[Tuple[str, str]]:
        tid = threading.get_ident()
        with self._lock:
            previous = self._scopes.get(tid)
            self._scopes[tid] = (
                _requests.current_request_id() or "", name,
            )
        return previous

    def exit_action(self, previous: Optional[Tuple[str, str]]) -> None:
        tid = threading.get_ident()
        with self._lock:
            if previous is None:
                self._scopes.pop(tid, None)
            else:
                self._scopes[tid] = previous

    # ------------------------------------------------------------------
    # memory tier
    # ------------------------------------------------------------------
    def mem_bracket_start(self) -> Optional[Any]:
        """Take the opening tracemalloc snapshot (``None`` when off)."""
        if not self.mem_topn:
            return None
        import tracemalloc

        if not tracemalloc.is_tracing():
            tracemalloc.start()
            self._started_tracemalloc = True
        return tracemalloc.take_snapshot()

    def mem_bracket_end(self, site: str, before: Optional[Any]) -> None:
        """Close a bracket: keep the top-N allocating lines for ``site``."""
        if before is None or not self.mem_topn:
            return
        import tracemalloc

        if not tracemalloc.is_tracing():  # turned off mid-bracket
            return
        after = tracemalloc.take_snapshot()
        current, peak = tracemalloc.get_traced_memory()
        top = []
        for stat in after.compare_to(before, "lineno")[:self.mem_topn]:
            top.append({
                "site": str(stat.traceback),
                "size_diff_bytes": stat.size_diff,
                "count_diff": stat.count_diff,
            })
        with self._lock:
            self._mem_sites[site] = {
                "top": top,
                "traced_bytes": current,
                "peak_bytes": peak,
            }

    def tracemalloc_peak_bytes(self) -> int:
        """Peak traced allocation since tracing started (0 when not tracing)."""
        import tracemalloc

        if not tracemalloc.is_tracing():
            return 0
        return tracemalloc.get_traced_memory()[1]

    # ------------------------------------------------------------------
    # snapshots, worker deltas, reset
    # ------------------------------------------------------------------
    def collect(self) -> Dict[str, Any]:
        """The accumulated profile as one JSON-able (and picklable) dict."""
        with self._lock:
            slices = [
                {
                    "request_id": request_id or None,
                    "action": action or None,
                    "stacks": dict(stacks),
                }
                for (request_id, action), stacks in self._slices.items()
            ]
            return {
                "hz": self.hz,
                "samples": self.samples,
                "slices": slices,
                "memory": {k: dict(v) for k, v in self._mem_sites.items()},
            }

    def merge(self, profile: Optional[Dict[str, Any]],
              source: Optional[str] = None) -> None:
        """Fold another process's :meth:`collect` output into this profile.

        Worker frames are prefixed with ``worker:<source>;`` so a flamegraph
        shows pool work as its own subtree while the slice keys (request id,
        action) still line up with the parent's — merged chunk samples land
        in the same request-scoped slice the action ran under.
        """
        if not profile:
            return
        prefix = f"worker:{source};" if source else ""
        with self._lock:
            for entry in profile.get("slices", ()):
                key = (
                    entry.get("request_id") or "",
                    entry.get("action") or "",
                )
                bucket = self._slices.get(key)
                if bucket is None:
                    bucket = self._slices[key] = {}
                for folded, count in entry.get("stacks", {}).items():
                    folded = prefix + folded
                    bucket[folded] = bucket.get(folded, 0) + int(count)
                    self.samples += int(count)
            for site, stats in profile.get("memory", {}).items():
                name = f"{site}.{source}" if source else site
                self._mem_sites[name] = dict(stats)

    def slice_for_request(self, request_id: str) -> Dict[str, int]:
        """All samples attributed to one request id, merged across actions."""
        merged: Dict[str, int] = {}
        with self._lock:
            for (rid, _action), stacks in self._slices.items():
                if rid != request_id:
                    continue
                for folded, count in stacks.items():
                    merged[folded] = merged.get(folded, 0) + count
        return merged

    def stacks(self) -> Dict[str, int]:
        """Every sample regardless of attribution, as one folded mapping."""
        merged: Dict[str, int] = {}
        with self._lock:
            for stacks in self._slices.values():
                for folded, count in stacks.items():
                    merged[folded] = merged.get(folded, 0) + count
        return merged

    def reset(self) -> None:
        """Drop all samples and scopes (test/bench/worker isolation)."""
        with self._lock:
            self._slices.clear()
            self._scopes.clear()
            self._mem_sites.clear()
            self.samples = 0


#: The process-wide profiler (sampling off until REPRO_PROFILE_HZ/force).
PROFILER = Profiler()


class _ActionScope:
    """Context manager scoping one engine action for the sampler."""

    __slots__ = ("_name", "_previous", "_mem_before")

    def __init__(self, name: str) -> None:
        self._name = name

    def __enter__(self) -> "_ActionScope":
        self._previous = (
            PROFILER.enter_action(self._name) if PROFILER.enabled else None
        )
        self._mem_before = PROFILER.mem_bracket_start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        if PROFILER.enabled:
            PROFILER.exit_action(self._previous)
        PROFILER.mem_bracket_end(f"action.{self._name}", self._mem_before)


class _NoopScope:
    """Shared do-nothing scope for the disabled path."""

    __slots__ = ()

    def __enter__(self) -> "_NoopScope":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        return None


_NOOP = _NoopScope()


def profile_action(name: str) -> Any:
    """Scope an action (or a hot block such as ``arena.build``) for sample
    attribution and, with the memory tier on, a ``tracemalloc`` bracket
    keyed ``action.<name>``.

    Composes with the action's timed region on one line::

        with profile_action("new"), timed("action.new") as region:
            ...

    Costs two attribute loads and a branch when the profiling plane is
    entirely off.
    """
    if not PROFILER.enabled and not PROFILER.mem_topn:
        return _NOOP
    return _ActionScope(name)


# ----------------------------------------------------------------------
# rendering: collapsed stacks, top frames, flamegraph HTML
# ----------------------------------------------------------------------
def folded_lines(stacks: Dict[str, int]) -> List[str]:
    """``stack count`` lines, busiest stack first — flamegraph.pl input."""
    ordered = sorted(stacks.items(), key=lambda kv: (-kv[1], kv[0]))
    return [f"{folded} {count}" for folded, count in ordered]


def top_frames(stacks: Dict[str, int], n: int = 10) -> List[Tuple[str, int]]:
    """The ``n`` hottest frames by *self* samples (leaf-frame attribution)."""
    self_counts: Dict[str, int] = {}
    for folded, count in stacks.items():
        leaf = folded.rsplit(";", 1)[-1]
        self_counts[leaf] = self_counts.get(leaf, 0) + count
    ordered = sorted(self_counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return ordered[:max(int(n), 0)]


def _escape_html(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        .replace('"', "&quot;")
    )


def _build_trie(stacks: Dict[str, int]) -> Dict[str, Any]:
    """Fold collapsed stacks into a nested ``{name, value, children}`` trie."""
    root: Dict[str, Any] = {"name": "all", "value": 0, "children": {}}
    for folded, count in stacks.items():
        root["value"] += count
        node = root
        for label in folded.split(";"):
            child = node["children"].get(label)
            if child is None:
                child = {"name": label, "value": 0, "children": {}}
                node["children"][label] = child
            child["value"] += count
            node = child
    return root


_FLAME_PALETTE = ("#e66", "#e96", "#ec6", "#d86", "#e77", "#da6")


def _render_node(node: Dict[str, Any], total: int, depth: int) -> str:
    width_pct = 100.0 * node["value"] / total
    if width_pct < 0.1:  # sub-pixel at any reasonable window width
        return ""
    color = _FLAME_PALETTE[depth % len(_FLAME_PALETTE)]
    label = _escape_html(node["name"])
    pct = f"{width_pct:.1f}"
    children = "".join(
        _render_node(child, node["value"] or 1, depth + 1)
        for child in sorted(
            node["children"].values(), key=lambda c: -c["value"]
        )
    )
    return (
        f'<div class="fr" style="width:{width_pct:.3f}%" '
        f'title="{label} — {node["value"]} samples ({pct}% of parent)">'
        f'<span class="lb" style="background:{color}">{label}</span>'
        f'<div class="ch">{children}</div></div>'
    )


def render_flamegraph_html(stacks: Dict[str, int],
                           title: str = "repro profile") -> str:
    """A self-contained (zero-dependency) flamegraph as one HTML page.

    Icicle layout: root at the top, callees nested below, box width
    proportional to sample share.  Pure HTML/CSS — no scripts to vendor, so
    the artifact is safe to attach to CI runs and open anywhere.
    """
    total = sum(stacks.values())
    if total <= 0:
        body = "<p>(no samples recorded)</p>"
    else:
        trie = _build_trie(stacks)
        children = "".join(
            _render_node(child, total, 1)
            for child in sorted(
                trie["children"].values(), key=lambda c: -c["value"]
            )
        )
        body = (
            f'<div class="fr" style="width:100%" '
            f'title="all — {total} samples">'
            f'<span class="lb" style="background:#ccc">all '
            f'({total} samples)</span>'
            f'<div class="ch">{children}</div></div>'
        )
    return f"""<!DOCTYPE html>
<html lang="en"><head><meta charset="utf-8">
<title>{_escape_html(title)}</title>
<style>
body {{ font: 12px/1.4 monospace; margin: 16px; }}
.fr {{ display: inline-block; vertical-align: top; min-width: 1px;
      box-sizing: border-box; }}
.lb {{ display: block; overflow: hidden; white-space: nowrap;
      text-overflow: ellipsis; border: 1px solid #fff; padding: 1px 2px;
      box-sizing: border-box; }}
.ch {{ width: 100%; white-space: nowrap; }}
</style></head><body>
<h1>{_escape_html(title)}</h1>
{body}
</body></html>
"""


def profile_summary(profile: Dict[str, Any], top: int = 8) -> Dict[str, Any]:
    """A compact JSON summary of a :meth:`Profiler.collect` payload.

    What ``/obs`` and ``repro top`` carry: rate, totals, the hottest frames
    by self samples, and per-slice sample counts — not the full stack set.
    """
    merged: Dict[str, int] = {}
    slices = []
    for entry in profile.get("slices", ()):
        stacks = entry.get("stacks", {})
        for folded, count in stacks.items():
            merged[folded] = merged.get(folded, 0) + int(count)
        slices.append({
            "request_id": entry.get("request_id"),
            "action": entry.get("action"),
            "samples": sum(stacks.values()),
        })
    slices.sort(key=lambda s: -s["samples"])
    return {
        "hz": profile.get("hz", 0.0),
        "samples": profile.get("samples", 0),
        "top_frames": [
            {"frame": frame, "self_samples": count}
            for frame, count in top_frames(merged, top)
        ],
        "slices": slices[:top],
        "memory_sites": sorted(profile.get("memory", {})),
    }
