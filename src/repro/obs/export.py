"""Exporters: span trees, metrics and SRT ledgers as JSON or tables.

Two render targets, no dependencies:

* **JSON** — :func:`report_to_dict` bundles everything a traced session
  produced into one ``json.dump``-ready dict (what ``python -m repro trace
  --json`` writes);
* **human-readable** — :func:`render_span_tree`, :func:`render_metrics` and
  :func:`render_ledger` produce aligned monospace tables (what the CLI
  prints; ``docs/PERFORMANCE.md`` shows an annotated example).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence

from repro.obs.recorder import render_event
from repro.obs.srt import SrtLedger
from repro.obs.tracer import Span

#: Current version of every JSON artifact ``repro.obs`` writes (trace
#: reports, post-mortem bundles, perf trajectories).  Version 1 is the
#: pre-envelope era: payloads with no ``"schema"`` key at all.
SCHEMA_VERSION = 2

#: Artifact kinds the loaders accept.  ``obs-event`` (one JSONL line of a
#: continuous export) and ``metrics-snapshot`` (the periodically rewritten
#: snapshot ``python -m repro top`` tails) joined in the cross-process
#: telemetry PR; earlier readers reject them loudly by kind, not silently.
#: ``service-response`` wraps every JSON body the session service returns
#: (:mod:`repro.service.protocol`), so clients version-check responses with
#: the same ``open_envelope`` the other artifact readers use.
#: ``profile`` is a sampled collapsed-stack profile (``python -m repro
#: profile --json`` and the exporter's ``profiles/profile.json``).
ENVELOPE_KINDS = (
    "trace-report", "postmortem", "trajectory",
    "obs-event", "metrics-snapshot", "service-response",
    "profile",
)


def envelope(kind: str, payload: Dict[str, Any]) -> Dict[str, Any]:
    """Wrap ``payload`` in the schema-versioned envelope.

    The envelope is flat — ``{"schema": 2, "kind": ..., **payload}`` — so
    existing consumers keep indexing the payload keys directly while loaders
    gain a version to dispatch on as the formats evolve.
    """
    if kind not in ENVELOPE_KINDS:
        raise ValueError(f"unknown artifact kind {kind!r}")
    out: Dict[str, Any] = {"schema": SCHEMA_VERSION, "kind": kind}
    out.update(payload)
    return out


def open_envelope(
    data: Dict[str, Any], expect_kind: Optional[str] = None
) -> Dict[str, Any]:
    """Validate a loaded artifact and return it (round-trip of `envelope`).

    Artifacts written before versioning (no ``"schema"`` key) are accepted as
    version 1 and stamped accordingly; future major versions are rejected
    loudly rather than misread silently.
    """
    if not isinstance(data, dict):
        raise ValueError("artifact must be a JSON object")
    version = data.get("schema", 1)
    if not isinstance(version, int) or version < 1:
        raise ValueError(f"bad schema version {version!r}")
    if version > SCHEMA_VERSION:
        raise ValueError(
            f"artifact schema {version} is newer than supported "
            f"({SCHEMA_VERSION}); upgrade this checkout to read it"
        )
    out = dict(data)
    out["schema"] = version
    if expect_kind is not None:
        kind = out.get("kind")
        # Version-1 artifacts predate the kind tag; trust the caller then.
        if version >= 2 and kind != expect_kind:
            raise ValueError(
                f"expected a {expect_kind!r} artifact, got {kind!r}"
            )
        out.setdefault("kind", expect_kind)
    return out


def _fmt_ms(seconds: float) -> str:
    return f"{1000 * seconds:9.2f} ms"


def _fmt_attrs(attrs: Dict[str, Any]) -> str:
    if not attrs:
        return ""
    return "  " + " ".join(f"{k}={v}" for k, v in attrs.items())


def render_span_tree(
    roots: Sequence[Any],
    min_seconds: float = 0.0,
) -> str:
    """The span forest as an indented tree with per-span durations.

    ``roots`` are live :class:`~repro.obs.tracer.Span`\\ s or their
    ``to_dict()`` form (what trace reports and request bundles carry).
    ``min_seconds`` prunes spans shorter than the threshold (their children
    are pruned with them) — useful on very chatty traces.
    """
    return "\n".join(_span_lines(roots, min_seconds))


def _span_lines(
    roots: Sequence[Any], min_seconds: float = 0.0, hide: Sequence[str] = (),
) -> List[str]:
    """``├─``/``└─`` tree lines for dict-form spans (live ones converted)."""
    rows: List[tuple] = []  # (tree label, dict-form span)

    def walk(node: Dict[str, Any], label: str, prefix: str) -> None:
        rows.append((label + str(node.get("name", "?")), node))
        kept = [c for c in node.get("children") or ()
                if c.get("seconds", 0.0) >= min_seconds]
        for i, child in enumerate(kept):
            last = i == len(kept) - 1
            walk(child, prefix + ("└─ " if last else "├─ "),
                 prefix + ("   " if last else "│  "))

    for root in roots:
        node = root if isinstance(root, dict) else root.to_dict()
        if node.get("seconds", 0.0) >= min_seconds:
            walk(node, "", "")
    width = 2 + max((len(label) for label, _ in rows), default=0)
    lines = []
    for label, node in rows:
        attrs = {k: v for k, v in (node.get("attrs") or {}).items()
                 if k not in hide}
        lines.append(f"{label:<{width}}{_fmt_ms(node.get('seconds', 0.0))}"
                     f"{_fmt_attrs(attrs)}")
    return lines


def render_metrics(snapshot: Dict[str, Dict[str, Any]]) -> str:
    """Counters and gauges as one aligned two-column table."""
    rows: List[str] = []
    counters = snapshot.get("counters", {})
    gauges = snapshot.get("gauges", {})
    names = list(sorted(counters)) + [f"{name} (gauge)" for name in sorted(gauges)]
    if not names:
        return "(no metrics recorded)"
    width = 2 + max(len(name) for name in names)
    for name in sorted(counters):
        rows.append(f"{name:<{width}}{counters[name]}")
    for name in sorted(gauges):
        rows.append(f"{name + ' (gauge)':<{width}}{gauges[name]}")
    return "\n".join(rows)


def render_histograms(summaries: Dict[str, Dict[str, Any]]) -> str:
    """Histogram summaries as one aligned table (count, percentiles, max).

    ``summaries`` is :func:`repro.obs.histogram.histogram_summaries` output
    (or the ``"histograms"`` section of a metrics snapshot).
    """
    if not summaries:
        return "(no latency observations recorded)"
    width = 2 + max(len(name) for name in summaries)
    header = (
        f"{'site':<{width}}{'count':>8}{'p50':>12}{'p90':>12}"
        f"{'p99':>12}{'max':>12}"
    )
    lines = [header, "-" * len(header)]
    for name in sorted(summaries):
        s = summaries[name]
        lines.append(
            f"{name:<{width}}{s['count']:>8}"
            f"{1000 * s['p50_s']:>9.2f} ms"
            f"{1000 * s['p90_s']:>9.2f} ms"
            f"{1000 * s['p99_s']:>9.2f} ms"
            f"{1000 * s['max_s']:>9.2f} ms"
        )
    return "\n".join(lines)


def _prom_escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def render_prometheus(snapshot: Dict[str, Dict[str, Any]]) -> str:
    """A metrics snapshot in Prometheus text exposition format.

    Three families carry everything: ``repro_counter{name=...}``,
    ``repro_gauge{name=...}`` and the summary-typed
    ``repro_latency_seconds{site=...,quantile=...}`` (plus the conventional
    ``_sum``/``_count`` series) for the latency histograms.  Dotted obs
    names ride in labels rather than being mangled into metric names, so
    the vocabulary documented in ``docs/PERFORMANCE.md`` survives scraping.
    """
    lines: List[str] = [
        "# HELP repro_counter repro.obs counters (dotted name in the label)",
        "# TYPE repro_counter counter",
    ]
    for name, value in sorted(snapshot.get("counters", {}).items()):
        lines.append(f'repro_counter{{name="{_prom_escape(name)}"}} {value}')
    lines += [
        "# HELP repro_gauge repro.obs gauges (dotted name in the label)",
        "# TYPE repro_gauge gauge",
    ]
    for name, value in sorted(snapshot.get("gauges", {}).items()):
        lines.append(f'repro_gauge{{name="{_prom_escape(name)}"}} {value}')
    lines += [
        "# HELP repro_latency_seconds per-site latency distributions",
        "# TYPE repro_latency_seconds summary",
    ]
    for site, s in sorted(snapshot.get("histograms", {}).items()):
        label = _prom_escape(site)
        for p in (50, 90, 99):
            lines.append(
                f'repro_latency_seconds{{site="{label}",'
                f'quantile="0.{p}"}} {s[f"p{p}_s"]}'
            )
        lines.append(f'repro_latency_seconds_sum{{site="{label}"}} '
                     f'{s["sum_s"]}')
        lines.append(f'repro_latency_seconds_count{{site="{label}"}} '
                     f'{s["count"]}')
    slo = snapshot.get("slo", {})
    if slo:
        lines += [
            "# HELP repro_slo_attainment rolling-window good fraction "
            "per objective",
            "# TYPE repro_slo_attainment gauge",
        ]
        for name, state in sorted(slo.items()):
            if state.get("attainment") is not None:
                lines.append(
                    f'repro_slo_attainment{{objective="{_prom_escape(name)}"}} '
                    f'{state["attainment"]}'
                )
        lines += [
            "# HELP repro_slo_burn_rate error-budget burn rate per objective "
            "(1.0 = failing at exactly the budgeted rate)",
            "# TYPE repro_slo_burn_rate gauge",
        ]
        for name, state in sorted(slo.items()):
            if state.get("burn_rate") is not None:
                lines.append(
                    f'repro_slo_burn_rate{{objective="{_prom_escape(name)}"}} '
                    f'{state["burn_rate"]}'
                )
    return "\n".join(lines)


def _hit_rates(counters: Dict[str, Any]) -> List[str]:
    """``name: hits/total (rate)`` lines for every ``*.hit``/``*.miss`` pair
    plus the canonical-cache bridge."""
    lines: List[str] = []
    graph_hits = counters.get("canonical.graph_hits", 0)
    lru_hits = counters.get("canonical.lru_hits", 0)
    misses = counters.get("canonical.misses", 0)
    total = graph_hits + lru_hits + misses
    if total:
        lines.append(
            f"  canonical cache     {graph_hits + lru_hits}/{total} hits "
            f"({100 * (graph_hits + lru_hits) / total:.1f}%, "
            f"{lru_hits} via LRU)"
        )
    prefixes = sorted(
        name[: -len(".hit")] for name in counters if name.endswith(".hit")
    )
    for prefix in prefixes:
        hits = counters.get(f"{prefix}.hit", 0)
        total = hits + counters.get(f"{prefix}.miss", 0)
        if total:
            lines.append(
                f"  {prefix:<19} {hits}/{total} hits "
                f"({100 * hits / total:.1f}%)"
            )
    return lines


def render_top(
    bundle: Optional[Dict[str, Any]],
    events: Sequence[Dict[str, Any]] = (),
    directory: str = "",
    requests: Optional[Sequence[Dict[str, Any]]] = (),
) -> str:
    """One refresh of the ``python -m repro top`` live view.

    ``bundle`` is a loaded ``metrics-snapshot`` envelope (or ``None`` while
    the exporting session has not written one yet); ``events`` is the tail
    of ``events.jsonl``, newest last.  In ``--server`` mode the CLI builds
    the same bundle shape from a live ``/obs`` response and passes the
    server's slowest completed requests as ``requests``.

    Sections a source does not report degrade to an ``n/a`` label rather
    than a crash or silent omission: ``requests=None`` means the server did
    not return a requests section at all (as opposed to an empty one), and
    a ``metrics`` dict with no ``slo`` key marks an older exporter/server.
    """
    if bundle is None:
        target = directory or "the export directory"
        if str(target).startswith(("http://", "https://")):
            return f"repro top — waiting for {target}/obs (is the server up?)"
        return (
            f"repro top — waiting for {target}"
            f"/snapshot.json (is a session exporting?)"
        )
    metrics = bundle.get("metrics", {})
    counters = metrics.get("counters", {})
    histograms = metrics.get("histograms", {})
    lines = [
        f"repro top — pid {bundle.get('pid', '?')}, "
        f"snapshot #{bundle.get('sequence', '?')}, "
        f"{bundle.get('events_emitted', 0)} events streamed"
    ]
    actions = {n: s for n, s in histograms.items() if n.startswith("action.")}
    sites = {n: s for n, s in histograms.items() if not n.startswith("action.")}
    lines += ["", "actions:", render_histograms(actions)]
    if sites:
        lines += ["", "instrumented sites:", render_histograms(sites)]
    rates = _hit_rates(counters)
    if rates:
        lines += ["", "cache hit rates:"] + rates
    slo_section = metrics.get("slo")
    if slo_section is None:
        lines += ["", "SLOs (rolling window): n/a "
                      "(not reported by this source)"]
        slo = {}
    else:
        slo = {
            name: state for name, state in slo_section.items()
            if isinstance(state, dict) and state.get("samples")
        }
    if slo:
        lines += ["", "SLOs (rolling window):"]
        width = 2 + max(len(name) for name in slo)
        for name in sorted(slo):
            state = slo[name]
            attainment = state.get("attainment") or 0.0
            burn = state.get("burn_rate")
            burn_text = f"burn {burn:.2f}x" if burn is not None else "no budget"
            lines.append(
                f"  {name:<{width}}"
                f"{100 * attainment:6.2f}% of "
                f"{100 * state.get('objective', 0):g}% target  "
                f"({state.get('good', 0)}/{state.get('samples', 0)} good, "
                f"{burn_text}, "
                f"{'met' if state.get('met') else 'MISSED'})"
            )
    gauges = metrics.get("gauges", {})
    memory_keys = (
        ("proc.rss_bytes", "process RSS"),
        ("tracemalloc.peak_bytes", "tracemalloc peak"),
    )
    memory = [(label, gauges[key]) for key, label in memory_keys
              if isinstance(gauges.get(key), (int, float)) and gauges[key]]
    if memory:
        lines += ["", "memory:"]
        for label, value in memory:
            lines.append(f"  {label:<18} {value / (1024 * 1024):10.1f} MiB")
    if requests is None:
        lines += ["", "slowest recent requests: n/a "
                      "(not reported by this source)"]
    elif requests:
        lines += ["", f"slowest recent requests (top {len(requests)}):"]
        for entry in requests:
            session = entry.get("session")
            lines.append(
                f"  {entry.get('duration_ms', 0):>9.2f} ms  "
                f"{entry.get('status', '?'):>3}  "
                f"{entry.get('method', '?'):<7}"
                f"{entry.get('path', '?'):<32}"
                f"id={entry.get('request_id', '?')}"
                + (f"  session={session}" if session else "")
            )
    profile = bundle.get("profile")
    if isinstance(profile, dict) and profile.get("samples"):
        lines += ["", f"profiler ({profile.get('hz', 0):g} Hz, "
                      f"{profile['samples']} samples):"]
        for frame in profile.get("top_frames", [])[:5]:
            lines.append(
                f"  {frame.get('self_samples', 0):>6}  "
                f"{frame.get('frame', '?')}"
            )
    runs = counters.get("verify.pool.runs", 0)
    chunk_hist = histograms.get("verify.chunk", {})
    if runs or chunk_hist:
        lines += ["", "verification pool:"]
        lines.append(
            f"  runs {runs}  chunks {chunk_hist.get('count', 0)}  "
            f"fallbacks {counters.get('verify.pool.fallbacks', 0)}  "
            f"serial scans {counters.get('verify.serial', 0)}"
        )
        spawns = counters.get("verify.pool.spawns", 0)
        if spawns:
            # Warm-pool health: reuses dwarfing spawns means dispatches hit
            # running workers; respawns/expired mark broken-pool recoveries
            # and idle-TTL recycles.
            lines.append(
                f"  warm spawns {spawns}  "
                f"reuses {counters.get('verify.pool.reuses', 0)}  "
                f"respawns {counters.get('verify.pool.respawns', 0)}  "
                f"expired {counters.get('verify.pool.expired', 0)}"
            )
        if chunk_hist:
            busy = chunk_hist.get("sum_s", 0.0)
            lines.append(
                f"  worker busy time {1000 * busy:.2f} ms across "
                f"{chunk_hist.get('count', 0)} chunks "
                f"(p99 {1000 * chunk_hist.get('p99_s', 0.0):.2f} ms)"
            )
    if events:
        lines += ["", f"recent events (last {len(events)}):"]
        lines += [render_event(event, seq_width=5) for event in events]
    return "\n".join(lines)


def render_request_bundle(data: Dict[str, Any]) -> str:
    """A correlated request bundle (``GET /v1/requests/<id>``) as text.

    ``data`` carries the access-log entry (``request``), the recorder
    events stamped with the id (``events`` — including the ``pool.chunk``
    events of its verification, recognisable by their ``src`` label), the
    root span trees whose ``request_id`` attribute matches (``spans``, in
    :meth:`~repro.obs.tracer.Span.to_dict` form) and, when the sampler is
    on, the request-scoped profile slice (``profile``: folded stacks to
    sample counts, pool-worker frames prefixed ``worker:<label>;``).
    """
    request_id = data.get("request_id", "?")
    lines = [f"request {request_id}"]
    entry = data.get("request")
    if entry:
        session = entry.get("session")
        lines.append(
            f"  {entry.get('method', '?')} {entry.get('path', '?')} -> "
            f"{entry.get('status', '?')} in "
            f"{entry.get('duration_ms', 0):.2f} ms"
            + (f"  (session {session})" if session else "")
        )
    spans = data.get("spans") or []
    if spans:
        lines += ["", f"correlated spans ({len(spans)} roots):"]
        lines += [
            "  " + line for line in _span_lines(spans, hide=("request_id",))
        ]
    elif "spans" not in data:
        lines += ["", "correlated spans: n/a (not reported by this server)"]
    events = data.get("events") or []
    if not events and "events" not in data:
        lines += ["", "correlated events: n/a (not reported by this server)"]
    if events:
        lines += ["", f"correlated events ({len(events)}):"]
        t0 = events[0].get("t_s", 0.0)
        lines += [
            render_event(event, t0, hide=("request_id",)) for event in events
        ]
    profile = data.get("profile") or {}
    if profile:
        from repro.obs.profiler import top_frames

        total = sum(profile.values())
        lines += ["", f"profile slice ({total} samples):"]
        for frame, count in top_frames(profile, 8):
            lines.append(f"  {count:>6}  {frame}")
    if not entry and not spans and not events and not profile:
        lines.append("  (nothing correlated — recorder/tracing off, "
                     "or the id aged out)")
    return "\n".join(lines)


def diff_trace_reports(
    a: Dict[str, Any], b: Dict[str, Any]
) -> Dict[str, Any]:
    """Structured deltas between two ``trace-report`` artifacts (A → B).

    The before/after companion to ``python -m repro trace --json``: sites
    are matched by name, percentiles compared pairwise, counters
    subtracted.  Returns ``{"histograms": {...}, "counters": {...},
    "ledger": {...}}`` — rendering is :func:`render_report_diff`'s job.

    A site present in only one report (instrumentation added or removed
    between captures) is treated as zero on the missing side and flagged
    via ``in_a``/``in_b`` so the renderer can mark it ``(new)``/``(gone)``
    instead of reporting a meaningless percentage.
    """
    out: Dict[str, Any] = {"histograms": {}, "counters": {}, "ledger": {}}
    hists_a = a.get("metrics", {}).get("histograms", {}) or {}
    hists_b = b.get("metrics", {}).get("histograms", {}) or {}
    for site in sorted(set(hists_a) | set(hists_b)):
        sa, sb = hists_a.get(site, {}), hists_b.get(site, {})
        entry: Dict[str, Any] = {
            "count_a": sa.get("count", 0),
            "count_b": sb.get("count", 0),
            "in_a": site in hists_a,
            "in_b": site in hists_b,
        }
        for p in (50, 90, 99):
            va = sa.get(f"p{p}_s", 0.0)
            vb = sb.get(f"p{p}_s", 0.0)
            entry[f"p{p}_a_s"] = va
            entry[f"p{p}_b_s"] = vb
            entry[f"p{p}_delta_s"] = vb - va
            # A percentage needs a nonzero baseline *and* both sides
            # present; a one-sided site renders as (new)/(gone), not ±∞%.
            present = site in hists_a and site in hists_b
            entry[f"p{p}_pct"] = \
                100 * (vb - va) / va if va and present else None
        out["histograms"][site] = entry
    counters_a = a.get("metrics", {}).get("counters", {})
    counters_b = b.get("metrics", {}).get("counters", {})
    for name in sorted(set(counters_a) | set(counters_b)):
        va, vb = counters_a.get(name, 0), counters_b.get(name, 0)
        if va != vb:
            out["counters"][name] = {"a": va, "b": vb, "delta": vb - va}
    ledger_a, ledger_b = a.get("ledger"), b.get("ledger")
    if ledger_a and ledger_b:
        for key in ("total_processing", "srt_seconds", "hidden_seconds"):
            va, vb = ledger_a.get(key, 0.0), ledger_b.get(key, 0.0)
            out["ledger"][key] = {"a": va, "b": vb, "delta": vb - va}
    return out


def render_report_diff(
    diff: Dict[str, Any], label_a: str = "A", label_b: str = "B"
) -> str:
    """A :func:`diff_trace_reports` result as aligned tables.

    Sites present in only one report carry a ``(new)``/``(gone)`` mark next
    to their name (their missing side reads as zero).  All entry fields are
    read defensively — a diff computed by an older checkout (no presence
    flags) still renders.
    """
    lines: List[str] = [f"trace diff: {label_a} -> {label_b}"]
    histograms = diff.get("histograms", {})
    if histograms:
        marks = {}
        for site, e in histograms.items():
            in_a = e.get("in_a", e.get("count_a", 0) > 0)
            in_b = e.get("in_b", e.get("count_b", 0) > 0)
            if in_a and not in_b:
                marks[site] = f"{site} (gone)"
            elif in_b and not in_a:
                marks[site] = f"{site} (new)"
            else:
                marks[site] = site
        width = 2 + max(len(label) for label in marks.values())
        header = (
            f"{'site':<{width}}{'n: A->B':>12}"
            f"{'p50 A->B':>20}{'p90 A->B':>20}{'p99 A->B':>20}"
        )
        lines += ["", header, "-" * len(header)]
        for site in sorted(histograms):
            e = histograms[site]
            count_a, count_b = e.get("count_a", 0), e.get("count_b", 0)
            cells = [f"{marks[site]:<{width}}"
                     f"{str(count_a) + '->' + str(count_b):>12}"]
            for p in (50, 90, 99):
                pct = e.get(f"p{p}_pct")
                if pct is not None:
                    pct_text = f"{pct:+.0f}%"
                elif e.get("in_a", count_a > 0) and \
                        not e.get("in_b", count_b > 0):
                    pct_text = "gone"
                else:
                    pct_text = "new"
                cells.append(
                    f"{1000 * e.get(f'p{p}_a_s', 0.0):>7.2f}->"
                    f"{1000 * e.get(f'p{p}_b_s', 0.0):<7.2f}{pct_text:>5}"
                )
            lines.append("".join(cells))
    counters = diff.get("counters", {})
    if counters:
        lines += ["", "counters that changed:"]
        width = 2 + max(len(name) for name in counters)
        for name in sorted(counters):
            e = counters[name]
            lines.append(
                f"  {name:<{width}}{e['a']} -> {e['b']}  ({e['delta']:+g})"
            )
    else:
        lines += ["", "counters: no differences"]
    ledger = diff.get("ledger", {})
    if ledger:
        lines += ["", "SRT ledger:"]
        for key, e in ledger.items():
            lines.append(
                f"  {key:<18}{1000 * e['a']:9.2f} ms -> "
                f"{1000 * e['b']:9.2f} ms  ({1000 * e['delta']:+.2f} ms)"
            )
    return "\n".join(lines)


def render_ledger(ledger: SrtLedger) -> str:
    """The SRT ledger as a table plus its summary/reconciliation lines."""
    header = (
        f"{'#':>3}  {'action':<14}{'processing':>13}{'latency':>10}"
        f"{'hidden':>13}{'backlog':>13}"
    )
    lines = [header, "-" * len(header)]
    for e in ledger.entries:
        lines.append(
            f"{e.index:>3}  {e.action:<14}"
            f"{1000 * e.processing_seconds:>10.2f} ms"
            f"{e.latency_seconds:>8.2f} s"
            f"{1000 * e.hidden_seconds:>10.2f} ms"
            f"{1000 * e.backlog_after:>10.2f} ms"
        )
    lines.append("-" * len(header))
    lines.append(
        f"  Run residual        {1000 * ledger.run_seconds:>9.2f} ms"
    )
    lines.append(
        f"  SRT (backlog + Run) {1000 * ledger.srt_seconds:>9.2f} ms"
    )
    lines.append(
        f"  hidden in GUI gaps  {1000 * ledger.hidden_seconds:>9.2f} ms"
    )
    lines.append(
        f"  total processing    {1000 * ledger.total_processing:>9.2f} ms"
        f"  (= hidden + SRT, slack {1e6 * abs(ledger.residual_error()):.1f} µs)"
    )
    return "\n".join(lines)


def report_to_dict(
    roots: Iterable[Span],
    snapshot: Dict[str, Dict[str, Any]],
    ledger: Optional[SrtLedger] = None,
    **extra: Any,
) -> Dict[str, Any]:
    """One JSON-ready bundle: spans + metrics (+ ledger, + extras)."""
    out: Dict[str, Any] = {
        "spans": [root.to_dict() for root in roots],
        "metrics": snapshot,
    }
    if ledger is not None:
        out["ledger"] = ledger.to_dict()
    out.update(extra)
    return out
