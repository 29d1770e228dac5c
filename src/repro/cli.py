"""Command-line interface: datasets, indexes, queries and scripted sessions.

The paper's system is a GUI; this CLI is its headless counterpart for
scripting and inspection::

    python -m repro generate --kind aids --size 500 --out db.lg
    python -m repro stats db.lg
    python -m repro index db.lg --alpha 0.1 --beta 4 --out db.idx
    python -m repro query db.lg db.idx --query q.lg --sigma 2 --dot out.dot
    python -m repro session db.lg db.idx --script session.txt

The ``session`` subcommand replays a formulation script, one GUI action per
line, printing the Figure 3-style status after every step::

    node a C        # drop a node labelled C
    node b O
    edge a b        # draw an edge (optionally: edge a b <edge-label>)
    delete 1        # delete edge e1
    relabel a N     # relabel node a
    similar         # opt into similarity search (the dialogue's SimQuery)
    run             # press Run
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.config import MiningParams
from repro.core import PragueEngine
from repro.core.statistics import collect_statistics
from repro.datasets import generate_aids_like, generate_graphgen_like
from repro.exceptions import ReproError
from repro.graph.serialization import read_database, write_database
from repro.index import (
    build_indexes,
    load_indexes,
    prague_index_size_bytes,
    save_indexes,
)
from repro.render import graph_to_dot, graph_to_text, results_to_text


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PRAGUE (ICDE 2012) reproduction — blended visual "
                    "subgraph querying",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a synthetic dataset")
    gen.add_argument("--kind", choices=("aids", "graphgen"), default="aids")
    gen.add_argument("--size", type=int, default=500)
    gen.add_argument("--seed", type=int, default=2012)
    gen.add_argument("--workers", type=int, default=1,
                     help="generate in parallel chunks (chunked corpora are "
                          "a different seeded family than the serial "
                          "generators; output is worker-count independent)")
    gen.add_argument("--out", type=Path, required=True)

    stats = sub.add_parser("stats", help="summarise a dataset file")
    stats.add_argument("database", type=Path)

    index = sub.add_parser("index", help="mine and build the A2F/A2I indexes")
    index.add_argument("database", type=Path)
    index.add_argument("--alpha", type=float, default=0.1,
                       help="minimum support threshold (0 < alpha < 1)")
    index.add_argument("--beta", type=int, default=4,
                       help="MF/DF fragment size threshold")
    index.add_argument("--max-edges", type=int, default=8,
                       help="largest mined fragment size")
    index.add_argument("--out", type=Path, required=True)

    query = sub.add_parser("query", help="answer one query graph")
    query.add_argument("database", type=Path)
    query.add_argument("indexes", type=Path)
    query.add_argument("--query", type=Path, required=True,
                       help="gSpan-format file whose first graph is the query")
    query.add_argument("--sigma", type=int, default=0,
                       help="subgraph distance budget (0 = exact only)")
    query.add_argument("--dot", type=Path, default=None,
                       help="write the query graph as Graphviz DOT")

    session = sub.add_parser("session", help="replay a formulation script")
    session.add_argument("database", type=Path)
    session.add_argument("indexes", type=Path)
    session.add_argument("--script", type=Path, required=True)
    session.add_argument("--sigma", type=int, default=3)

    report = sub.add_parser(
        "report", help="render the combined evaluation report"
    )
    report.add_argument(
        "--results", type=Path, default=None,
        help="results directory (default: benchmarks/results in the repo)",
    )

    smoke = sub.add_parser(
        "bench-smoke",
        help="fast hot-path microbenchmark (CI guard for the perf layer)",
    )
    smoke.add_argument("--size", type=int, default=80,
                       help="corpus size for the smoke run")
    smoke.add_argument("--seed", type=int, default=2012)

    oracle = sub.add_parser(
        "oracle-smoke",
        help="differential-oracle sweep: fuzzed sessions replayed across "
             "the hot-path config matrix plus naive/fresh-replay oracles",
    )
    oracle.add_argument("--sessions", type=int, default=50,
                        help="number of seeded fuzzer sessions to check")
    oracle.add_argument("--seed", type=int, default=0,
                        help="base seed (session i uses seed base+i)")
    oracle.add_argument("--sigma", type=int, default=None,
                        help="similarity budget (default: varied per seed)")
    oracle.add_argument("--out", type=Path, default=None,
                        help="write the sweep manifest as JSON")

    tracecmd = sub.add_parser(
        "trace",
        help="replay a session with tracing on: span tree, metrics and the "
             "per-action SRT ledger",
    )
    tracecmd.add_argument(
        "--trace", type=Path, default=None,
        help="JSON oracle trace (repro.oracle.trace.save_trace); default: "
             "generate one with the session fuzzer",
    )
    tracecmd.add_argument("--seed", type=int, default=0,
                          help="fuzzer seed when no --trace file is given")
    tracecmd.add_argument("--sigma", type=int, default=None,
                          help="similarity budget for fuzzed traces "
                               "(default: varied per seed)")
    tracecmd.add_argument(
        "--latency", type=float, default=None,
        help="per-gesture GUI latency in seconds for the SRT ledger "
             "(default: the paper's 2 s lower bound)",
    )
    tracecmd.add_argument("--min-ms", type=float, default=0.0,
                          help="prune spans shorter than this many ms")
    tracecmd.add_argument("--json", type=Path, default=None,
                          help="also write the full report as JSON")
    tracecmd.add_argument(
        "--diff", type=Path, nargs=2, metavar=("A", "B"), default=None,
        help="instead of replaying, print per-site percentile and counter "
             "deltas between two --json trace reports (before -> after)",
    )

    profilecmd = sub.add_parser(
        "profile",
        help="replay a session under the statistical sampler and export "
             "collapsed stacks + a self-contained flamegraph",
    )
    profilecmd.add_argument(
        "--trace", type=Path, default=None,
        help="JSON oracle trace to replay (default: generate one with the "
             "session fuzzer)",
    )
    profilecmd.add_argument("--seed", type=int, default=0,
                            help="fuzzer seed when no --trace file is given")
    profilecmd.add_argument("--sigma", type=int, default=None,
                            help="similarity budget for fuzzed traces")
    profilecmd.add_argument("--hz", type=float, default=100.0,
                            help="sampler frequency (overrides "
                                 "REPRO_PROFILE_HZ for the run)")
    profilecmd.add_argument("--mem", type=int, default=0, metavar="N",
                            help="also bracket actions with tracemalloc and "
                                 "keep the top-N allocating lines")
    profilecmd.add_argument("--seconds", type=float, default=1.0,
                            help="replay the session repeatedly until this "
                                 "much wall time has been sampled")
    profilecmd.add_argument("--top", type=int, default=10,
                            help="hottest frames to print")
    profilecmd.add_argument("--out", type=Path, default=Path("profile"),
                            help="output directory for profile.folded, "
                                 "profile.json and flamegraph.html")

    top = sub.add_parser(
        "top",
        help="live terminal view of an exporting session "
             "(REPRO_OBS_EXPORT): per-action percentiles, cache hit "
             "rates, pool utilization, recent events",
    )
    top.add_argument(
        "--dir", type=Path, default=None,
        help="export directory to tail (default: $REPRO_OBS_EXPORT)",
    )
    top.add_argument(
        "--server", default=None, metavar="URL",
        help="poll a running service's /obs instead of tailing a "
             "directory (e.g. http://127.0.0.1:8765)",
    )
    top.add_argument("--interval", type=float, default=1.0,
                     help="refresh period in seconds")
    top.add_argument("--once", action="store_true",
                     help="render a single frame and exit (no screen clear)")
    top.add_argument("--frames", type=int, default=0,
                     help="stop after N refreshes (0 = until interrupted)")
    top.add_argument("--events", type=int, default=8,
                     help="how many recent events to show")

    perf = sub.add_parser(
        "perf",
        help="bounded perf-regression suite: append a machine-normalized "
             "record to the trajectory, or --check against the last record",
    )
    perf.add_argument("--label", default="checkpoint",
                      help="label stored on the appended record")
    perf.add_argument("--seed", type=int, default=2012)
    perf.add_argument("--threshold", type=float, default=None,
                      help="regression threshold in percent (default: 20)")
    perf.add_argument(
        "--trajectory", type=Path, default=None,
        help="trajectory file (default: benchmarks/results/trajectory.json)",
    )
    perf.add_argument(
        "--check", action="store_true",
        help="compare against the last record instead of appending; exit 1 "
             "on a regression, 2 when no baseline exists",
    )
    perf.add_argument(
        "--explain", nargs=2, metavar=("A", "B"), default=None,
        help="instead of running the suite, diff the sampled profiles "
             "attached to two trajectory entries (by 1-based index or "
             "label) and name the frames responsible for the delta",
    )
    perf.add_argument(
        "--no-profile", action="store_true",
        help="skip attaching a sampled profile to the appended record",
    )

    postmortem = sub.add_parser(
        "postmortem",
        help="render a flight-recorder post-mortem bundle as a timeline, "
             "or fetch one request's correlated bundle from a server",
    )
    postmortem.add_argument("bundle", type=Path, nargs="?", default=None,
                            help="JSON bundle written by the recorder")
    postmortem.add_argument(
        "--server", default=None, metavar="URL",
        help="fetch from a running service instead of a file "
             "(requires --request)",
    )
    postmortem.add_argument(
        "--request", dest="request_id", default=None, metavar="ID",
        help="request id to fetch from --server (the X-Prague-Request "
             "value echoed on the original response)",
    )

    serve = sub.add_parser(
        "serve",
        help="run the multi-session HTTP service (one shared index plane, "
             "one engine per session id)",
    )
    serve.add_argument("database", type=Path, nargs="?", default=None,
                       help="dataset file; omitted = synthetic corpus")
    serve.add_argument("indexes", type=Path, nargs="?", default=None,
                       help="index file (default: mine at startup)")
    serve.add_argument("--synthetic", type=int, default=120,
                       help="graphs in the synthetic corpus when no dataset "
                            "file is given")
    serve.add_argument("--seed", type=int, default=2012)
    serve.add_argument("--alpha", type=float, default=0.1,
                       help="minimum support when mining at startup")
    serve.add_argument("--beta", type=int, default=4)
    serve.add_argument("--max-edges", type=int, default=5)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=None,
                       help="default: $REPRO_SERVICE_PORT or 8765 "
                            "(0 = ephemeral)")
    serve.add_argument("--sigma", type=int, default=3,
                       help="similarity budget for new sessions")
    serve.add_argument("--max-sessions", type=int, default=None,
                       help="admission cap (default: "
                            "$REPRO_SERVICE_MAX_SESSIONS)")
    serve.add_argument("--ttl", type=float, default=None,
                       help="idle-session eviction in seconds (default: "
                            "$REPRO_SERVICE_TTL; 0 disables)")
    return parser


# ----------------------------------------------------------------------
# subcommand implementations
# ----------------------------------------------------------------------
def _cmd_generate(args) -> int:
    if args.workers > 1:
        from repro.datasets.scale import generate_scaled

        db = generate_scaled(
            args.kind, args.size, seed=args.seed, workers=args.workers
        )
    elif args.kind == "aids":
        db = generate_aids_like(args.size, seed=args.seed)
    else:
        db = generate_graphgen_like(args.size, seed=args.seed)
    write_database(db, args.out)
    stats = db.stats()
    print(f"wrote {args.out}: {stats['graphs']:.0f} graphs, "
          f"avg {stats['avg_nodes']:.1f} nodes / {stats['avg_edges']:.1f} edges")
    return 0


def _cmd_stats(args) -> int:
    db = read_database(args.database)
    stats = db.stats()
    print(f"graphs     : {stats['graphs']:.0f}")
    print(f"avg nodes  : {stats['avg_nodes']:.2f}")
    print(f"avg edges  : {stats['avg_edges']:.2f}")
    print(f"max nodes  : {stats['max_nodes']:.0f}")
    print(f"max edges  : {stats['max_edges']:.0f}")
    print(f"node labels: {', '.join(db.node_label_universe())}")
    return 0


def _cmd_index(args) -> int:
    db = read_database(args.database)
    params = MiningParams(args.alpha, args.beta, args.max_edges)
    indexes = build_indexes(db, params)
    written = save_indexes(indexes, args.out)
    print(f"mined {len(indexes.frequent)} frequent fragments and "
          f"{len(indexes.difs)} DIFs "
          f"(alpha={args.alpha}, support >= {indexes.min_support_abs})")
    print(f"wrote {args.out}: {written} bytes on disk, "
          f"{prague_index_size_bytes(indexes) / 1e6:.2f} MB index footprint")
    return 0


def _cmd_query(args) -> int:
    db = read_database(args.database)
    indexes = load_indexes(args.indexes)
    queries = read_database(args.query)
    query_graph = queries[0]
    print(graph_to_text(query_graph, title="query:"))
    engine = PragueEngine(db, indexes, sigma=max(args.sigma, 0))
    for node in query_graph.nodes():
        engine.add_node(node, query_graph.label(node))
    from repro.testing import connected_order

    for u, v in connected_order(query_graph):
        report = engine.add_edge(u, v, query_graph.edge_label(u, v))
        size = report.rq_size if report.rq_size is not None \
            else report.candidate_count
        print(f"  e{report.edge_id}: {report.status.value} "
              f"(candidates: {size})")
    result = engine.run()
    print(results_to_text(result.results, db))
    if args.dot is not None:
        args.dot.write_text(graph_to_dot(query_graph, name="query"))
        print(f"wrote {args.dot}")
    return 0


def _cmd_session(args) -> int:
    db = read_database(args.database)
    indexes = load_indexes(args.indexes)
    engine = PragueEngine(db, indexes, sigma=args.sigma)
    node_of = {}
    for lineno, raw in enumerate(args.script.read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        op, operands = parts[0], parts[1:]
        try:
            if op == "node" and len(operands) == 2:
                node_of[operands[0]] = engine.add_node(operands[0], operands[1])
                print(f"{lineno:3d} node {operands[0]}:{operands[1]}")
            elif op == "edge" and len(operands) in (2, 3):
                label = operands[2] if len(operands) == 3 else None
                report = engine.add_edge(operands[0], operands[1], label)
                print(f"{lineno:3d} edge e{report.edge_id}: "
                      f"{report.status.value} |Rq|={report.rq_size}")
            elif op == "delete" and len(operands) <= 1:
                edge_id = int(operands[0]) if operands else None
                report = engine.delete_edge(edge_id)
                print(f"{lineno:3d} deleted e{report.edge_id}: "
                      f"{report.status.value}")
            elif op == "relabel" and len(operands) == 2:
                engine.relabel_node(operands[0], operands[1])
                print(f"{lineno:3d} relabeled {operands[0]} -> {operands[1]}")
            elif op == "similar" and not operands:
                report = engine.enable_similarity()
                print(f"{lineno:3d} similarity search on "
                      f"({report.candidate_count} candidates)")
            elif op == "run" and not operands:
                result = engine.run()
                print(f"{lineno:3d} run "
                      f"({1000 * result.processing_seconds:.2f} ms):")
                print(results_to_text(result.results, db))
            else:
                print(f"{lineno:3d} !! unknown action: {line!r}",
                      file=sys.stderr)
                return 2
        except ReproError as exc:
            print(f"{lineno:3d} !! {exc}", file=sys.stderr)
            return 1
    print("\nsession statistics:")
    for line in collect_statistics(engine).summary_lines():
        print(f"  {line}")
    return 0


def _cmd_bench_smoke(args) -> int:
    """Toy-scale run of the hot-path microbenchmarks (correctness + timing).

    Speedup floors are only asserted by the full ``bench_micro_hotpaths``
    suite — at smoke scale the constant overheads dominate; here the value is
    that every optimised path still *agrees* with its reference (the bench
    functions assert identical answers internally).
    """
    from repro.bench.harness import format_table
    from repro.bench.micro import run_micro_hotpaths
    from repro.datasets.aids import generate_aids_like

    db = generate_aids_like(max(args.size, 20), seed=args.seed)
    data = run_micro_hotpaths(db, smoke=True, seed=args.seed)
    rows = [
        [name, f"{section['speedup']:.2f}x"]
        for name, section in (
            ("canonical code (memoized)", data["canonical"]),
            ("containment scan (compiled)", data["scan"]),
            ("candidate intersection (bitset)", data["intersection"]),
        )
    ]
    print(format_table(
        f"bench-smoke: hot paths agree with reference, |D|={len(db)}",
        ["hot path", "speedup"],
        rows,
    ))
    print("bench-smoke OK")
    return 0


def _cmd_oracle_smoke(args) -> int:
    """Bounded seeded sweep of the differential oracle (the CI guard).

    Zero divergences across the full configuration matrix and both
    independent oracles is the pass condition; any divergence is shrunk to a
    minimal trace and printed as a paste-able regression test.
    """
    import json

    from repro.oracle import CONFIG_MATRIX, run_sweep

    report = run_sweep(
        sessions=args.sessions,
        base_seed=args.seed,
        sigma=args.sigma,
        progress=lambda message: print(f"  {message}"),
    )
    print(
        f"oracle-smoke: {report.sessions} sessions, "
        f"{report.total_steps} actions, {report.total_replays} replays "
        f"across {len(CONFIG_MATRIX)} configs "
        f"+ naive-baseline + fresh-replay oracles"
    )
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report.manifest(), indent=2) + "\n")
        print(f"wrote {args.out}")
    if not report.ok:
        for result in report.failures:
            print(f"\nseed {result.trace.seed} diverged:", file=sys.stderr)
            for divergence in result.divergences:
                print(divergence.describe(), file=sys.stderr)
            if result.reproducer:
                print("\n--- minimal reproducer "
                      "(paste into tests/oracle/) ---", file=sys.stderr)
                print(result.reproducer, file=sys.stderr)
        return 1
    print("oracle-smoke OK (divergence-free)")
    return 0


def _cmd_trace(args) -> int:
    """Replay one session with tracing on and print where the time went.

    The SRT ledger's ``total processing`` row is reconciled against the
    end-to-end wall time of the replay loop: the difference is replay
    bookkeeping (observation glue, span plumbing), not engine work —
    ``docs/PERFORMANCE.md`` ("Reading a trace") walks through an example.
    """
    import json
    import time

    from repro import obs
    from repro.config import DEFAULT_EDGE_LATENCY_SECONDS
    from repro.core.prague import RunReport
    from repro.oracle.corpus import corpus_for
    from repro.oracle.fuzzer import generate_trace
    from repro.oracle.trace import apply_action, load_trace

    if args.diff is not None:
        path_a, path_b = args.diff
        reports = [
            obs.open_envelope(
                json.loads(path.read_text()), expect_kind="trace-report"
            )
            for path in (path_a, path_b)
        ]
        diff = obs.diff_trace_reports(*reports)
        print(obs.render_report_diff(
            diff, label_a=str(path_a), label_b=str(path_b)
        ))
        return 0

    if args.trace is not None:
        trace = load_trace(args.trace)
        source = str(args.trace)
    else:
        trace = generate_trace(seed=args.seed, sigma=args.sigma)
        source = f"fuzzer seed {args.seed}"
    latency = (
        args.latency if args.latency is not None
        else DEFAULT_EDGE_LATENCY_SECONDS
    )
    corpus = corpus_for(trace.spec)
    engine = PragueEngine(corpus.db, corpus.indexes, sigma=trace.sigma)

    events = []
    with obs.trace() as tracer:
        wall_start = time.perf_counter()
        for action in trace.actions:
            seen = len(engine.history)
            result = apply_action(engine, action)
            # Every report the gesture added, implicit SimQuery included.
            events.extend(
                obs.events_from_reports(engine.history[seen:], latency)
            )
            if isinstance(result, RunReport):
                # Run offers no drawing gap; a non-terminal Run (the user
                # kept drawing afterwards) still contributes a ledger row.
                events.append(("run", result.processing_seconds, 0.0))
        wall_seconds = time.perf_counter() - wall_start
        snapshot = obs.full_snapshot()

    run_seconds = 0.0
    if events and events[-1][0] == "run":
        run_seconds = events.pop()[1]
    ledger = obs.build_ledger(events, run_seconds=run_seconds)

    print(f"trace: {source} — {len(trace.actions)} actions, "
          f"sigma={trace.sigma}, corpus seed={trace.spec.seed} "
          f"({trace.spec.num_graphs} graphs)")
    print(f"\nspans ({tracer.span_count()} recorded):")
    print(obs.render_span_tree(tracer.roots, min_seconds=args.min_ms / 1000))
    print("\nmetrics:")
    print(obs.render_metrics(snapshot))
    print("\nlatency histograms (always-on):")
    print(obs.render_histograms(snapshot.get("histograms", {})))
    print(f"\nSRT ledger (latency {latency:.2f} s per gesture):")
    print(obs.render_ledger(ledger))
    covered = 100 * ledger.total_processing / wall_seconds if wall_seconds else 0
    print(f"\nend-to-end wall time   {1000 * wall_seconds:9.2f} ms "
          f"(ledger covers {covered:.1f}%; the rest is replay bookkeeping)")
    if args.json is not None:
        payload = obs.envelope("trace-report", obs.report_to_dict(
            tracer.roots, snapshot, ledger,
            wall_seconds=wall_seconds, source=source,
            actions=len(trace.actions), sigma=trace.sigma,
        ))
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {args.json}")
    return 0


def _cmd_perf(args) -> int:
    """Run the bounded perf suite and maintain the regression trajectory.

    Default mode appends a machine-normalized record to the trajectory file
    (creating it with a first record when absent); ``--check`` instead
    compares the fresh run against the *last* checked-in record and fails on
    any metric more than the threshold above it — the CI gate.
    """
    from repro.bench import ledger as perf_ledger
    from repro.bench.harness import format_table

    threshold = (
        args.threshold if args.threshold is not None
        else perf_ledger.REGRESSION_THRESHOLD_PCT
    )
    path = (
        args.trajectory if args.trajectory is not None
        else perf_ledger.trajectory_path()
    )
    if args.explain is not None:
        return _perf_explain(path, args.explain)
    records = perf_ledger.load_trajectory(path)
    baseline = records[-1] if records else None
    calibration = perf_ledger.calibrate()
    metrics = perf_ledger.run_perf_suite(seed=args.seed)
    record = perf_ledger.make_record(metrics, calibration, label=args.label)
    comparisons = (
        perf_ledger.compare_records(baseline, record, threshold)
        if baseline is not None else []
    )
    by_name = {c["metric"]: c for c in comparisons}

    rows = []
    for name in sorted(metrics):
        comp = by_name.get(name)
        verdict = "-" if comp is None else (
            f"{comp['change_pct']:+.1f}% "
            + ("REGRESSED" if comp["regression"] else "ok")
        )
        # Dimensionless metrics (e.g. service.slo_attainment) are recorded
        # raw but never normalized — raw is already machine-independent.
        normalized = record["normalized"].get(name)
        rows.append([
            name,
            f"{1000 * metrics[name]:.3f} ms" if name.endswith("_s")
            else f"{metrics[name]:.4f}",
            f"{normalized:.4f}" if normalized is not None else "-",
            verdict,
        ])
    print(format_table(
        f"perf suite (calibration {1000 * calibration:.3f} ms, baseline: "
        f"{baseline['label'] if baseline else 'none'})",
        ["metric", "raw", "normalized", "vs baseline"],
        rows,
    ))

    if args.check:
        if baseline is None:
            print(f"perf --check: no baseline record in {path}",
                  file=sys.stderr)
            return 2
        regressions = [c for c in comparisons if c["regression"]]
        if regressions:
            for c in regressions:
                print(f"perf regression: {c['metric']} "
                      f"{c['change_pct']:+.1f}% (threshold {threshold:g}%)",
                      file=sys.stderr)
            return 1
        print(f"perf --check OK "
              f"({len(comparisons)} metrics within {threshold:g}%)")
        return 0
    if not args.no_profile:
        # Attach a compact sampled profile so a future --explain can name
        # the frames behind whatever regression this record ends up in.
        record["profile"] = perf_ledger.collect_profile(seed=args.seed)
    perf_ledger.append_record(path, record)
    print(f"appended record {len(records) + 1} ({args.label!r}) to {path}")
    return 0


def _lookup_trajectory_record(records, token: str):
    """A trajectory record by 1-based index (negatives count from the end)
    or by label (last match wins); ``None`` when nothing matches."""
    try:
        index = int(token)
    except ValueError:
        matches = [r for r in records if r.get("label") == token]
        return matches[-1] if matches else None
    if index == 0 or abs(index) > len(records):
        return None
    return records[index - 1] if index > 0 else records[index]


def _perf_explain(path: Path, tokens) -> int:
    """``repro perf --explain A B``: name the frames behind a perf delta."""
    from repro.bench import ledger as perf_ledger
    from repro.bench.harness import format_table

    records = perf_ledger.load_trajectory(path)
    if not records:
        print(f"perf --explain: no trajectory at {path}", file=sys.stderr)
        return 2
    resolved = []
    for token in tokens:
        record = _lookup_trajectory_record(records, token)
        if record is None:
            print(f"perf --explain: no trajectory entry {token!r} "
                  f"(have 1..{len(records)} and labels "
                  f"{sorted({r.get('label', '?') for r in records})})",
                  file=sys.stderr)
            return 2
        resolved.append(record)
    record_a, record_b = resolved
    profile_a = record_a.get("profile")
    profile_b = record_b.get("profile")
    for token, profile in zip(tokens, (profile_a, profile_b)):
        if not profile or not profile.get("stacks"):
            print(f"perf --explain: entry {token!r} carries no sampled "
                  "profile — append records with a current checkout "
                  "(`python -m repro perf`) to attach one",
                  file=sys.stderr)
            return 2
    rows = perf_ledger.explain_profiles(profile_a, profile_b)
    label_a = record_a.get("label", tokens[0])
    label_b = record_b.get("label", tokens[1])
    table_rows = []
    for row in rows:
        if not row["in_a"]:
            mark = "(new)"
        elif not row["in_b"]:
            mark = "(gone)"
        else:
            mark = ""
        table_rows.append([
            f"{row['frame']} {mark}".strip(),
            f"{1000 * row['self_a_s']:.2f} ms",
            f"{1000 * row['self_b_s']:.2f} ms",
            f"{1000 * row['delta_s']:+.2f} ms",
        ])
    print(format_table(
        f"perf --explain: {label_a} -> {label_b} "
        f"(self time per frame, sampled at "
        f"{profile_b.get('hz', 0):g} Hz)",
        ["frame", "self A", "self B", "delta"],
        table_rows,
    ))
    slowed = [r for r in rows if r["delta_s"] > 0]
    if slowed:
        worst = slowed[0]
        print(f"\nbiggest slowdown: {worst['frame']} "
              f"({1000 * worst['delta_s']:+.2f} ms self time)")
    else:
        print("\nno frame got slower between these entries")
    return 0


def _read_snapshot_bundle(directory: Path):
    """The export directory's current ``snapshot.json``, or ``None``.

    Reads are tolerant by design: the exporting session owns the files and
    rewrites them atomically, but the directory may not exist yet, or the
    tail may race the very first write — a missing/garbled snapshot is
    "waiting", never a crash.
    """
    import json

    from repro.obs import open_envelope

    path = directory / "snapshot.json"
    try:
        return open_envelope(
            json.loads(path.read_text()), expect_kind="metrics-snapshot"
        )
    except (OSError, ValueError):
        return None


def _tail_events(directory: Path, limit: int):
    """The last ``limit`` parseable events of ``events.jsonl`` (oldest first)."""
    import json

    path = directory / "events.jsonl"
    try:
        with open(path, "rb") as handle:
            handle.seek(0, 2)
            handle.seek(max(0, handle.tell() - 16384))
            raw_lines = handle.read().decode("utf-8", "replace").splitlines()
    except OSError:
        return []
    events = []
    for line in raw_lines[-limit - 1:]:  # first line may be a partial read
        try:
            event = json.loads(line)
        except ValueError:
            continue
        if isinstance(event, dict):
            events.append(event)
    return events[-limit:]


def _parse_server(url: str):
    """``(host, port)`` from a ``--server`` URL (port defaults to config)."""
    from urllib.parse import urlsplit

    from repro.config import service_port

    parts = urlsplit(url if "//" in url else f"http://{url}")
    host = parts.hostname or "127.0.0.1"
    port = parts.port if parts.port is not None else service_port()
    return host, port


def _cmd_top(args) -> int:
    """Live terminal view of a session: tail an export directory, or (with
    ``--server``) poll a running service's ``/obs`` over HTTP.

    Both modes share the render loop; only the fetch closure differs.  The
    server mode reshapes the ``/obs`` payload into the same bundle the
    directory exporter writes, plus the slowest-requests tail only the
    service knows about.
    """
    import time

    from repro import obs
    from repro.config import obs_export_dir

    if args.server is not None:
        from repro.service.client import ServiceClient

        host, port = _parse_server(args.server)
        client = ServiceClient(host=host, port=port)
        target = args.server

        def fetch():
            try:
                data = client.obs()
            except (OSError, ValueError, ReproError):
                client.close()  # poison the keep-alive; retry fresh
                return None, [], ()
            # Tolerate payloads from a server one PR behind: every newer
            # section degrades to its zero/"n/a" form rather than a
            # KeyError mid-frame.
            if not isinstance(data, dict):
                return None, [], ()
            snapshot = data.get("snapshot")
            bundle = {
                "pid": data.get("pid"),
                "sequence": frames + 1,
                "events_emitted": len(data.get("events") or ()),
                "metrics": snapshot if isinstance(snapshot, dict) else {},
            }
            profile = data.get("profile")
            if isinstance(profile, dict):
                bundle["profile"] = profile
            requests_section = data.get("requests")
            if isinstance(requests_section, dict):
                requests = requests_section.get("slowest") or ()
            else:
                requests = None  # old server: no requests section at all
            events = data.get("events") or ()
            return bundle, events[-args.events:], requests
    else:
        directory = args.dir
        if directory is None:
            from_env = obs_export_dir()
            if from_env is None:
                print(
                    "repro top: no target — pass --dir, --server, or set "
                    "REPRO_OBS_EXPORT on the session you want to watch "
                    "(see docs/CONFIGURATION.md)",
                    file=sys.stderr,
                )
                return 2
            directory = Path(from_env)
        target = str(directory)

        def fetch():
            return (
                _read_snapshot_bundle(directory),
                _tail_events(directory, args.events),
                (),
            )

    frames = 0
    try:
        while True:
            bundle, events, requests = fetch()
            frame = obs.render_top(
                bundle, events, directory=target, requests=requests
            )
            if frames and not args.once:
                print("\x1b[2J\x1b[H", end="")  # clear + home between frames
            print(frame)
            frames += 1
            if args.once or (args.frames and frames >= args.frames):
                return 0
            time.sleep(max(args.interval, 0.05))
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        return 0


def _cmd_postmortem(args) -> int:
    """Render a post-mortem: a recorder bundle file, or (with ``--server``
    and ``--request``) one request's correlated telemetry from a service."""
    import json

    from repro.obs import (
        open_envelope,
        render_postmortem,
        render_request_bundle,
    )

    if args.server is not None or args.request_id is not None:
        if args.server is None or args.request_id is None:
            print(
                "repro postmortem: --server and --request go together "
                "(a request id is only resolvable against the server "
                "that minted it)",
                file=sys.stderr,
            )
            return 2
        from repro.service.client import ServiceClient

        host, port = _parse_server(args.server)
        try:
            with ServiceClient(host=host, port=port) as client:
                data = client.request_bundle(args.request_id)
        except (OSError, ValueError, ReproError) as exc:
            print(f"repro postmortem: could not fetch request "
                  f"{args.request_id!r} from {args.server}: {exc} "
                  "(server down, or an older server without "
                  "/v1/requests support?)",
                  file=sys.stderr)
            return 1
        if not isinstance(data, dict):
            print(f"repro postmortem: malformed bundle from {args.server}",
                  file=sys.stderr)
            return 1
        print(render_request_bundle(data))
        return 0
    if args.bundle is None:
        print(
            "repro postmortem: pass a bundle file, or --server URL "
            "--request ID to fetch a live request's bundle",
            file=sys.stderr,
        )
        return 2
    bundle = open_envelope(
        json.loads(args.bundle.read_text()), expect_kind="postmortem"
    )
    print(render_postmortem(bundle))
    return 0


def _cmd_profile(args) -> int:
    """Replay a session under the statistical sampler and export profiles.

    The headless twin of attaching the sampler to a live service: replays a
    seeded (or saved) formulation session — fresh engine per pass — until
    ``--seconds`` of wall time has been sampled, then writes the collapsed
    stacks (``profile.folded``), the attributed profile with its summary
    (``profile.json``, a schema-v2 ``profile`` envelope) and a
    self-contained ``flamegraph.html`` into ``--out``.
    """
    import json

    from repro import obs
    from repro.bench.ledger import sample_replays
    from repro.obs.profiler import (
        folded_lines,
        render_flamegraph_html,
        top_frames,
    )
    from repro.oracle.fuzzer import generate_trace
    from repro.oracle.trace import load_trace

    if args.trace is not None:
        trace = load_trace(args.trace)
        source = str(args.trace)
    else:
        trace = generate_trace(seed=args.seed, sigma=args.sigma)
        source = f"fuzzer seed {args.seed}"
    profile, stacks, replays, wall_seconds = sample_replays(
        trace, args.hz, max(args.seconds, 0.0), mem=args.mem
    )
    summary = obs.profile_summary(profile)

    print(f"profile: {source} — {len(trace.actions)} actions x "
          f"{replays} replays, {wall_seconds:.2f} s sampled at "
          f"{args.hz:g} Hz -> {profile['samples']} samples")
    if not stacks:
        print("(no samples — the session finished between sampler ticks; "
              "raise --hz or --seconds)", file=sys.stderr)
    hottest = top_frames(stacks, args.top)
    if hottest:
        print(f"\nhottest frames (self samples, top {len(hottest)}):")
        for frame, samples in hottest:
            print(f"  {samples:>6}  {frame}")
    if args.mem and profile.get("memory"):
        print("\nmemory brackets (tracemalloc, top allocating lines):")
        for site in sorted(profile["memory"]):
            stats = profile["memory"][site]
            print(f"  {site}: peak {stats.get('peak_bytes', 0)} bytes")
            for entry in stats.get("top", [])[:3]:
                print(f"    {entry.get('size_diff_bytes', 0):>+10} B  "
                      f"{entry.get('site', '?')}")

    args.out.mkdir(parents=True, exist_ok=True)
    folded_path = args.out / "profile.folded"
    folded_path.write_text("\n".join(folded_lines(stacks)) + "\n")
    json_path = args.out / "profile.json"
    json_path.write_text(json.dumps(obs.envelope("profile", {
        "source": source,
        "wall_seconds": wall_seconds,
        "replays": replays,
        "profile": profile,
        "summary": summary,
    }), indent=2, default=str) + "\n")
    html_path = args.out / "flamegraph.html"
    html_path.write_text(render_flamegraph_html(
        stacks, title=f"repro profile — {source}"
    ))
    print(f"\nwrote {folded_path}, {json_path}, {html_path}")
    return 0


def _cmd_serve(args) -> int:
    """Run the session service until SIGTERM/SIGINT (clean shutdown)."""
    from repro.core.plane import SharedPlane
    from repro.service import PragueService, SessionManager, serve_forever

    if args.database is not None:
        db = read_database(args.database)
        if args.indexes is not None:
            indexes = load_indexes(args.indexes)
        else:
            indexes = build_indexes(
                db, MiningParams(args.alpha, args.beta, args.max_edges)
            )
    else:
        db = generate_aids_like(max(args.synthetic, 10), seed=args.seed)
        indexes = build_indexes(
            db, MiningParams(args.alpha, args.beta, args.max_edges)
        )
    plane = SharedPlane(db, indexes)
    plane.warm()  # pay the arena build before the first Run, not during it
    manager = SessionManager(
        plane,
        max_sessions=args.max_sessions,
        ttl=args.ttl,
        sigma=args.sigma,
    )
    server = PragueService(manager, host=args.host, port=args.port)
    host, port = server.address
    # Printed only once SIGTERM/SIGINT are handled: a supervisor that stops
    # the server as soon as it reads this line gets a clean exit.
    serve_forever(server, on_ready=lambda: print(
        f"serving PRAGUE sessions on http://{host}:{port} "
        f"({len(db)} graphs, cap {manager.max_sessions()} sessions, "
        f"ttl {manager.ttl():g}s)",
        flush=True,
    ))
    print("server stopped")
    return 0


def _cmd_report(args) -> int:
    from repro.bench.harness import results_dir
    from repro.bench.report import render_report

    directory = args.results if args.results is not None else results_dir()
    print(render_report(directory))
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "stats": _cmd_stats,
    "index": _cmd_index,
    "query": _cmd_query,
    "session": _cmd_session,
    "report": _cmd_report,
    "bench-smoke": _cmd_bench_smoke,
    "oracle-smoke": _cmd_oracle_smoke,
    "trace": _cmd_trace,
    "top": _cmd_top,
    "perf": _cmd_perf,
    "profile": _cmd_profile,
    "postmortem": _cmd_postmortem,
    "serve": _cmd_serve,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
