"""End-to-end benchmark of the PRAGUE session service.

    python benchmarks/e2e/run.py                          # all workloads
    python benchmarks/e2e/run.py --workload containment-heavy --seed 7
    python benchmarks/e2e/run.py --workload gesture-light --trace 1
    python benchmarks/e2e/run.py --smoke --trace 1        # tiny, ~30 s
    python benchmarks/e2e/run.py --workload modify-undo --repeat 5

For each workload the inputs are generated from ``--seed`` (see
``workloads.py``), the real server is booted as a subprocess
(``python -m repro serve ... --port 0`` with every ``REPRO_*`` variable
removed, so the shipped defaults are measured) and driven by a closed loop
of two keep-alive connections for ``--seconds`` after a warm-up.  Every
*Run* answer is checked against the naive scan.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics, or with ``--trace 1`` the per-layer
metrics of a traced pass).  The exit code is non-zero on any failure.

Working files (inputs cached per workload and seed, server logs, spans and
a result file with provenance per run) go to ``.bench_e2e/`` at the
repository root.  See README.md next to this file.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import platform
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import loadgen  # noqa: E402
import workloads  # noqa: E402

WORK = ROOT / ".bench_e2e"

#: Closed-loop clients: one per CPU of the 2-CPU reference box.
CONNECTIONS = 2
#: Server boots per run; ``setup_s`` is their median.
BOOTS = 3
DEFAULT_SECONDS = 12.0
SMOKE_SECONDS = 2.0
READY_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 30.0
READY = re.compile(r"serving PRAGUE sessions on http://([^:\s]+):(\d+)")

#: Gesture-latency metrics of the JSON result: name -> (samples, percentile).
PERCENTILES = {
    "action_p50_ms": ("action", 50),
    "action_p90_ms": ("action", 90),
    "edge_p50_ms": ("edge", 50),
    "edge_p90_ms": ("edge", 90),
}
#: Printed and kept in the result file, but not in the JSON result: SRT has
#: one sample per session and does not repeat across seeds within the
#: bounds (see README.md), modifications exist on one workload only, and a
#: p99 lacks ten samples beyond it in a window.
EXTRA_PERCENTILES = {
    "srt_p50_ms": ("srt", 50),
    "srt_p90_ms": ("srt", 90),
    "action_p99_ms": ("action", 99),
    "modify_p50_ms": ("modify", 50),
    "modify_p90_ms": ("modify", 90),
}


# ----------------------------------------------------------------------
# the server under test
# ----------------------------------------------------------------------
class Server:
    """One ``repro serve`` subprocess, from spawn to readiness to SIGTERM."""

    def __init__(self, inputs: Path, w: workloads.Workload, run_dir: Path,
                 spans: Optional[Path] = None) -> None:
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = str(ROOT / "src")
        serve = [
            "serve", str(inputs / workloads.CORPUS_FILE),
            "--alpha", str(w.alpha), "--beta", str(w.beta),
            "--max-edges", str(w.max_edges), "--port", "0",
        ]
        if spans is None:
            cmd = [sys.executable, "-m", "repro", *serve]
        else:
            cmd = [sys.executable, str(HERE / "traced_serve.py"),
                   "--spans", str(spans), *serve]
        self.log_path = run_dir / "server.log"
        with open(self.log_path, "ab") as log:
            start = time.perf_counter()
            self.proc = subprocess.Popen(
                cmd, stdout=subprocess.PIPE, stderr=log, bufsize=0,
                cwd=run_dir, env=env,
            )
        try:
            self.host, self.port = self._await_ready(start + READY_TIMEOUT_S)
            self.setup_s = time.perf_counter() - start
            self._probe()
        except BaseException:
            self.kill()
            raise

    def _await_ready(self, deadline: float) -> Tuple[str, int]:
        fd = self.proc.stdout.fileno()
        seen = b""
        while True:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                raise RuntimeError(f"server not ready after {READY_TIMEOUT_S:g} s")
            readable, _, _ = select.select([fd], [], [], remaining)
            if not readable:
                continue
            chunk = os.read(fd, 4096)
            if not chunk:
                raise RuntimeError(
                    f"server exited before it was ready; see {self.log_path}"
                )
            seen += chunk
            match = READY.search(seen.decode("utf-8", "replace"))
            if match:
                return match.group(1), int(match.group(2))

    def _probe(self) -> None:
        """One ``GET /healthz``.  The readiness line is printed before the
        server installs its SIGTERM handler; a reply proves the serving loop
        (and so the handler) is up, so a stop right after boot is clean."""
        conn = http.client.HTTPConnection(self.host, self.port, timeout=READY_TIMEOUT_S)
        try:
            conn.request("GET", "/healthz")
            response = conn.getresponse()
            response.read()
        finally:
            conn.close()
        if response.status != 200:
            raise RuntimeError(f"GET /healthz answered {response.status}")

    def pss_mib(self) -> float:
        """Summed PSS of the server and its descendants (pool workers)."""
        pids = [self.proc.pid] + _descendants(self.proc.pid)
        return sum(_pss_kib(pid) for pid in pids) / 1024.0

    def stop(self) -> Optional[str]:
        """SIGTERM and wait; returns why the shutdown was unclean, if it was."""
        if self.proc.poll() is not None:
            code = self.proc.returncode
            self.proc.stdout.close()
            return f"server died early with code {code}"
        self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()
            return f"server still running {STOP_TIMEOUT_S:g} s after SIGTERM"
        self.proc.stdout.close()
        return None if code == 0 else f"server exited with code {code} on SIGTERM"

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def _descendants(pid: int) -> List[int]:
    parents: Dict[int, int] = {}
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue  # the process ended while we looked
        parents[int(stat.parent.name)] = int(fields[1])
    out, frontier = [], [pid]
    while frontier:
        parent = frontier.pop()
        children = [c for c, p in parents.items() if p == parent]
        out += children
        frontier += children
    return out


def _pss_kib(pid: int) -> int:
    try:
        for line in Path(f"/proc/{pid}/smaps_rollup").read_text().splitlines():
            if line.startswith("Pss:"):
                return int(line.split()[1])
    except OSError:
        pass
    return 0


def _shm_segments() -> set:
    """Shared-memory segments named like ``multiprocessing``'s (``psm_*``)."""
    try:
        return {p.name for p in Path("/dev/shm").iterdir() if p.name.startswith("psm_")}
    except OSError:
        return set()


# ----------------------------------------------------------------------
# one run of one workload
# ----------------------------------------------------------------------
def prepare_inputs(w: workloads.Workload, seed: int, smoke: bool) -> Path:
    """The inputs directory for (workload, seed), generated once and cached."""
    target = WORK / "inputs" / f"{w.name}-seed{seed}{'-smoke' if smoke else ''}"
    if (target / workloads.SCRIPTS_FILE).exists():
        return target
    scratch = target.with_name(f"{target.name}.tmp{os.getpid()}")
    shutil.rmtree(scratch, ignore_errors=True)
    workloads.build_inputs(w, seed, scratch)
    shutil.rmtree(target, ignore_errors=True)
    scratch.rename(target)
    return target


def drive(server: Server, payload: dict, warmup: float, seconds: float):
    generator = loadgen.LoadGenerator(
        server.host, server.port, payload["scripts"], payload["sigma"],
        connections=CONNECTIONS,
    )
    return generator.run(warmup, seconds)


def percentile_metrics(samples: Dict[str, List[float]], table) -> Dict[str, dict]:
    out = {}
    for name, (family, q) in table.items():
        values = samples[family]
        out[name] = {
            "value": loadgen.percentile(values, q) if values else None,
            "unit": "ms",
            "samples": len(values),
            "supported": loadgen.supported(len(values), q),
        }
    return out


def run_untraced(w, payload, inputs, run_dir, seconds, boots) -> dict:
    failures: List[str] = []
    setups: List[float] = []
    for boot in range(boots):
        server = Server(inputs, w, run_dir)
        setups.append(server.setup_s)
        if boot < boots - 1:
            failures += filter(None, [server.stop()])
    try:
        result = drive(server, payload, w.warmup_s, seconds)
        pss = server.pss_mib()
    finally:
        failures += filter(None, [server.stop()])
    summary = loadgen.summarize(result, seconds)
    metrics = {
        "setup_s": {"value": statistics.median(setups), "unit": "s",
                    "samples": len(setups)},
        "sessions_per_s": {"value": summary["sessions_per_s"], "unit": "1/s",
                           "samples": len(result.sessions)},
    }
    metrics.update(percentile_metrics(summary["samples"], PERCENTILES))
    failures += [f"{name}: no samples" for name, m in metrics.items() if not m["value"]]
    extras = percentile_metrics(summary["samples"], EXTRA_PERCENTILES)
    extras["pss_mb"] = {"value": pss, "unit": "MiB", "samples": 1}
    return {
        "metrics": metrics,
        "extras": extras,
        "setup_runs_s": setups,
        "summary": summary,
        "boots": boots,
        "failures": failures,
    }


def run_traced(w, payload, inputs, run_dir, seconds) -> dict:
    """Half the window untraced, half traced; per-layer metrics from the
    traced half, and the tracing overhead from the two medians."""
    half = seconds / 2
    failures: List[str] = []
    server = Server(inputs, w, run_dir)
    try:
        plain = drive(server, payload, w.warmup_s, half)
    finally:
        failures += filter(None, [server.stop()])
    spans = run_dir / "spans.json"
    spans.unlink(missing_ok=True)
    server = Server(inputs, w, run_dir, spans=spans)
    try:
        traced = drive(server, payload, w.warmup_s, half)
    finally:
        failures += filter(None, [server.stop()])
    trace = json.loads(spans.read_text())
    failures += [
        f"{key} was never called on {w.name}"
        for key in layers.idle_layers(trace, w.name)
    ]
    window = [op for op in traced.ops() if op.error is None and traced.in_window(op)]
    report = layers.analyze(window, trace)
    if report["unjoined"]:
        failures.append(f"{report['unjoined']} requests have no server spans")
    if report["max_residual_frac"] > 0.01:
        failures.append(
            "a request's layer times miss its wall time by "
            f"{100 * report['max_residual_frac']:.2f}%"
        )
    p50 = [
        loadgen.percentile(loadgen.summarize(r, half)["samples"]["action"], 50)
        for r in (plain, traced)
    ]
    metrics = dict(report["metrics"])
    metrics.update(layers.setup_metrics(trace, server.setup_s))
    metrics["trace_overhead_pct"] = 100.0 * (p50[1] - p50[0]) / p50[0]
    units = {name: _layer_unit(name) for name in metrics}
    summary = loadgen.summarize(traced, half)
    summary["attempted"] += len(plain.ops())
    summary["failed"] += sum(op.error is not None for op in plain.ops())
    return {
        "metrics": {
            name: {"value": value, "unit": units[name], "samples": report["requests"]}
            for name, value in metrics.items()
        },
        "per_op_ms": report["per_op_ms"],
        "op_counts": report["op_counts"],
        "joined_requests": report["requests"] - report["unjoined"],
        "max_residual_frac": report["max_residual_frac"],
        "calls": trace["calls"],
        "summary": summary,
        "boots": 2,
        "failures": failures,
    }


def _layer_unit(name: str) -> str:
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_s"):
        return "s"
    if name in ("spig.vertices", "candidates.rq_size", "verify.candidates",
                "verify.hits", "pool.dispatches"):
        return "count"
    return "ratio"


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool) -> dict:
    w = workloads.WORKLOADS[name]
    if smoke:
        w = workloads.smoke_variant(w)
    started = time.perf_counter()
    inputs = prepare_inputs(w, seed, smoke)
    inputs_s = time.perf_counter() - started
    payload = workloads.load_scripts(inputs)
    tag = f"{name}-seed{seed}-trace{int(trace)}{'-smoke' if smoke else ''}"
    run_dir = WORK / "runs" / tag
    run_dir.mkdir(parents=True, exist_ok=True)
    shm_before = _shm_segments()
    if trace:
        out = run_traced(w, payload, inputs, run_dir, seconds)
    else:
        out = run_untraced(w, payload, inputs, run_dir, seconds,
                           1 if smoke else BOOTS)
    leaked = _shm_segments() - shm_before
    if leaked:
        out["failures"].append(f"shared-memory segments left behind: {sorted(leaked)}")
    summary = out["summary"]
    attempted = summary["attempted"] + out["boots"]
    failed = summary["failed"] + len(out["failures"])
    out.update(
        workload=name, seed=seed, seconds=seconds, trace=trace, smoke=smoke,
        attempted=attempted, failed=failed,
        error_frac=failed / attempted,
        correct=failed == 0,
        inputs_s=inputs_s,
        wall_s=time.perf_counter() - started,
        provenance=provenance(),
    )
    out["summary"] = {k: v for k, v in summary.items() if k != "samples"}
    result_path = WORK / "results" / f"{tag}.json"
    result_path.parent.mkdir(parents=True, exist_ok=True)
    result_path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    out["result_path"] = str(result_path)
    return out


def provenance() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_head": _git_head(),
        "connections": CONNECTIONS,
    }


def _git_head() -> str:
    """HEAD's commit, read from ``.git`` directly (the checkout may not be a
    repository, and git itself would search parent directories)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------
def _fmt(metric: dict) -> str:
    if metric["value"] is None:
        return "n/a"
    text = f"{metric['value']:.4f} {metric['unit']}"
    if "supported" in metric:
        text += f"  (n={metric['samples']}"
        text += ")" if metric["supported"] else ", <10 beyond)"
    return text


def print_run(out: dict) -> None:
    mode = "traced" if out["trace"] else "untraced"
    print(f"== {out['workload']}  seed={out['seed']}  {mode}  "
          f"window={out['seconds']:g}s  wall={out['wall_s']:.1f}s  "
          f"(inputs {out['inputs_s']:.1f}s)")
    for name, metric in out["metrics"].items():
        print(f"  {name:24s} {_fmt(metric)}")
    for name, metric in out.get("extras", {}).items():
        print(f"  {name:24s} {_fmt(metric)}")
    print(f"  {'error_frac':24s} {out['error_frac']:.4f} "
          f"({out['failed']}/{out['attempted']})")
    if "per_op_ms" in out:
        print("  where each request's time went (mean ms per request):")
        for op, parts in sorted(out["per_op_ms"].items()):
            busy = sorted(parts.items(), key=lambda kv: -kv[1])
            cells = "  ".join(f"{k}={v:.3f}" for k, v in busy if abs(v) >= 0.0005)
            print(f"    {op:12s} n={out['op_counts'][op]:<5d} {cells}")
    for failure in out["failures"] + out["summary"]["errors"]:
        print(f"  FAILURE: {failure}")
    print(f"  result file: {out['result_path']}")


def spread(values: List[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else 0.0


def result_line(runs: List[dict], single: bool) -> dict:
    """The final JSON line: one run's metrics, or medians over runs."""
    metrics: Dict[str, dict] = {}
    names = [(r["workload"], n) for r in runs for n in r["metrics"]]
    for workload, name in dict.fromkeys(names):
        values = [
            r["metrics"][name]["value"] for r in runs
            if r["workload"] == workload and r["metrics"][name]["value"] is not None
        ]
        unit = next(r["metrics"][name]["unit"] for r in runs if r["workload"] == workload)
        key = name if single else f"{workload}/{name}"
        if values:
            metrics[key] = {"value": statistics.median(values), "unit": unit}
    return {
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=2012)
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"measure window (default {DEFAULT_SECONDS:g}, "
                             f"--smoke {SMOKE_SECONDS:g})")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny corpora, one boot, short windows")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload, at seeds seed..seed+N-1")
    args = parser.parse_args(argv)
    seconds = args.seconds or (SMOKE_SECONDS if args.smoke else DEFAULT_SECONDS)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    runs = []
    for name in names:
        for rep in range(args.repeat):
            out = run_workload(name, args.seed + rep, seconds, bool(args.trace),
                               args.smoke)
            print_run(out)
            runs.append(out)
        if args.repeat > 1:
            print(f"== {name}: median and quartile spread over {args.repeat} seeds")
            mine = [r for r in runs if r["workload"] == name]
            for metric in mine[0]["metrics"]:
                values = [r["metrics"][metric]["value"] for r in mine]
                if None in values:
                    continue
                print(f"  {metric:24s} median {statistics.median(values):.4f}  "
                      f"spread {100 * spread(values):.1f}%  "
                      f"[{min(values):.4f} .. {max(values):.4f}]")
    line = result_line(runs, single=len(names) == 1)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
