#!/usr/bin/env python
"""CI smoke for the service layer: boot ``repro serve``, drive it, kill it.

End to end over a real subprocess — the one surface the in-process tests
cannot cover: argument parsing, the stdout readiness line, signal-driven
shutdown, and resource hygiene.  The script

1. snapshots ``/dev/shm`` (nothing publishes ``psm_*`` segments there; the
   run proves it stays that way),
2. spawns ``python -m repro serve`` in its own process group and waits for
   the ``serving PRAGUE sessions on http://...`` readiness line,
3. drives several genuinely concurrent scripted sessions over HTTP and
   checks ``/healthz`` bookkeeping,
4. exercises the telemetry plane: the ``X-Prague-Request`` round trip,
   the ``/obs`` SLO section, the per-session ``/v1/sessions/<id>/obs``
   view, and ``repro top --server URL --once`` rendering a live frame
   from a second subprocess,
5. checks that the server runs warm-pool workers (it is started with
   ``REPRO_WORKERS=2`` and ``REPRO_POOL_MIN_CANDIDATES=1``, so every Run
   goes through the pool), then sends SIGTERM to the server process alone,
   as process supervisors do, and asserts a clean exit: status 0, the
   ``server stopped`` farewell, no surviving process group (the workers
   died with the server), and no orphaned shared-memory segments.

Exit status 0 means all of that held.  Stdlib only.
"""

import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

from repro.service import ServiceClient  # noqa: E402

READY = re.compile(r"serving PRAGUE sessions on http://([^:]+):(\d+)")
NUM_USERS = 6
POOL_WORKERS = 2
BOOT_TIMEOUT_S = 120.0
EXIT_TIMEOUT_S = 30.0


def shm_segments():
    shm = Path("/dev/shm")
    if not shm.is_dir():
        return set()
    return {p.name for p in shm.iterdir() if p.name.startswith("psm_")}


def wait_ready(proc):
    deadline = time.monotonic() + BOOT_TIMEOUT_S
    lines = []
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            raise SystemExit(
                "server exited before becoming ready:\n" + "".join(lines)
            )
        lines.append(line)
        match = READY.search(line)
        if match:
            return match.group(1), int(match.group(2)), lines
    raise SystemExit("server never printed the readiness line")


def pool_workers(pid):
    """Child processes forked from ``pid`` (same command line) — the warm
    pool's workers; the multiprocessing resource tracker is not one."""
    def cmdline(p):
        try:
            return Path(f"/proc/{p}/cmdline").read_bytes()
        except OSError:
            return None

    own = cmdline(pid)
    workers = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            ppid = int(stat.read_text().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue  # the process ended while we looked
        child = int(stat.parent.name)
        if ppid == pid and cmdline(child) == own:
            workers.append(child)
    return workers


def drive(host, port):
    barrier = threading.Barrier(NUM_USERS)
    errors = []

    def user(tag):
        try:
            with ServiceClient(host, port, timeout=30.0) as client:
                barrier.wait(timeout=30.0)
                sid = client.create_session(sigma=2)
                client.add_node(sid, "a", "C")
                client.add_node(sid, "b", "C")
                step = client.add_edge(sid, "a", "b")
                assert step["num_edges"] == 1, step
                run = client.run(sid)["run"]
                assert isinstance(run["exact"], list), run
                undone = client.undo(sid)
                assert undone["num_edges"] == 0, undone
                client.close_session(sid)
        except Exception as exc:  # noqa: BLE001 - collected for the report
            errors.append(f"user {tag}: {type(exc).__name__}: {exc}")

    threads = [
        threading.Thread(target=user, args=(i,)) for i in range(NUM_USERS)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120.0)
    if errors:
        raise SystemExit("concurrent sessions failed:\n" + "\n".join(errors))

    with ServiceClient(host, port, timeout=30.0) as client:
        health = client.health()
        assert health["status"] == "ok", health
        assert health["created"] >= NUM_USERS, health
        assert health["active"] == 0, health
    print(f"drove {NUM_USERS} concurrent sessions: ok")


def pooled_run(host, port):
    """One Run that must verify candidates: a 5-edge carbon chain is larger
    than the indexed fragments (``--max-edges 4``), so its candidates go
    through VF2 — on the warm pool, given the floor of 1."""
    with ServiceClient(host, port, timeout=60.0) as client:
        sid = client.create_session(sigma=2)
        for i in range(6):
            client.add_node(sid, i, "C")
        for i in range(5):
            client.add_edge(sid, i, i + 1)
        run = client.run(sid)["run"]
        assert isinstance(run["exact"], list), run
        client.close_session(sid)
    print(f"pooled run: {len(run['exact'])} exact answers")


def telemetry(host, port):
    """The request-scoped telemetry plane, over the same live subprocess."""
    with ServiceClient(host, port, timeout=30.0) as client:
        # the X-Prague-Request round trip: honored and echoed verbatim
        client.request("GET", "/healthz", request_id="smoke-req-001")
        assert client.last_request_id == "smoke-req-001", (
            f"request id not echoed: {client.last_request_id!r}"
        )
        # ... and minted when the client sends none
        client.health()
        assert client.last_request_id, "server must mint an id"

        # /obs carries the SLO section with sampled request_errors
        data = client.obs()
        assert "slo" in data, sorted(data)
        errors = data["slo"].get("request_errors")
        assert errors and errors["samples"] >= 1, data["slo"]
        assert errors["attainment"] is not None, errors

        # the per-session observability view responds with the ledger
        sid = client.create_session(sigma=2)
        client.add_node(sid, "a", "C")
        client.add_node(sid, "b", "C")
        client.add_edge(sid, "a", "b")
        session_obs = client.session_obs(sid)
        assert session_obs["session"] == sid, session_obs
        assert session_obs["actions"] == 3, session_obs
        assert session_obs["action_latency"]["count"] == 3, session_obs
        client.close_session(sid)
    print("telemetry plane: request-id echo, /obs slo, session obs: ok")

    # the remote console renders one frame against the live server
    frame = subprocess.run(
        [sys.executable, "-m", "repro", "top",
         "--server", f"http://{host}:{port}", "--once"],
        cwd=REPO,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        capture_output=True,
        text=True,
        timeout=60.0,
    )
    if frame.returncode != 0:
        raise SystemExit(
            f"repro top --server exited {frame.returncode}:\n{frame.stderr}"
        )
    for needle in ("repro top — pid", "SLOs (rolling window):",
                   "request_errors"):
        if needle not in frame.stdout:
            raise SystemExit(
                f"repro top --server frame missing {needle!r}:\n"
                f"{frame.stdout}"
            )
    print("repro top --server --once rendered a live frame: ok")


def main():
    before = shm_segments()
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--synthetic", "30", "--port", "0", "--sigma", "2",
         "--max-edges", "4"],
        cwd=REPO,
        env={**os.environ, "PYTHONPATH": str(REPO / "src"),
             "REPRO_WORKERS": str(POOL_WORKERS),
             "REPRO_POOL_MIN_CANDIDATES": "1"},
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        start_new_session=True,
    )
    try:
        host, port, lines = wait_ready(proc)
        print("".join(lines).rstrip())
        drive(host, port)
        telemetry(host, port)
        pooled_run(host, port)

        workers = pool_workers(proc.pid)
        if len(workers) < POOL_WORKERS:
            raise SystemExit(
                f"expected {POOL_WORKERS} warm-pool workers, found {workers}"
            )
        print(f"warm pool running: workers {workers}")

        proc.send_signal(signal.SIGTERM)  # the server alone, not its group
        output, _ = proc.communicate(timeout=EXIT_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()

    if proc.returncode != 0:
        raise SystemExit(
            f"server exited with status {proc.returncode}:\n{output}"
        )
    if "server stopped" not in output:
        raise SystemExit(f"no clean-shutdown farewell in output:\n{output}")
    # Pool workers and the multiprocessing resource tracker exit a beat
    # after the main process; give the group a grace window before calling
    # any survivor a leak.
    deadline = time.monotonic() + 10.0
    while True:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            break  # the whole group is gone — no leaked workers
        if time.monotonic() > deadline:
            os.killpg(proc.pid, signal.SIGKILL)
            raise SystemExit("server process group survived SIGTERM")
        time.sleep(0.2)

    leaked = shm_segments() - before
    if leaked:
        raise SystemExit(
            "orphaned shared-memory segments: " + ", ".join(sorted(leaked))
        )
    print("clean shutdown: exit 0, process group gone, no shm leaks")


if __name__ == "__main__":
    main()
