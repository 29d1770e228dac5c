"""``repro serve`` as a supervised process: SIGTERM on readiness is clean.

The readiness line is the contract process supervisors (and the service
benchmarks) act on, so it must not appear before the server handles
SIGTERM: a SIGTERM sent the moment the line is read must still end in a
clean shutdown, never in death by signal.
"""

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parents[1]
BOOTS = 5


def _boot():
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--synthetic", "20",
         "--port", "0", "--max-edges", "3"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=env, start_new_session=True,
    )


@pytest.mark.parametrize("boot", range(BOOTS))
def test_sigterm_on_readiness_line_stops_cleanly(boot):
    proc = _boot()
    try:
        lines = []
        for line in proc.stdout:
            lines.append(line)
            if line.startswith("serving PRAGUE sessions on "):
                proc.send_signal(signal.SIGTERM)
                break
        else:
            pytest.fail("server exited before readiness:\n" + "".join(lines))
        rest, _ = proc.communicate(timeout=30)
        output = "".join(lines) + rest
        assert proc.returncode == 0, output
        assert "server stopped" in output, output
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()


def test_on_ready_runs_after_the_handlers_are_installed(plane):
    """In-process and deterministic: a SIGTERM raised from ``on_ready``
    must reach the stop handler, so ``serve_forever`` returns normally."""
    from repro.service import PragueService, SessionManager, serve_forever

    service = PragueService(SessionManager(plane, ttl=0), port=0)
    seen = {}

    def on_ready():
        seen["handler"] = signal.getsignal(signal.SIGTERM)
        os.kill(os.getpid(), signal.SIGTERM)

    saved = {s: signal.getsignal(s) for s in (signal.SIGTERM, signal.SIGINT)}
    try:
        serve_forever(service, on_ready=on_ready)
    finally:
        for signum, handler in saved.items():
            signal.signal(signum, handler)
    assert callable(seen["handler"])
