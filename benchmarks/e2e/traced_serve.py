"""Run ``repro serve`` with the layer wrapper table installed.

    python benchmarks/e2e/traced_serve.py --spans spans.json serve db.lg ...

Everything after ``--spans PATH`` is passed to ``repro.cli.main`` unchanged.
When the server stops (SIGTERM/SIGINT), the recorded spans and call counts
are written to PATH as JSON.  A wrapped attribute that no longer exists
aborts the launch before the server starts.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import layers


def main(argv) -> int:
    if len(argv) < 3 or argv[0] != "--spans":
        print("usage: traced_serve.py --spans PATH serve ...", file=sys.stderr)
        return 2
    spans_path, serve_argv = Path(argv[1]), argv[2:]
    recorder = layers.Recorder()
    layers.install(recorder)
    from repro.cli import main as cli_main

    try:
        return cli_main(serve_argv)
    finally:
        spans_path.write_text(json.dumps(recorder.snapshot()))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
