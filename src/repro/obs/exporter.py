"""Continuous telemetry export — stream a session instead of autopsying it.

Spans, histograms and the flight recorder all answer questions *after* the
fact; a long-running session serving real traffic needs to be watchable
*while it runs*.  When ``REPRO_OBS_EXPORT`` names a directory at start-up
(or :meth:`ContinuousExporter.export_to` points the exporter at one), it
keeps three files there live:

* ``events.jsonl`` — every flight-recorder event, appended the moment it is
  recorded (one schema-v2 ``obs-event`` envelope per line), the parent's
  ``src``-labelled ``pool.chunk`` events included;
* ``metrics.prom`` — the full metrics snapshot (counters, gauges, latency
  histograms) in Prometheus text exposition format, rewritten at the end of
  an engine action at most once per
  :attr:`ContinuousExporter.interval_s` seconds (1 s);
* ``snapshot.json`` — the same snapshot as a schema-v2 ``metrics-snapshot``
  envelope with pid/timestamp/sequence metadata, the machine-readable twin
  ``python -m repro top`` tails.

Both metric files are written atomically (temp file + ``os.replace``) so a
tailing reader never sees a half-written snapshot.

Verification-pool workers inherit the parent's exporter state on fork;
:func:`repro.core.pool._init_worker` calls :meth:`suspend` so a worker never
appends to the parent's files — what a chunk observed reaches the stream as
the parent records it.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, Dict, Optional, TextIO, Union

from repro.config import obs_export_dir


class ContinuousExporter:
    """Process-wide streaming exporter (single-threaded, like the tracer)."""

    #: Minimum seconds between metrics-file rewrites; ``0`` rewrites at
    #: every completed engine action.  The JSONL stream is not affected.
    interval_s: float = 1.0

    def __init__(self) -> None:
        self.directory: Optional[Path] = None
        self._events_file: Optional[TextIO] = None
        self._last_write: float = 0.0
        self._suspended: bool = False  # set in pool workers, never cleared
        #: Lifetime accounting, reported in every snapshot.json.
        self.events_emitted: int = 0
        self.snapshots_written: int = 0
        self.active: bool = False
        self.export_to(obs_export_dir())

    # ------------------------------------------------------------------
    # switching
    # ------------------------------------------------------------------
    def export_to(self, directory: Union[str, Path, None]) -> None:
        """Stream into ``directory`` from now on, or stop with ``None``.

        Closes the current event stream first; the next tick writes the
        metrics files at once.  A suspended exporter stays inactive.
        """
        if self._events_file is not None:
            try:
                self._events_file.close()
            except OSError:  # pragma: no cover - close failures are benign
                pass
            self._events_file = None
        if directory is None or self._suspended:
            self.directory = None
            self.active = False
            return
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.active = True
        self._last_write = 0.0  # first tick writes immediately

    def suspend(self) -> None:
        """Permanently deactivate in this process (called in pool workers).

        A forked worker shares the parent's open JSONL handle; writing from
        both would interleave garbage.  A chunk instead returns what it
        observed, and the parent records it into its own stream.
        """
        self._suspended = True
        self.directory = None
        self.active = False
        self._events_file = None  # never close: the fd belongs to the parent

    # ------------------------------------------------------------------
    # streaming
    # ------------------------------------------------------------------
    def emit(self, event: Dict[str, Any]) -> None:
        """Append one event to ``events.jsonl`` (no-op while inactive).

        Each line is a flat schema-v2 ``obs-event`` envelope around the
        flight-recorder event dict.  The file is line-buffered so a tailing
        ``repro top`` sees events promptly without per-event ``fsync`` cost.
        """
        if not self.active:
            return
        if self._events_file is None:
            self._events_file = open(
                self.directory / "events.jsonl", "a",
                buffering=1, encoding="utf-8",
            )
        from repro.obs.export import envelope

        payload = dict(event)
        # The recorder's event kind would clobber the envelope's artifact
        # kind — it rides as "event" instead.
        payload["event"] = payload.pop("kind", "?")
        line = json.dumps(
            envelope("obs-event", payload), separators=(",", ":"), default=str
        )
        try:
            self._events_file.write(line + "\n")
        except (OSError, ValueError):  # target vanished mid-session: drop
            self.active = False
            return
        self.events_emitted += 1

    def tick(self, force: bool = False) -> Optional[Path]:
        """Rewrite ``metrics.prom`` + ``snapshot.json`` if the interval is up.

        Called after every completed engine action; :attr:`interval_s`
        bounds the file I/O no matter how chatty the session is.  Returns
        the snapshot path when a write happened.
        """
        if not self.active:
            return None
        now = time.monotonic()
        if not force and self._last_write and \
                now - self._last_write < self.interval_s:
            return None
        self._last_write = now
        from repro.obs.export import envelope, render_prometheus
        from repro.obs.metrics import full_snapshot

        snapshot = full_snapshot()
        payload = envelope("metrics-snapshot", {
            "written_at": time.time(),
            "pid": os.getpid(),
            "sequence": self.snapshots_written + 1,
            "events_emitted": self.events_emitted,
            "metrics": snapshot,
        })
        try:
            self._atomic_write(
                "metrics.prom", render_prometheus(snapshot) + "\n"
            )
            path = self._atomic_write(
                "snapshot.json",
                json.dumps(payload, indent=2, default=str) + "\n",
            )
        except OSError:  # export target vanished: deactivate quietly
            self.active = False
            return None
        self.snapshots_written += 1
        self._write_profiles()
        return path

    def _write_profiles(self) -> None:
        """Refresh the ``profiles/`` section when the sampler has samples.

        Two files, same atomicity contract as the metrics pair:
        ``profiles/profile.folded`` (collapsed stacks, flamegraph.pl input)
        and ``profiles/profile.json`` (the full attributed profile with its
        summary).  Skipped entirely — no directory created — while the
        sampler is off or empty.
        """
        from repro.obs.profiler import PROFILER, folded_lines, profile_summary

        if not PROFILER.enabled or not PROFILER.samples:
            return
        try:
            (self.directory / "profiles").mkdir(exist_ok=True)
            profile = PROFILER.collect()
            self._atomic_write(
                "profiles/profile.folded",
                "\n".join(folded_lines(PROFILER.stacks())) + "\n",
            )
            from repro.obs.export import envelope

            self._atomic_write(
                "profiles/profile.json",
                json.dumps(envelope("profile", {
                    "profile": profile,
                    "summary": profile_summary(profile),
                }), indent=2, default=str) + "\n",
            )
        except OSError:  # pragma: no cover - same contract as tick()
            pass

    def _atomic_write(self, name: str, text: str) -> Path:
        path = self.directory / name
        tmp = path.with_name(f".{path.name}.tmp")
        tmp.write_text(text)
        os.replace(tmp, path)
        return path


#: The process-wide exporter; inert unless ``REPRO_OBS_EXPORT`` is set.
EXPORTER = ContinuousExporter()
