"""Declarative service-level objectives with rolling-window burn rates.

PRAGUE's operational promise is a *latency* promise: per-action work hides
inside the ≥2 s GUI window (Section VIII-B), so the service's primary SLO
is "actions complete within the window", with error rate and admission
rate alongside.  Each objective is a target fraction of *good* samples
over a rolling time window (:data:`SloTracker.WINDOW_S`, one hour):

* ``attainment`` — good / total over the window (``None`` with no samples);
* ``burn_rate`` — ``(1 - attainment) / (1 - target)``: the speed at which
  the error budget is being spent.  1.0 means failures arrive exactly at
  the budgeted rate (the budget lasts the window); 2.0 burns it twice as
  fast; below 1.0 the objective is being met with room to spare.

The tracker takes explicit ``t``/``now`` timestamps (defaulting to
``time.monotonic``) so the math is property-testable against a brute-force
reference without clock control.  Feeds are one deque append under a lock —
cheap enough for the request hot path, bounded by ``bench_obs_overhead``.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Deque, Dict, Iterable, Optional, Tuple

from collections import deque

from repro.config import DEFAULT_EDGE_LATENCY_SECONDS


@dataclass(frozen=True)
class SloObjective:
    """One objective: ``target`` fraction of samples must be *good*."""

    name: str
    description: str
    target: float


#: The service's default objectives.  ``request_errors`` deliberately treats
#: 503 as non-error: admission rejections are the ``admission`` objective's
#: budget, not a server fault.
DEFAULT_OBJECTIVES: Tuple[SloObjective, ...] = (
    SloObjective(
        "action_latency",
        "session actions complete within the GUI-latency window",
        0.99,
    ),
    SloObjective(
        "request_errors",
        "HTTP requests answered without a server error (5xx, excluding 503)",
        0.999,
    ),
    SloObjective(
        "admission",
        "session creates admitted under the capacity gate",
        0.99,
    ),
)


class SloTracker:
    """Rolling-window attainment + burn rate over declarative objectives."""

    #: Default rolling window: the objectives in ``/obs`` describe the last
    #: hour of traffic rather than process lifetime.
    WINDOW_S = 3600.0

    def __init__(
        self,
        objectives: Iterable[SloObjective] = DEFAULT_OBJECTIVES,
        window_s: float = WINDOW_S,
        max_samples: int = 4096,
    ) -> None:
        self._objectives: Dict[str, SloObjective] = {
            objective.name: objective for objective in objectives
        }
        self._window_s = max(float(window_s), 1e-9)
        self._lock = threading.Lock()
        self._samples: Dict[str, Deque[Tuple[float, bool]]] = {
            name: deque(maxlen=max(int(max_samples), 1))
            for name in self._objectives
        }

    def window(self) -> float:
        return self._window_s

    def objectives(self) -> Tuple[SloObjective, ...]:
        return tuple(self._objectives.values())

    def record(self, name: str, good: bool, t: Optional[float] = None) -> None:
        """Feed one sample; unknown objective names are ignored (hot path)."""
        samples = self._samples.get(name)
        if samples is None:
            return
        if t is None:
            t = time.monotonic()
        with self._lock:
            samples.append((float(t), bool(good)))

    def _window_counts_locked(self, name: str, now: float) -> Tuple[int, int]:
        """(good, total) inside the window; prunes aged-out samples."""
        samples = self._samples[name]
        horizon = now - self.window()
        while samples and samples[0][0] < horizon:
            samples.popleft()
        good = sum(1 for _, is_good in samples if is_good)
        return good, len(samples)

    def attainment(self, name: str, now: Optional[float] = None) -> Optional[float]:
        """Good fraction over the window, ``None`` without samples."""
        if name not in self._samples:
            return None
        if now is None:
            now = time.monotonic()
        with self._lock:
            good, total = self._window_counts_locked(name, now)
        return good / total if total else None

    def burn_rate(self, name: str, now: Optional[float] = None) -> Optional[float]:
        """Error-budget burn speed; ``None`` without samples or budget."""
        objective = self._objectives.get(name)
        if objective is None:
            return None
        attainment = self.attainment(name, now=now)
        if attainment is None:
            return None
        budget = 1.0 - objective.target
        if budget <= 0.0:
            return None  # a 100% objective has no budget to burn
        return (1.0 - attainment) / budget

    def snapshot(self, now: Optional[float] = None) -> Dict[str, Dict[str, Any]]:
        """Per-objective state, the shape ``/obs`` and ``repro top`` render."""
        if now is None:
            now = time.monotonic()
        window = self.window()
        out: Dict[str, Dict[str, Any]] = {}
        for name, objective in self._objectives.items():
            with self._lock:
                good, total = self._window_counts_locked(name, now)
            attainment = good / total if total else None
            budget = 1.0 - objective.target
            burn = (
                (1.0 - attainment) / budget
                if attainment is not None and budget > 0.0
                else None
            )
            out[name] = {
                "description": objective.description,
                "objective": objective.target,
                "window_s": window,
                "samples": total,
                "good": good,
                "bad": total - good,
                "attainment": attainment,
                "burn_rate": burn,
                "budget_remaining": (1.0 - burn) if burn is not None else None,
                "met": (attainment >= objective.target)
                if attainment is not None
                else None,
            }
        return out

    def reset(self) -> None:
        with self._lock:
            for samples in self._samples.values():
                samples.clear()


#: Process-wide tracker over :data:`DEFAULT_OBJECTIVES`.
SLO = SloTracker()


def record_action_latency(elapsed_s: float) -> None:
    """Feed one session-action latency; good within the paper's 2 s GUI
    window (:data:`repro.config.DEFAULT_EDGE_LATENCY_SECONDS`)."""
    SLO.record("action_latency", elapsed_s <= DEFAULT_EDGE_LATENCY_SECONDS)


def record_request(status: int) -> None:
    """Feed one completed HTTP request (5xx other than 503 burns budget)."""
    SLO.record("request_errors", status < 500 or status == 503)


def record_admission(admitted: bool) -> None:
    """Feed one session-create admission decision."""
    SLO.record("admission", admitted)
