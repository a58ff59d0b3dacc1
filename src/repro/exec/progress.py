"""Observability for the execution layer.

Executors emit one :class:`RunEvent` per completed run (whether
simulated or served from cache).  Anything callable with the event is
a valid hook; the module ships three:

* :class:`StderrProgress` — a single self-overwriting stderr line
  (``[exec] 12/48 runs | 3 cached | 0.8s/run | 2.1M events``), the
  thing you want when a factorial sweep takes minutes;
* :class:`Telemetry` — accumulates per-run wall-clock and
  events-processed counters into a summary dict (fed by the
  per-run telemetry the sim measurement backend extracts from
  ``Simulator.events_processed``);
* :func:`chain` — fan one event out to several hooks.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Callable, List, Optional, TextIO

__all__ = ["RunEvent", "ProgressHook", "StderrProgress", "Telemetry", "chain"]


@dataclass(frozen=True)
class RunEvent:
    """One executor observation: a completed run, or a fault/recovery.

    ``kind`` distinguishes the streams sharing this type:

    * ``"run"`` — one completed spec (the original meaning; every
      field is populated);
    * ``"fault"`` — something went wrong but was contained;
      ``detail`` names it, ``index`` is -1;
    * ``"recovery"`` — the containment succeeded; ``detail`` names it,
      ``index`` is -1.

    Neither built-in executor emits ``"fault"`` or ``"recovery"``
    events; a custom executor may.  Aggregating hooks must ignore
    non-``"run"`` events for run math (both shipped hooks do).
    """

    #: Position of the spec in the submitted batch (-1 for non-run events).
    index: int
    #: Size of the submitted batch.
    total: int
    #: Content digest of the spec (empty for non-RunSpec tasks).
    digest: str = ""
    #: Cosmetic spec label, when provided.
    tag: str = ""
    #: True when the result came from the on-disk cache.
    cached: bool = False
    #: Wall-clock seconds the run took to simulate (0 for cache hits).
    wall_s: float = 0.0
    #: Simulator events processed during the run.
    events_processed: int = 0
    #: Executor attempt number (> 1 after a crash/timeout retry).
    attempt: int = 1
    #: Event stream: "run" (default), "fault", or "recovery".
    kind: str = "run"
    #: Human-readable description for fault/recovery events.
    detail: str = ""


#: Anything that accepts a RunEvent.
ProgressHook = Callable[[RunEvent], None]


class StderrProgress:
    """Self-overwriting one-line progress report.

    Safe to reuse across batches; call :meth:`close` (or use as a
    context manager) to terminate the line.
    """

    def __init__(self, label: str = "exec", stream: Optional[TextIO] = None):
        self.label = label
        self.stream = stream if stream is not None else sys.stderr
        self._seen = 0
        self._cached = 0
        self._wall = 0.0
        self._events = 0
        self._total = 0
        self._faults = 0
        self._open = False

    def __call__(self, event: RunEvent) -> None:
        if event.kind != "run":
            self._faults += event.kind == "fault"
            return
        self._seen += 1
        self._total = max(self._total, event.total)
        if event.cached:
            self._cached += 1
        self._wall += event.wall_s
        self._events += event.events_processed
        simulated = self._seen - self._cached
        per_run = self._wall / simulated if simulated else 0.0
        line = (
            f"[{self.label}] {self._seen}/{self._total} runs"
            f" | {self._cached} cached"
            f" | {per_run:.2f}s/run"
            f" | {self._events / 1e6:.1f}M events"
        )
        if self._faults:
            line += f" | {self._faults} faults"
        self.stream.write("\r" + line)
        self.stream.flush()
        self._open = True

    def close(self) -> None:
        if self._open:
            self.stream.write("\n")
            self.stream.flush()
            self._open = False

    def __enter__(self) -> "StderrProgress":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


@dataclass
class Telemetry:
    """Accumulates executor events into machine-readable totals."""

    events: List[RunEvent] = field(default_factory=list)

    def __call__(self, event: RunEvent) -> None:
        self.events.append(event)

    @property
    def run_events(self) -> List[RunEvent]:
        return [e for e in self.events if e.kind == "run"]

    @property
    def runs(self) -> int:
        return len(self.run_events)

    @property
    def cache_hits(self) -> int:
        return sum(1 for e in self.run_events if e.cached)

    @property
    def wall_s(self) -> float:
        """Total simulated wall-clock across runs (cache hits are 0)."""
        return float(sum(e.wall_s for e in self.run_events))

    @property
    def events_processed(self) -> int:
        return int(sum(e.events_processed for e in self.run_events))

    @property
    def retries(self) -> int:
        return sum(e.attempt - 1 for e in self.run_events)

    @property
    def faults(self) -> int:
        """Contained ``"fault"`` events observed."""
        return sum(1 for e in self.events if e.kind == "fault")

    @property
    def recoveries(self) -> int:
        return sum(1 for e in self.events if e.kind == "recovery")

    def summary(self) -> dict:
        simulated = self.runs - self.cache_hits
        return {
            "runs": self.runs,
            "cache_hits": self.cache_hits,
            "retries": self.retries,
            "faults": self.faults,
            "recoveries": self.recoveries,
            "wall_s": round(self.wall_s, 3),
            "events_processed": self.events_processed,
            "events_per_second": (
                round(self.events_processed / self.wall_s) if self.wall_s > 0 else 0
            ),
            "mean_run_s": round(self.wall_s / simulated, 4) if simulated else 0.0,
        }


def chain(*hooks: Optional[ProgressHook]) -> ProgressHook:
    """Combine several hooks (``None`` entries are skipped)."""
    live = [h for h in hooks if h is not None]

    def fanout(event: RunEvent) -> None:
        for hook in live:
            hook(event)

    return fanout
