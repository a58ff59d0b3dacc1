"""Periodic machine telemetry for diagnosing simulated runs.

The paper's attribution pipeline treats the server as a black box; the
simulator does not have to.  :class:`MachineTelemetry` samples per-core
state on a fixed virtual-time period — busy fraction since the last
sample, instantaneous queue depth, effective frequency, and per-socket
thermal headroom — producing the timeline a performance engineer would
pull from ``perf``/``turbostat`` on the real machine.

Used by tests to verify mechanism-level behaviour (e.g. that
``same-node`` NIC affinity concentrates IRQ load on socket-0 cores, or
that thermal headroom dips under sustained load) and available to
users for debugging their own experiment configurations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from .engine import Simulator
from .machine import ServerMachine

__all__ = ["CoreSample", "MachineTelemetry"]


@dataclass
class CoreSample:
    """One core's state over one sampling period."""

    time_us: float
    core_index: int
    socket_index: int
    busy_fraction: float
    queue_depth: int
    effective_freq_ghz: float
    irq_us_delta: float


class MachineTelemetry:
    """Samples a :class:`~repro.sim.machine.ServerMachine` periodically.

    Start with :meth:`start`; samples accumulate until :meth:`stop`.
    All series are exposed as numpy arrays via :meth:`core_series` /
    :meth:`headroom_series`.

    .. note:: the sampler keeps rescheduling itself, so a simulation
       driven by "run until the event heap drains" will never drain
       while telemetry is running — call :meth:`stop` before any final
       drain (e.g. before ``TestBench.run_to_completion``'s trailing
       ``sim.run()``).
    """

    def __init__(self, server: ServerMachine, period_us: float = 500.0):
        if period_us <= 0:
            raise ValueError("period_us must be positive")
        self.server = server
        self.sim: Simulator = server.sim
        self.period_us = period_us
        self.samples: List[CoreSample] = []
        #: (time, socket_index, headroom) triples.
        self.headroom: List[tuple] = []
        self._last_busy: Dict[int, float] = {}
        self._last_irq: Dict[int, float] = {}
        self._event = None
        self._running = False

    def start(self) -> None:
        if self._running:
            raise RuntimeError("telemetry already started")
        self._running = True
        for core in self.server.cpu.cores:
            self._last_busy[core.index] = core.busy_us
            self._last_irq[core.index] = core.irq_us
        self._event = self.sim.schedule(self.period_us, self._tick)

    def stop(self) -> None:
        self._running = False
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _tick(self) -> None:
        if not self._running:
            return
        now = self.sim.now
        for core in self.server.cpu.cores:
            busy_delta = core.busy_us - self._last_busy[core.index]
            irq_delta = core.irq_us - self._last_irq[core.index]
            self._last_busy[core.index] = core.busy_us
            self._last_irq[core.index] = core.irq_us
            self.samples.append(
                CoreSample(
                    time_us=now,
                    core_index=core.index,
                    socket_index=core.socket.index,
                    busy_fraction=min(1.0, busy_delta / self.period_us),
                    queue_depth=core.queue_depth,
                    effective_freq_ghz=core.effective_freq_ghz(now),
                    irq_us_delta=irq_delta,
                )
            )
        for socket in self.server.cpu.sockets:
            self.headroom.append((now, socket.index, socket.thermal_headroom(now)))
        self._event = self.sim.schedule(self.period_us, self._tick)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def core_series(self, core_index: int, fld: str = "busy_fraction") -> np.ndarray:
        """Time series of one field for one core."""
        values = [
            getattr(s, fld) for s in self.samples if s.core_index == core_index
        ]
        return np.asarray(values, dtype=float)

    def mean_busy_by_core(self) -> Dict[int, float]:
        """Average busy fraction per core over the whole capture."""
        out: Dict[int, List[float]] = {}
        for s in self.samples:
            out.setdefault(s.core_index, []).append(s.busy_fraction)
        return {idx: float(np.mean(vals)) for idx, vals in out.items()}

    def irq_share_by_socket(self) -> Dict[int, float]:
        """Fraction of observed IRQ time handled on each socket."""
        totals: Dict[int, float] = {}
        for s in self.samples:
            totals[s.socket_index] = totals.get(s.socket_index, 0.0) + s.irq_us_delta
        grand = sum(totals.values())
        if grand <= 0:
            return {k: 0.0 for k in totals}
        return {k: v / grand for k, v in totals.items()}

    def headroom_series(self, socket_index: int) -> np.ndarray:
        return np.asarray(
            [h for t, s, h in self.headroom if s == socket_index], dtype=float
        )
