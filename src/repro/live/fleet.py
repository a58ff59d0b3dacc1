"""Supervised multi-process live fleet.

A single asyncio loop saturates long before a modern endpoint does —
and a saturated *client* distorts the tail it measures (the paper's
lightly-utilized-client requirement).  :class:`FleetRun` shards one
live spec's :class:`~repro.live.driver.InstanceAssignment` list across
``LiveOptions.processes`` client OS processes
(:mod:`repro.live.clientproc`), round-robin by instance index, so the
union of the slices is exactly the single-process assignment set: the
RNG registry keys gap streams by instance *name*, so the fleet's
offered load composes to the identical schedule, process boundaries
notwithstanding.

The supervisor is deliberately the same shape as the PR-3 cluster
coordinator, because a fleet is only trustworthy if it survives its
own failures:

* clients connect back over the PR-2 **frame protocol** with the
  versioned handshake, then stream **heartbeats** (progress counters,
  partial :class:`~repro.core.treadmill.PhaseRecorder` state, and a
  process-CPU fraction) every ``heartbeat_interval_s``;
* a missed **heartbeat deadline** or an unexpected exit is a crash;
  crashed slots are **respawned** under a per-slot budget
  (``respawn_attempts``) with the seeded decorrelated-jitter schedule
  (:func:`repro.exec.backoff.jitter_rng` on channel
  :data:`~repro.exec.backoff.RESPAWN_CHANNEL` — replayable, like the
  connection backoff); a slot that exhausts its budget is lost for
  good, and the heartbeat CPU probe quarantines a client that is
  **saturated** (``saturation_cpu_fraction``) — a sick client is
  detected and excluded, not averaged in;
* the merge is **crash-safe**: completed slots' reports aggregate
  through the same :func:`~repro.live.driver.build_live_result` path
  as the single-process driver (so the merged histogram over the
  surviving slices equals a single-process run of those slices'
  streams — the kill-test invariant), while lost slots surface in the
  fleet ledger on ``result.live_health`` (``lost_clients``,
  ``lost_partial_samples`` from their last heartbeat, events) and trip
  the ``degradation`` guard;
* losing more than ``max_lost_client_fraction`` of the processes
  aborts with a clean :class:`LiveMeasurementError` — the
  fleet-level watchdog (heartbeat deadlines + respawn budgets) makes
  every outcome converge or abort; a hang is structurally impossible.

Chaos hooks (``LiveOptions.injector``, duck-typed
:class:`repro.faults.FaultInjector`): ``fleet.spawn`` is consulted at
every (re)spawn and may ship a ``crash``/``hang`` directive to that
client; ``fleet.heartbeat`` is consulted per received heartbeat and
may drop the frame on the floor — exercising the deadline machinery
against a perfectly healthy client.
"""

from __future__ import annotations

import secrets
import socket
import subprocess
import threading
import time
from typing import Dict, List, Optional

import numpy as np

from ..exec.backoff import RESPAWN_CHANNEL, jitter_rng, next_delay
from ..exec.protocol import (
    ProtocolError,
    handshake_reply,
    reap,
    recv_msg,
    send_msg,
    spawn_module,
)
from .driver import (
    InstanceAssignment,
    LiveMeasurementError,
    LiveOptions,
    build_live_result,
)

__all__ = ["FleetRun"]

#: Poll cadence of the supervision loop.
_POLL_S = 0.05

#: Grace before the *first* heartbeat of an incarnation (interpreter
#: start-up + connect-back + handshake are all in this window).
_STARTUP_GRACE_S = 15.0

#: Tighter grace once the client has completed the handshake and
#: received its assignment — from there the first heartbeat is one
#: ``heartbeat_interval_s`` away, so a wedged client is caught fast.
_ASSIGN_GRACE_S = 2.0

#: Events kept on the fleet ledger.
_MAX_FLEET_EVENTS = 64

#: Connection-level health counters summed across completed slots
#: (the single-process _Health vocabulary, so the degradation guard
#: reads fleet ledgers and plain ledgers identically).
_CONN_COUNTERS = (
    "connections",
    "dropped_connections",
    "reconnects",
    "lost_connections",
    "lost_sends",
    "lost_pending",
    "stall_warnings",
    "mid_run_probes",
)


class _Slot:
    """Supervisor-side state of one client process slot."""

    def __init__(self, slot: int, assignments: List[InstanceAssignment]):
        self.slot = slot
        self.name = f"client{slot}"
        self.assignments = assignments
        self.lock = threading.Lock()
        self.proc: Optional[subprocess.Popen] = None
        self.directive: Optional[Dict[str, object]] = None
        #: Bumped per spawn; frames from older incarnations are stale.
        self.incarnation = 0
        self.spawned = 0
        self.respawns_used = 0
        self.respawn_at: Optional[float] = None
        self.backoff_delay: Optional[float] = None
        self.backoff_rng = None
        self.last_beat: float = 0.0
        self.beat_grace: float = _STARTUP_GRACE_S
        self.sat_strikes = 0
        self.last_partial: Dict[str, Dict[str, object]] = {}
        self.result: Optional[Dict[str, object]] = None
        self.error: Optional[str] = None
        self.state = "pending"  # pending -> running -> done | lost
        self.lost_reason = ""

    def terminal(self) -> bool:
        return self.state in ("done", "lost")


class FleetRun:
    """One prepared multi-process live experiment (``MeasurementRun``)."""

    def __init__(
        self,
        spec,
        options: LiveOptions,
        assignments: List[InstanceAssignment],
    ):
        self.spec = spec
        self.options = options
        self.assignments = assignments
        processes = min(options.processes, len(assignments))
        self.slots = [
            _Slot(s, list(assignments[s::processes])) for s in range(processes)
        ]
        self._token = secrets.token_hex(8)
        self._listener: Optional[socket.socket] = None
        self._events: List[str] = []
        self._events_lock = threading.Lock()
        self.heartbeat_misses = 0
        self.dropped_heartbeats = 0
        self.quarantined = 0
        self.respawns = 0
        self.lost_clients = 0

    # -- ledger ---------------------------------------------------------
    def _event(self, kind: str, detail: str = "") -> None:
        with self._events_lock:
            self._events.append(f"{kind}: {detail}" if detail else kind)
            if len(self._events) > _MAX_FLEET_EVENTS:
                del self._events[: len(self._events) - _MAX_FLEET_EVENTS]

    # -- spawn / kill ---------------------------------------------------
    def _spawn(self, slot: _Slot, now: float) -> None:
        directive = None
        injector = self.options.injector
        if injector is not None:
            action = injector.fire("fleet.spawn")
            if action is not None:
                if action.kind == "client_proc_crash":
                    directive = {
                        "kind": "crash",
                        "after_s": float(getattr(action, "seconds", 0.2) or 0.2),
                    }
                elif action.kind == "client_proc_hang":
                    directive = {"kind": "hang"}
                self._event("fault-directive", f"{action.kind} -> {slot.name}")
        host, port = self._listener.getsockname()[:2]
        with slot.lock:
            slot.incarnation += 1
            slot.spawned += 1
            slot.directive = directive
            slot.result = None
            slot.error = None
            slot.sat_strikes = 0
            slot.respawn_at = None
            slot.last_beat = now
            slot.beat_grace = _STARTUP_GRACE_S
            slot.state = "running"
            slot.proc = spawn_module(
                "repro.live.clientproc",
                "--connect",
                f"{host}:{port}",
                "--slot",
                str(slot.slot),
                "--token",
                self._token,
            )
        self._event("spawn", f"{slot.name} incarnation {slot.incarnation}")

    # -- connection handling --------------------------------------------
    def _accept_loop(self) -> None:
        while True:
            try:
                conn, _addr = self._listener.accept()
            except OSError:
                return  # listener closed: run is over
            threading.Thread(
                target=self._serve_client, args=(conn,), daemon=True
            ).start()

    def _serve_client(self, conn: socket.socket) -> None:
        try:
            conn.settimeout(10.0)
            greeting = recv_msg(conn)
            if greeting is None:
                conn.close()
                return
            if greeting.get("token") != self._token:
                send_msg(conn, {"type": "reject", "reason": "bad token"})
                conn.close()
                return
            reply = handshake_reply(greeting)
            send_msg(conn, reply)
            if reply["type"] != "welcome":
                conn.close()
                return
            slot_idx = int(greeting.get("slot", -1))
            if not 0 <= slot_idx < len(self.slots):
                conn.close()
                return
            slot = self.slots[slot_idx]
            with slot.lock:
                incarnation = slot.incarnation
                directive = slot.directive
                assignments = slot.assignments
            send_msg(
                conn,
                {
                    "type": "assign",
                    "spec": self.spec,
                    # The client runs the plain single-process driver
                    # core on its slice; fleet-level knobs are inert
                    # there, but heartbeat_interval_s matters.
                    "options": self._client_options(),
                    "assignments": assignments,
                    "directive": directive,
                },
            )
            conn.settimeout(None)
            with slot.lock:
                if slot.incarnation == incarnation:
                    slot.last_beat = time.monotonic()
                    slot.beat_grace = _ASSIGN_GRACE_S
            self._reader(slot, incarnation, conn)
        except (ProtocolError, OSError) as exc:
            self._event("protocol-error", str(exc))
        finally:
            try:
                conn.close()
            except OSError:  # pragma: no cover - platform noise
                pass

    def _client_options(self) -> LiveOptions:
        # processes=1 and no injector: the client must not recurse into
        # fleet mode, and live faults fire at the supervisor, not in N
        # client processes at once (which would multiply every nth=1
        # action by the fleet size).
        import dataclasses

        return dataclasses.replace(self.options, processes=1, injector=None)

    def _reader(self, slot: _Slot, incarnation: int, conn: socket.socket) -> None:
        injector = self.options.injector
        while True:
            try:
                msg = recv_msg(conn)
            except (ProtocolError, OSError):
                return
            if msg is None:
                return
            now = time.monotonic()
            with slot.lock:
                if slot.incarnation != incarnation:
                    return  # stale incarnation; its frames are history
                kind = msg.get("type")
                if kind == "heartbeat":
                    if injector is not None:
                        action = injector.fire("fleet.heartbeat")
                        if action is not None and action.kind == "fleet_frame_drop":
                            self.dropped_heartbeats += 1
                            continue  # the deadline machinery takes it
                    slot.last_beat = now
                    slot.beat_grace = 0.0
                    slot.last_partial = msg.get("partial", {})
                    cpu = float(msg.get("cpu_fraction", 0.0))
                    if (
                        self.options.saturation_cpu_fraction < 1.0
                        and cpu >= self.options.saturation_cpu_fraction
                    ):
                        slot.sat_strikes += 1
                    else:
                        slot.sat_strikes = 0
                elif kind == "result":
                    slot.result = msg
                    slot.last_beat = now
                elif kind == "error":
                    slot.error = str(msg.get("error", "unknown client error"))
                    slot.last_beat = now

    # -- failure accounting ---------------------------------------------
    def _lost_partial(self, slot: _Slot) -> int:
        return sum(
            int(p.get("collected", 0)) for p in slot.last_partial.values()
        )

    def _mark_lost(self, slot: _Slot, reason: str) -> None:
        slot.state = "lost"
        slot.lost_reason = reason
        self.lost_clients += 1
        self._event("client-lost", f"{slot.name}: {reason}")
        reap([slot.proc], grace_s=0.0)

    def _check_loss_bound(self) -> None:
        fraction = self.lost_clients / len(self.slots)
        if fraction > self.options.max_lost_client_fraction:
            raise LiveMeasurementError(
                f"lost {self.lost_clients}/{len(self.slots)} client "
                f"processes ({fraction:.0%} > fleet salvage bound "
                f"{self.options.max_lost_client_fraction:.0%}); the "
                "surviving slices no longer represent the offered load. "
                "Last losses: "
                + "; ".join(
                    f"{s.name}: {s.lost_reason}"
                    for s in self.slots
                    if s.state == "lost"
                )
            )

    def _handle_failure(self, slot: _Slot, reason: str, now: float) -> None:
        """One incarnation of ``slot`` is gone; respawn or give up."""
        reap([slot.proc], grace_s=0.0)
        if slot.respawns_used < self.options.respawn_attempts:
            if slot.backoff_rng is None:
                slot.backoff_rng = jitter_rng(
                    self.spec.seed,
                    self.spec.run_index,
                    slot.slot,
                    RESPAWN_CHANNEL,
                )
                slot.backoff_delay = self.options.respawn_backoff_base_s
            else:
                slot.backoff_delay = next_delay(
                    slot.backoff_rng,
                    self.options.respawn_backoff_base_s,
                    self.options.respawn_backoff_cap_s,
                    slot.backoff_delay,
                )
            slot.respawns_used += 1
            slot.respawn_at = now + slot.backoff_delay
            slot.state = "respawning"
            self._event(
                "respawn-scheduled",
                f"{slot.name} in {slot.backoff_delay:.2f}s ({reason})",
            )
        else:
            self._mark_lost(slot, reason)
            self._check_loss_bound()

    # -- the supervision loop -------------------------------------------
    def drive(self):
        t0 = time.perf_counter()
        self._listener = socket.create_server(
            ("127.0.0.1", 0), backlog=len(self.slots) * 2
        )
        accept_thread = threading.Thread(target=self._accept_loop, daemon=True)
        accept_thread.start()
        now = time.monotonic()
        try:
            for slot in self.slots:
                self._spawn(slot, now)
            self._supervise()
        finally:
            reap([slot.proc for slot in self.slots], grace_s=0.0)
            try:
                self._listener.close()
            except OSError:  # pragma: no cover - platform noise
                pass
        return self._merge(max(time.perf_counter() - t0, 1e-9))

    def _supervise(self) -> None:
        opts = self.options
        while not all(s.terminal() for s in self.slots):
            time.sleep(_POLL_S)
            now = time.monotonic()
            for slot in self.slots:
                with slot.lock:
                    state = slot.state
                    result = slot.result
                    error = slot.error
                    last_beat = slot.last_beat
                    grace = slot.beat_grace
                    sat = slot.sat_strikes
                    proc = slot.proc
                    respawn_at = slot.respawn_at
                if state in ("done", "lost"):
                    continue
                if state == "respawning":
                    if respawn_at is not None and now >= respawn_at:
                        self.respawns += 1
                        self._spawn(slot, now)
                    continue
                if result is not None:
                    slot.state = "done"
                    self._event("client-done", slot.name)
                    continue
                if error is not None:
                    self._handle_failure(slot, f"clean error: {error}", now)
                    continue
                if sat >= opts.saturation_strikes:
                    # Saturated, not crashed: no respawn — the host
                    # cannot carry this slice without distorting it.
                    self.quarantined += 1
                    self._mark_lost(
                        slot,
                        f"saturated (cpu >= {opts.saturation_cpu_fraction:.0%} "
                        f"for {sat} heartbeats)",
                    )
                    self._check_loss_bound()
                    continue
                if proc is not None and proc.poll() is not None:
                    self._handle_failure(
                        slot, f"exited with code {proc.returncode}", now
                    )
                    continue
                if now - last_beat > opts.heartbeat_timeout_s + grace:
                    self.heartbeat_misses += 1
                    self._handle_failure(
                        slot,
                        f"heartbeat deadline missed "
                        f"({now - last_beat:.1f}s silent)",
                        now,
                    )

    # -- crash-safe merge -----------------------------------------------
    def _merge(self, wall_s: float):
        done = [s for s in self.slots if s.state == "done"]
        if not done:
            raise LiveMeasurementError(
                "no fleet client process completed its slice; nothing to merge"
            )
        reports = []
        send_lag: Dict[str, Dict[str, float]] = {}
        ledger: Dict[str, object] = {k: 0 for k in _CONN_COUNTERS}
        cpu_fractions: List[float] = []
        loop_lags: List[float] = []
        for slot in done:
            msg = slot.result
            reports.extend(msg["reports"])
            send_lag.update(msg["send_lag"])
            for key in _CONN_COUNTERS:
                ledger[key] += int(msg["health"].get(key, 0))
            cpu_fractions.append(float(msg.get("cpu_fraction", 0.0)))
            loop_lags.extend(msg.get("loop_lags", ()))
            for event in msg["health"].get("events", ()):
                self._event("client-event", f"{slot.name}: {event}")
        # Merge identity: reports sort back to the single-process
        # assignment order so the aggregation sees the identical
        # per-instance sequence.
        order = {a.name: a.index for a in self.assignments}
        reports.sort(key=lambda r: order.get(r.name, len(order)))
        lost = [s for s in self.slots if s.state == "lost"]
        lost_partial = sum(self._lost_partial(s) for s in lost)
        processes = len(self.slots)
        ledger.update(
            processes=processes,
            spawned=sum(s.spawned for s in self.slots),
            respawns=self.respawns,
            lost_clients=self.lost_clients,
            quarantined_clients=self.quarantined,
            heartbeat_misses=self.heartbeat_misses,
            dropped_heartbeats=self.dropped_heartbeats,
            lost_client_fraction=self.lost_clients / processes,
            lost_partial_samples=lost_partial,
            events=tuple(self._events),
        )
        conn_degraded = any(
            ledger[k]
            for k in _CONN_COUNTERS
            if k != "connections"
        )
        ledger["degraded"] = bool(
            conn_degraded
            or self.lost_clients
            or self.respawns
            or self.quarantined
            or self.heartbeat_misses
            or self.dropped_heartbeats
        )
        lag_arr = np.asarray(loop_lags, dtype=float)
        total_rate = sum(a.rate_rps for a in self.assignments)
        return build_live_result(
            self.spec,
            reports,
            health_summary=ledger,
            send_lag=send_lag,
            client_probe={
                # The hottest client is the validity risk; report it.
                "cpu_fraction": max(cpu_fractions) if cpu_fractions else 0.0,
                "loop_lag_p99_s": float(np.quantile(lag_arr, 0.99))
                if lag_arr.size
                else 0.0,
                "loop_lag_max_s": float(lag_arr.max()) if lag_arr.size else 0.0,
                "mean_gap_s": 1.0 / total_rate if total_rate else float("inf"),
            },
            wall_s=wall_s,
        )
