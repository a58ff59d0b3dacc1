"""One fleet client process: ``python -m repro.live.clientproc``.

The worker side of the :mod:`repro.live.fleet` supervisor.  A client
process connects *back* to its supervisor over the length-prefixed
frame protocol (:mod:`repro.exec.protocol`, with its versioned
handshake), receives its slice of
:class:`~repro.live.driver.InstanceAssignment` work orders, and runs
them on the unchanged in-process driver core
(:func:`~repro.live.driver.drive_assignments`): the identical
open-loop send machinery, phase machine, self-healing reconnects and
stall ladder as the single-process backend.  Because assignments carry
the instance *names* and the RNG registry keys streams by name, the
slice draws exactly the gap sub-streams the single-process driver
would — the fleet's offered load composes to the same schedule.

While measuring, the process streams heartbeats every
``heartbeat_interval_s``::

    {"type": "heartbeat", "slot": N, "sent": ..., "responses": ...,
     "cpu_fraction": ...,            # process CPU over the last beat
     "partial": {name: {"collected": ..., "done": ...}, ...}}

so the supervisor can distinguish *alive-and-behind* from *dead*,
spot a saturated client (``cpu_fraction`` pinned at 1.0 distorts the
tail it measures), and account for partial progress when the process
is lost.  On completion it sends one ``result`` message carrying the
pickled per-instance reports plus the health/lag/probe evidence, then
exits 0.  A clean measurement failure sends an ``error`` message and
exits 3 (the CLI's clean-error code); the supervisor turns missing
processes into respawns, quarantine, or a fleet-level degraded merge.

Chaos directives (``--chaos`` assignments carry them) are honoured
in-process: ``crash`` schedules an abrupt ``os._exit`` mid-measurement
(a SIGKILL stand-in that needs no signal plumbing on any platform) and
``hang`` wedges the process *before* its first heartbeat — exercising
the supervisor's heartbeat deadline rather than its exit-code path.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import socket
import sys
import threading
import time
from typing import Dict, List, Optional

from ..exec.protocol import ProtocolError, hello, recv_msg, send_msg
from .driver import LiveMeasurementError, drive_assignments

__all__ = ["main", "CRASH_EXIT_CODE"]

#: The exit code of a directive-induced crash (distinguishable from a
#: clean error's 3 and a Python traceback's 1 in supervisor logs).
CRASH_EXIT_CODE = 41


def _apply_directive(directive: Optional[Dict[str, object]]) -> None:
    """Arm a chaos directive shipped with the assignment."""
    if not directive:
        return
    kind = directive.get("kind")
    if kind == "crash":
        after_s = float(directive.get("after_s", 0.2))
        timer = threading.Timer(after_s, os._exit, args=(CRASH_EXIT_CODE,))
        timer.daemon = True
        timer.start()
    elif kind == "hang":
        # Wedge before the first heartbeat: the supervisor must detect
        # this via its heartbeat deadline, not an exit code.
        while True:
            time.sleep(3600)
    else:
        raise ProtocolError(f"unknown chaos directive {directive!r}")


def _run_slice(sock: socket.socket, slot: int, assign: Dict[str, object]) -> int:
    spec = assign["spec"]
    options = assign["options"]
    assignments = assign["assignments"]
    send_lock = threading.Lock()
    cpu_state = {"t": time.perf_counter(), "cpu": time.process_time()}

    def on_heartbeat(instances, _loop_lags) -> None:
        now = time.perf_counter()
        cpu = time.process_time()
        dt = max(now - cpu_state["t"], 1e-9)
        fraction = min(1.0, (cpu - cpu_state["cpu"]) / dt)
        cpu_state["t"], cpu_state["cpu"] = now, cpu
        beat = {
            "type": "heartbeat",
            "slot": slot,
            "sent": sum(i.sent for i in instances),
            "responses": sum(i.responses for i in instances),
            "cpu_fraction": fraction,
            "partial": {
                i.name: {
                    "collected": i.recorder.phases.collected,
                    "done": i.recorder.done,
                }
                for i in instances
            },
        }
        with send_lock:
            send_msg(sock, beat)

    _apply_directive(assign.get("directive"))
    t0 = time.perf_counter()
    cpu0 = time.process_time()
    try:
        instances, health, loop_lags = asyncio.run(
            drive_assignments(spec, options, assignments, on_heartbeat=on_heartbeat)
        )
    except LiveMeasurementError as exc:
        with send_lock:
            send_msg(sock, {"type": "error", "slot": slot, "error": str(exc)})
        return 3
    wall_s = max(time.perf_counter() - t0, 1e-9)
    cpu_fraction = min(1.0, (time.process_time() - cpu0) / wall_s)
    lags: List[float] = loop_lags
    result = {
        "type": "result",
        "slot": slot,
        "reports": [inst.report() for inst in instances],
        "send_lag": {inst.name: inst.lag_summary() for inst in instances},
        "health": health.summary(),
        "cpu_fraction": cpu_fraction,
        "loop_lags": lags,
        "wall_s": wall_s,
    }
    with send_lock:
        send_msg(sock, result)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.live.clientproc",
        description="fleet client process (spawned by repro.live.fleet)",
    )
    parser.add_argument("--connect", required=True, metavar="HOST:PORT")
    parser.add_argument("--slot", required=True, type=int)
    parser.add_argument("--token", required=True)
    args = parser.parse_args(argv)
    host, _, port_s = args.connect.rpartition(":")
    sock = socket.create_connection((host, int(port_s)), timeout=10.0)
    try:
        sock.settimeout(30.0)
        greeting = hello(worker=f"client{args.slot}")
        greeting["token"] = args.token
        greeting["slot"] = args.slot
        send_msg(sock, greeting)
        reply = recv_msg(sock)
        if reply is None or reply.get("type") != "welcome":
            reason = (reply or {}).get("reason", "connection closed")
            print(f"clientproc[{args.slot}]: rejected: {reason}", file=sys.stderr)
            return 1
        assign = recv_msg(sock)
        if assign is None or assign.get("type") != "assign":
            print(f"clientproc[{args.slot}]: no assignment", file=sys.stderr)
            return 1
        sock.settimeout(None)
        return _run_slice(sock, args.slot, assign)
    except (ProtocolError, OSError) as exc:
        # The supervisor vanished (or dropped our frames): nothing to
        # report to, so exit non-zero and let the fleet ledger account.
        print(f"clientproc[{args.slot}]: {exc}", file=sys.stderr)
        return 1
    finally:
        try:
            sock.close()
        except OSError:  # pragma: no cover - platform noise
            pass


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
