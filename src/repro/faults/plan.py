"""Deterministic, seeded fault plans and the injector that fires them.

Treadmill's argument is that trustworthy tail numbers require
controlling every source of measurement disturbance — including the
measurement infrastructure itself.  This module makes the executor's
failure handling *testable the same way experiments are*: a
:class:`FaultPlan` is a frozen, content-digestable schedule of faults
drawn from a seeded RNG, so a chaos run is described by a value (plan
digest) exactly like an experiment is described by a ``RunSpec``
digest.  Same seed ⇒ same plan ⇒ same injection decisions.

Injection is via **explicit hook points** threaded through the exec
stack — never monkeypatching — and every hook is a no-op in
production (``injector is None``):

==================  =====================================================
site                where it is consulted
==================  =====================================================
``worker.task``     ``repro.exec.worker.serve`` before executing a task
                    (``worker_crash`` / ``worker_hang`` / ``slow_worker``)
``worker.result``   before sending a result (``corrupt_result`` poisons
                    the digest echo)
``worker.send``     the result frame itself (``drop_frame`` /
                    ``truncate_frame``)
``coordinator.send``  ``Coordinator._send`` for every outbound message
                    (``drop_frame`` / ``truncate_frame``)
``coordinator.recv``  ``Coordinator._serve_conn`` per inbound message
                    (``drop_frame`` / ``truncate_frame`` — torn receive)
``coordinator.loop``  ``ClusterExecutor.run`` each scheduler iteration
                    (``coordinator_restart`` raises ``SimulatedCrash``)
``cache.put``       ``ResultCache.put`` after a store
                    (``corrupt_cache_entry`` flips payload bytes)
``fleet.spawn``     ``repro.live.fleet`` per client-process spawn
                    (``client_proc_crash`` / ``client_proc_hang`` ship
                    a directive to that process)
``fleet.heartbeat``  the fleet supervisor per received heartbeat
                    (``fleet_frame_drop`` discards the frame)
``server.connection``  the reference server per request
                    (``endpoint_reset`` closes the connection abruptly)
==================  =====================================================

An action fires on the *nth* arrival at its site and is consumed (at
most once per injector).  Worker processes build their own injector
from the serialized plan (``--fault-plan``), so occurrence counting is
per-process — deterministic given each process's own event order.
"""

from __future__ import annotations

import hashlib
import json
import random
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "FAULT_KINDS",
    "LIVE_FAULT_KINDS",
    "KIND_SITES",
    "FaultAction",
    "FaultPlan",
    "FaultInjector",
]

#: Fault kinds for the *live fleet* path (:mod:`repro.live.fleet`):
#: the supervisor consults its injector at ``fleet.spawn`` (per client
#: process spawn — a matching action ships a crash/hang directive to
#: that process) and ``fleet.heartbeat`` (per received heartbeat — a
#: matching ``fleet_frame_drop`` discards the frame, so a healthy
#: client looks dead); the reference server fires
#: ``server.connection`` per request (``endpoint_reset`` closes the
#: connection abruptly, exercising the driver's reconnect path).
#: Supervisor-side firing keeps occurrence counting global: an
#: ``nth=1`` action hits exactly one process, not one per process.
LIVE_FAULT_KINDS: Tuple[str, ...] = (
    "client_proc_crash",
    "client_proc_hang",
    "fleet_frame_drop",
    "endpoint_reset",
)

#: Every fault kind the harness knows how to inject (cluster executor
#: kinds first, then the live-fleet kinds).
FAULT_KINDS: Tuple[str, ...] = (
    "worker_crash",
    "worker_hang",
    "slow_worker",
    "drop_frame",
    "truncate_frame",
    "corrupt_result",
    "corrupt_cache_entry",
    "coordinator_restart",
) + LIVE_FAULT_KINDS

#: Hook sites each kind may be scheduled at (the RNG picks one).
KIND_SITES: Dict[str, Tuple[str, ...]] = {
    "worker_crash": ("worker.task",),
    "worker_hang": ("worker.task",),
    "slow_worker": ("worker.task",),
    "corrupt_result": ("worker.result",),
    "drop_frame": ("coordinator.send", "worker.send"),
    "truncate_frame": ("coordinator.send", "worker.send"),
    "corrupt_cache_entry": ("cache.put",),
    "coordinator_restart": ("coordinator.loop",),
    "client_proc_crash": ("fleet.spawn",),
    "client_proc_hang": ("fleet.spawn",),
    "fleet_frame_drop": ("fleet.heartbeat",),
    "endpoint_reset": ("server.connection",),
}

_PLAN_VERSION = 1


@dataclass(frozen=True)
class FaultAction:
    """One scheduled fault: fire ``kind`` on the ``nth`` arrival at ``site``."""

    kind: str
    site: str
    nth: int = 1
    #: Sleep duration for ``worker_hang`` / ``slow_worker``.
    seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; known: {FAULT_KINDS}")
        if self.site not in KIND_SITES[self.kind]:
            raise ValueError(
                f"fault {self.kind!r} cannot fire at site {self.site!r}; "
                f"valid: {KIND_SITES[self.kind]}"
            )
        if self.nth < 1:
            raise ValueError("nth must be >= 1")


@dataclass(frozen=True)
class FaultPlan:
    """A frozen, content-digestable schedule of faults.

    Build one explicitly from actions, or draw one from a seeded RNG
    with :meth:`generate`.  Plans serialize to JSON (``to_json`` /
    ``from_json``) so ``repro-worker --fault-plan`` can reconstruct
    them in worker processes.
    """

    seed: int = 0
    actions: Tuple[FaultAction, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "actions", tuple(self.actions))

    # -- construction --------------------------------------------------
    @classmethod
    def generate(
        cls,
        seed: int,
        n_faults: int = 3,
        kinds: Optional[Sequence[str]] = None,
        max_nth: int = 3,
        hang_s: float = 2.0,
        slow_s: float = 0.2,
    ) -> "FaultPlan":
        """Draw a plan from a seeded RNG (pure function of arguments).

        ``kinds`` restricts the palette (default: every *executor* kind
        except ``coordinator_restart``, which needs a restart-capable
        driver — the chaos harness adds it deliberately.  The live
        kinds are likewise excluded: they target a different harness,
        :meth:`generate_live`, and admitting them here would reshuffle
        every historical seeded plan).
        """
        rng = random.Random(seed)
        excluded = {"coordinator_restart", *LIVE_FAULT_KINDS}
        palette = list(kinds if kinds is not None else
                       [k for k in FAULT_KINDS if k not in excluded])
        actions: List[FaultAction] = []
        for _ in range(n_faults):
            kind = rng.choice(palette)
            site = rng.choice(KIND_SITES[kind])
            seconds = 0.0
            if kind == "worker_hang":
                seconds = hang_s
            elif kind == "slow_worker":
                seconds = slow_s
            actions.append(
                FaultAction(
                    kind=kind,
                    site=site,
                    nth=rng.randint(1, max_nth),
                    seconds=seconds,
                )
            )
        return cls(seed=seed, actions=tuple(actions))

    @classmethod
    def generate_live(
        cls,
        seed: int,
        n_faults: int = 2,
        kinds: Optional[Sequence[str]] = None,
        max_nth: int = 3,
        crash_after_s: float = 0.3,
    ) -> "FaultPlan":
        """Draw a live-fleet plan from a seeded RNG (pure function).

        The palette defaults to :data:`LIVE_FAULT_KINDS`; ``seconds``
        on a ``client_proc_crash`` is the in-process delay before the
        abrupt exit (mid-measurement, not at start-up).
        """
        # Distinct stream from generate(): same seed, different harness.
        rng = random.Random(f"live:{seed}")
        palette = list(kinds if kinds is not None else LIVE_FAULT_KINDS)
        actions: List[FaultAction] = []
        for _ in range(n_faults):
            kind = rng.choice(palette)
            site = rng.choice(KIND_SITES[kind])
            seconds = crash_after_s if kind == "client_proc_crash" else 0.0
            actions.append(
                FaultAction(
                    kind=kind,
                    site=site,
                    nth=rng.randint(1, max_nth),
                    seconds=seconds,
                )
            )
        return cls(seed=seed, actions=tuple(actions))

    def with_action(self, action: FaultAction) -> "FaultPlan":
        return FaultPlan(seed=self.seed, actions=self.actions + (action,))

    # -- identity ------------------------------------------------------
    def _payload(self) -> Dict[str, object]:
        return {
            "version": _PLAN_VERSION,
            "seed": self.seed,
            "actions": [
                {
                    "kind": a.kind,
                    "site": a.site,
                    "nth": a.nth,
                    "seconds": repr(a.seconds),
                }
                for a in self.actions
            ],
        }

    def digest(self) -> str:
        """Stable content digest (same spirit as ``RunSpec.digest``)."""
        blob = json.dumps(self._payload(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def kinds(self) -> Tuple[str, ...]:
        return tuple(a.kind for a in self.actions)

    # -- serialization -------------------------------------------------
    def to_json(self) -> str:
        return json.dumps(self._payload(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        data = json.loads(text)
        if data.get("version") != _PLAN_VERSION:
            raise ValueError(
                f"fault plan version mismatch: {data.get('version')!r} "
                f"(expected {_PLAN_VERSION})"
            )
        actions = tuple(
            FaultAction(
                kind=str(a["kind"]),
                site=str(a["site"]),
                nth=int(a["nth"]),
                seconds=float(a.get("seconds", 0.0)),
            )
            for a in data.get("actions", ())
        )
        return cls(seed=int(data.get("seed", 0)), actions=actions)

    # -- execution -----------------------------------------------------
    def injector(self) -> "FaultInjector":
        """A fresh injector over this plan (counts start at zero)."""
        return FaultInjector(self)


class FaultInjector:
    """Thread-safe occurrence counter that fires plan actions.

    ``fire(site)`` increments the site's arrival counter and returns
    the (at most one) un-consumed action scheduled for that arrival,
    else None.  Each action fires at most once per injector; sharing
    one injector across coordinator restarts (as the chaos harness
    does) therefore guarantees a ``coordinator_restart`` fault cannot
    re-fire forever.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._lock = threading.Lock()
        self._counts: Dict[str, int] = {}
        self._consumed: set = set()
        #: (site, arrival_n, kind) tuples, for assertions and reports.
        self.fired: List[Tuple[str, int, str]] = []

    def injector(self) -> "FaultInjector":
        """Duck-type compatibility with FaultPlan (returns itself), so
        ``ClusterOptions.fault_plan`` accepts either."""
        return self

    def to_json(self) -> str:
        return self.plan.to_json()

    def fire(self, site: str):
        """Consult the plan at a hook point; returns a FaultAction or None."""
        with self._lock:
            n = self._counts.get(site, 0) + 1
            self._counts[site] = n
            for idx, action in enumerate(self.plan.actions):
                if idx in self._consumed:
                    continue
                if action.site == site and action.nth == n:
                    self._consumed.add(idx)
                    self.fired.append((site, n, action.kind))
                    return action
        return None

    @property
    def exhausted(self) -> bool:
        return len(self._consumed) == len(self.plan.actions)

    def counts(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._counts)
