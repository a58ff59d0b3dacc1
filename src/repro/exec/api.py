"""The formal Executor API: the protocol, capabilities and cluster options.

This module is the *contract* between experiment drivers (procedure,
attribution, sweeps, capacity) and execution backends.  Drivers talk
to one verb::

    executor.run(specs, progress=None) -> list of results (ordered)

and backends promise one invariant: because the task is a pure
function of its spec, **equal specs produce bit-identical results on
every backend** — serial, process pool, or a distributed cluster.

Three pieces live here:

* :class:`Executor` — a :class:`typing.Protocol` (structural, so an
  executor need not inherit anything) with the ``run`` verb, a
  :meth:`~Executor.capabilities` self-description, and a
  context-manager lifecycle;
* :class:`Capabilities` — the backend name and worker count every
  executor reports;
* :class:`ClusterOptions` with its :class:`RetryPolicy` and
  :class:`HealthPolicy` — the cluster backend's knobs.

The three backends are built by name with
:func:`repro.exec.executors.make_executor`::

    make_executor("process", workers=8)
    make_executor("cluster", workers=3, lease_s=30.0)
    make_executor("serial", cache_dir="~/.cache/repro")

See ``src/repro/exec/API.md`` for the implementer-facing contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Protocol, Sequence, runtime_checkable

from .progress import ProgressHook

__all__ = [
    "Capabilities",
    "Executor",
    "ClusterOptions",
    "RetryPolicy",
    "HealthPolicy",
]


# ----------------------------------------------------------------------
# capabilities & protocol
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Capabilities:
    """A backend's self-description (introspection without isinstance)."""

    #: Backend name ("serial", "process" or "cluster").
    backend: str
    #: Worker slots, when the backend knows (None for serial).
    workers: Optional[int] = None


@runtime_checkable
class Executor(Protocol):
    """Structural interface every execution backend satisfies.

    Backends are context managers; ``close()`` must be idempotent and
    ``run()`` must be callable repeatedly on one executor (drivers
    probe convergence with incremental batches).
    """

    def run(
        self,
        specs: Sequence[object],
        progress: Optional[ProgressHook] = None,
    ) -> List[object]:
        """Execute ``specs``; return results in submission order."""
        ...

    def capabilities(self) -> Capabilities:
        """Static self-description of this backend instance."""
        ...

    def close(self) -> None:
        """Release pools/sockets/workers (idempotent)."""
        ...

    def __enter__(self) -> "Executor": ...

    def __exit__(self, *exc: object) -> None: ...


# ----------------------------------------------------------------------
# cluster options
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RetryPolicy:
    """Retry budget + backoff for lost work and *transient* task failures.

    Lost work (crashed workers, expired leases, digest mismatches) and
    transient worker exceptions (``MemoryError``, ``OSError``, pickling
    transport errors) are each re-attempted under this budget; genuine
    task exceptions are never retried (a pure function of the spec
    fails the same way every time).

    Backoff is exponential with *decorrelated jitter* (Brooker, AWS
    Architecture Blog): ``delay = min(cap, uniform(base, prev * 3))``,
    drawn from one seeded stream per spec (:mod:`repro.exec.backoff`)
    so each spec's schedule is deterministic for a given seed — chaos
    runs are replayable.
    """

    #: Attempts per spec before the batch fails (>= 1).
    max_attempts: int = 3
    #: First backoff delay, seconds (0 disables backoff entirely).
    backoff_base_s: float = 0.05
    #: Backoff ceiling, seconds.
    backoff_cap_s: float = 2.0
    #: Seed for the jitter RNG (delays are deterministic per seed).
    jitter_seed: int = 0


@dataclass(frozen=True)
class HealthPolicy:
    """Per-worker health scoring and circuit breaking.

    A worker accumulates one strike per attributed failure (expired
    lease, digest-mismatched result, transient task error).  At
    ``trip_after`` consecutive strikes the breaker opens and the
    worker is *quarantined* — it receives ``wait`` instead of tasks —
    until ``cooldown_s`` elapses, after which it is put on probation
    (half-open): one more strike re-trips immediately, one accepted
    result closes the breaker and clears the strikes.
    """

    #: Consecutive strikes that open a worker's breaker (0 disables).
    trip_after: int = 3
    #: Quarantine duration, seconds.
    cooldown_s: float = 5.0
    #: Healthy (connected, non-quarantined) worker floor; when the
    #: cluster stays below it for ``degrade_after_s``, the executor
    #: falls back to the local process backend for the remaining specs
    #: instead of stalling.  0 disables degradation.
    min_healthy_workers: int = 0
    #: Grace period below the floor before degrading, seconds.
    degrade_after_s: float = 5.0


@dataclass(frozen=True)
class ClusterOptions:
    """Options for the socket-based work-stealing cluster backend."""

    #: Local worker processes to spawn (LocalClusterExecutor); for a
    #: bare coordinator awaiting external ``repro-worker`` processes
    #: use :class:`~repro.exec.distributed.ClusterExecutor` directly.
    workers: int = 2
    #: Interface the coordinator binds.
    host: str = "127.0.0.1"
    #: TCP port (0: pick an ephemeral port).
    port: int = 0
    #: Lease seconds before an issued task is presumed lost and requeued.
    lease_s: float = 60.0
    #: Retry budget + backoff: ``retry.max_attempts`` bounds both lost
    #: work and transient task errors per spec; its backoff paces every
    #: requeue.
    retry: RetryPolicy = RetryPolicy()
    #: Worker circuit breaking + graceful-degradation floor.
    health: HealthPolicy = HealthPolicy()
    #: Deterministic fault-injection plan (``repro.faults.FaultPlan``)
    #: threaded through every hook point; None in production.
    fault_plan: Optional[object] = None
