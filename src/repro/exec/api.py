"""The formal Executor API: protocol, capabilities, and the registry.

This module is the *contract* between experiment drivers (procedure,
attribution, sweeps, capacity) and execution backends.  Drivers talk
to one verb::

    executor.run(specs, progress=None) -> list of results (ordered)

and backends promise one invariant: because the task is a pure
function of its spec, **equal specs produce bit-identical results on
every backend** — serial, process pool, or a distributed cluster.

Three pieces live here:

* :class:`Executor` — a :class:`typing.Protocol` (structural, so
  third-party backends need not inherit anything) with the ``run``
  verb, a :meth:`~Executor.capabilities` self-description, and a
  context-manager lifecycle;
* :class:`Capabilities` — a frozen self-description every backend
  returns, so callers can introspect (``distributed``, ``parallel``,
  worker counts) without ``isinstance`` checks against concrete
  classes;
* the **backend registry** — ``register_backend`` /
  ``available_backends`` / :func:`make_executor`, which maps a stable
  string name (``"serial"``, ``"process"``, ``"cluster"``, plus any
  third-party registrations) and a per-backend *options dataclass*
  to a live executor.  SSH or k8s fan-outs later plug in here
  without touching any driver.

Callers name the backend::

    make_executor("process", options=ProcessOptions(workers=8))
    make_executor("cluster", workers=3)          # option kwargs inline
    make_executor("serial", cache_dir="~/.cache/repro")

See ``src/repro/exec/API.md`` for the implementer-facing contract.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    Type,
    runtime_checkable,
)

from ..measure.api import measure_spec
from .cache import ResultCache
from .progress import ProgressHook

__all__ = [
    "Capabilities",
    "Executor",
    "BackendInfo",
    "SerialOptions",
    "ProcessOptions",
    "ClusterOptions",
    "RetryPolicy",
    "HealthPolicy",
    "register_backend",
    "available_backends",
    "backend_info",
    "make_executor",
]


# ----------------------------------------------------------------------
# capabilities & protocol
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Capabilities:
    """A backend's self-description (introspection without isinstance).

    ``deterministic`` is not optional-in-spirit: every backend in this
    library guarantees equal spec ⇒ bit-identical result.  A backend
    that cannot promise that must say so here, and drivers may refuse
    it for cacheable work.
    """

    #: Registry name of the backend ("serial", "process", "cluster", ...).
    backend: str
    #: Runs more than one spec at a time.
    parallel: bool = False
    #: Crosses a machine/process boundary over a network transport.
    distributed: bool = False
    #: Equal spec ⇒ bit-identical result (the caching contract).
    deterministic: bool = True
    #: Worker slots, when the backend knows (None for serial/unbounded).
    workers: Optional[int] = None
    #: Honors a per-task wall-clock budget.
    supports_timeout: bool = False
    #: Re-attempts crashed/lost tasks.
    supports_retry: bool = False


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
# per-backend option dataclasses
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SerialOptions:
    """The serial backend has no knobs (the reference semantics)."""


@dataclass(frozen=True)
class ProcessOptions:
    """Options for the in-machine process-pool backend."""

    #: Worker processes (default: ``os.cpu_count()``).
    workers: Optional[int] = None
    #: Per-task wall-clock budget in seconds (None: unlimited).
    timeout: Optional[float] = None
    #: Re-attempts for crashed/timed-out tasks.
    retries: int = 1


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


# ----------------------------------------------------------------------
# the registry
# ----------------------------------------------------------------------
#: factory(options, task, cache) -> Executor
BackendFactory = Callable[[object, Callable[[object], object], Optional[ResultCache]], Executor]


@dataclass(frozen=True)
class BackendInfo:
    """One registry entry."""

    name: str
    factory: BackendFactory
    options: Type[object]
    summary: str = ""


_REGISTRY: Dict[str, BackendInfo] = {}

#: Built-in backends are registered lazily by importing their module,
#: so `import repro.exec.api` alone stays cheap and cycle-free.
_BUILTIN_MODULES: Dict[str, str] = {
    "serial": "repro.exec.executors",
    "process": "repro.exec.executors",
    "cluster": "repro.exec.distributed",
}


def register_backend(
    name: str,
    factory: BackendFactory,
    options: Type[object] = SerialOptions,
    summary: str = "",
) -> None:
    """Register (or re-register) an executor backend under ``name``.

    ``factory(options, task, cache)`` must return an object satisfying
    :class:`Executor`.  Third-party transports (SSH fan-out, k8s jobs)
    register here and instantly become reachable from every driver and
    from the CLI's ``--executor`` flag.
    """
    if not name or not isinstance(name, str):
        raise ValueError("backend name must be a non-empty string")
    if not dataclasses.is_dataclass(options):
        raise TypeError("options must be a dataclass type")
    _REGISTRY[name] = BackendInfo(
        name=name, factory=factory, options=options, summary=summary
    )


def _ensure_builtin(name: str) -> None:
    if name in _REGISTRY:
        return
    module = _BUILTIN_MODULES.get(name)
    if module is not None:
        import importlib

        importlib.import_module(module)


def available_backends() -> Tuple[str, ...]:
    """Names of every registered backend (built-ins always included)."""
    for name in _BUILTIN_MODULES:
        _ensure_builtin(name)
    return tuple(sorted(_REGISTRY))


def backend_info(name: str) -> BackendInfo:
    """The registry entry for ``name`` (imports built-ins on demand)."""
    _ensure_builtin(name)
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown executor backend {name!r}; available: "
            f"{', '.join(available_backends())}"
        ) from None


def _options_for(info: BackendInfo, options: object, kwargs: Dict[str, object]) -> object:
    if options is not None:
        if kwargs:
            raise TypeError(
                "pass either an options dataclass or option kwargs, not both"
            )
        if not isinstance(options, info.options):
            raise TypeError(
                f"backend {info.name!r} expects {info.options.__name__}, "
                f"got {type(options).__name__}"
            )
        return options
    valid = {f.name for f in dataclasses.fields(info.options)}
    unknown = set(kwargs) - valid
    if unknown:
        raise TypeError(
            f"unknown option(s) {sorted(unknown)} for backend {info.name!r}; "
            f"valid: {sorted(valid)}"
        )
    return info.options(**kwargs)


def make_executor(
    backend: str = "serial",
    *,
    options: object = None,
    task: Callable[[object], object] = measure_spec,
    cache: Optional[ResultCache] = None,
    cache_dir: Optional[os.PathLike] = None,
    **option_kwargs: object,
) -> Executor:
    """Build an executor from a registered backend name::

        make_executor("process", options=ProcessOptions(workers=8))
        make_executor("cluster", workers=3, lease_s=30.0)
    """
    if not isinstance(backend, str):
        raise TypeError(f"backend must be a registry name, got {backend!r}")

    info = backend_info(backend)
    opts = _options_for(info, options, option_kwargs)
    if cache is None and cache_dir is not None:
        cache = ResultCache(cache_dir)
    return info.factory(opts, task, cache)
