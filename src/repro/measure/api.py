"""The formal MeasurementBackend API: protocol, capabilities, registry.

This module is the contract between the *measurement methodology*
(warm-up/calibration/measurement phases, open-loop arrivals,
per-instance-then-aggregate metrics, repeat-until-converged) and the
*target under test*.  It deliberately mirrors the Executor API in
:mod:`repro.exec.api`: a :class:`typing.Protocol` so third-party
backends need not inherit anything, a frozen self-description
(:class:`BenchCapabilities`), and a named registry with per-backend
option dataclasses.

The verb is::

    backend.prepare(spec)  ->  MeasurementRun
    run.drive()            ->  RunResult      (phases driven, reports
                                               extracted, aggregated)

and :func:`measure_spec` is the one dispatcher every executor and
driver funnels through: it reads ``spec.backend`` (absent or ``"sim"``
means the simulator, preserving every historical digest) and routes to
the registered backend.

Capability flags matter to callers:

* ``deterministic`` — equal spec ⇒ bit-identical result.  Only
  deterministic backends participate in the result cache and the
  bit-identity CI gates; the live backend says ``False`` here and is
  therefore *never* cached (a wall-clock measurement is a sample, not
  a value).
* ``wall_clock`` — latencies are real elapsed time, not virtual time.
* ``fault_hookable`` — the target honours ``repro.faults``-style
  duck-typed ``fire(site)`` hook points (the reference server does).
* ``scenarios`` — accepts scenario-carrying specs (N fleets x M pools).
* ``utilization_targeting`` — can resolve ``target_utilization`` specs
  by itself (the simulator knows its service model; a live endpoint
  needs an absolute ``total_rate_rps``).
"""

from __future__ import annotations

import dataclasses
from contextlib import contextmanager
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Iterator,
    Protocol,
    Tuple,
    Type,
    runtime_checkable,
)

__all__ = [
    "MEASUREMENT_API_VERSION",
    "BenchCapabilities",
    "MeasurementRun",
    "MeasurementBackend",
    "MeasurementBackendInfo",
    "register_measurement_backend",
    "available_measurement_backends",
    "measurement_backend_info",
    "make_measurement_backend",
    "set_backend_defaults",
    "get_backend_defaults",
    "backend_defaults",
    "backend_is_deterministic",
    "measure_spec",
]

#: Version of the MeasurementBackend contract.  Bump on any change to
#: the protocol surface or the meaning of a capability flag; backends
#: may check it at registration time.
#:
#: v2: the dispatcher attaches a validity audit
#: (:class:`repro.guards.GuardReport`) to every result it returns, and
#: :class:`BenchCapabilities` grew the optional ``guard_evidence``
#: flag.  The protocol surface (``prepare -> drive``, ``capabilities``,
#: ``close``) is unchanged, so v1 backends keep working verbatim — the
#: compat shim is that guards degrade to ``skip``/structural verdicts
#: when a backend supplies no evidence channels, and results that
#: reject attribute assignment are returned un-audited rather than
#: failed.
#:
#: v3: the ``scenarios`` capability is no longer a simulator-only
#: promise — the live backend accepts scenario-carrying specs (fleets
#: routed to M real endpoints via ``LiveOptions.pool_targets``) and
#: returns per-(fleet, pool) ``group_metrics`` like the simulator.
#: ``measure_spec``'s scenario gate is unchanged (it still consults
#: ``capabilities().scenarios``), so v2 backends keep working
#: verbatim; only code that *assumed* ``scenarios`` implied
#: ``backend == "sim"`` must re-check the flag instead.
MEASUREMENT_API_VERSION = 3


# ----------------------------------------------------------------------
# capabilities & protocol
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BenchCapabilities:
    """A measurement backend's self-description.

    ``deterministic`` is the load-bearing flag: caches and bit-identity
    gates consult it, and a backend that cannot promise equal spec ⇒
    bit-identical result must say so or it will poison the cache.
    """

    #: Registry name of the backend ("sim", "live", ...).
    backend: str
    #: Equal spec ⇒ bit-identical result (the caching contract).
    deterministic: bool = True
    #: Latencies are wall-clock time, not virtual time.
    wall_clock: bool = False
    #: The target honours duck-typed ``fire(site)`` fault hooks.
    fault_hookable: bool = False
    #: Accepts scenario-carrying specs (N fleets x M pools).
    scenarios: bool = False
    #: Can resolve ``target_utilization`` specs without an absolute rate.
    utilization_targeting: bool = False
    #: The backend supplies guard evidence channels beyond the shared
    #: report stream (client probes, send-lag summaries, health
    #: telemetry) for the repro.guards validity detectors.  v1 backends
    #: never set this; detectors whose channel is missing report
    #: ``skip`` instead of guessing (the API-v2 compat shim).
    guard_evidence: bool = False


@runtime_checkable
class MeasurementRun(Protocol):
    """One prepared experiment, ready to drive.

    ``drive()`` runs the full warm-up/calibration/measurement phase
    machine against the target and returns a
    :class:`~repro.exec.spec.RunResult` whose per-instance
    :class:`~repro.core.treadmill.InstanceReport`\\ s were aggregated by
    the paper's per-instance-then-combine rule.
    """

    def drive(self) -> object:
        """Execute the prepared run; returns a ``RunResult``."""
        ...


@runtime_checkable
class MeasurementBackend(Protocol):
    """Structural interface every measurement backend satisfies.

    ``prepare`` validates the spec against the backend's capabilities
    (e.g. the live backend rejects ``target_utilization`` specs with a
    clear error) and returns a :class:`MeasurementRun`; ``close`` must
    be idempotent.
    """

    def prepare(self, spec: object) -> MeasurementRun:
        """Validate ``spec`` and stage one independent experiment."""
        ...

    def capabilities(self) -> BenchCapabilities:
        """Static self-description of this backend instance."""
        ...

    def close(self) -> None:
        """Release any held resources (idempotent)."""
        ...


# ----------------------------------------------------------------------
# the registry
# ----------------------------------------------------------------------
#: factory(options) -> MeasurementBackend
MeasurementFactory = Callable[[object], MeasurementBackend]


@dataclass(frozen=True)
class MeasurementBackendInfo:
    """One registry entry."""

    name: str
    factory: MeasurementFactory
    options: Type[object]
    summary: str = ""


_REGISTRY: Dict[str, MeasurementBackendInfo] = {}

#: Built-in backends register lazily on first lookup, so importing
#: this module alone stays cheap and cycle-free (the sim backend pulls
#: in the whole simulator; the live backend pulls in asyncio plumbing).
_BUILTIN_MODULES: Dict[str, str] = {
    "sim": "repro.measure.simbackend",
    "live": "repro.live.driver",
}


def register_measurement_backend(
    name: str,
    factory: MeasurementFactory,
    options: Type[object],
    summary: str = "",
) -> None:
    """Register (or re-register) a measurement backend under ``name``.

    ``factory(options)`` must return an object satisfying
    :class:`MeasurementBackend`.  Third-party targets (a memcached
    binary, an HTTP service mesh, a hardware testbed) register here
    and instantly become reachable from ``RunSpec(backend=name)``,
    every executor, and the CLI.
    """
    if not name or not isinstance(name, str):
        raise ValueError("measurement backend name must be a non-empty string")
    if not dataclasses.is_dataclass(options):
        raise TypeError("options must be a dataclass type")
    _REGISTRY[name] = MeasurementBackendInfo(
        name=name, factory=factory, options=options, summary=summary
    )


def _ensure_builtin(name: str) -> None:
    if name in _REGISTRY:
        return
    module = _BUILTIN_MODULES.get(name)
    if module is not None:
        import importlib

        importlib.import_module(module)


def available_measurement_backends() -> Tuple[str, ...]:
    """Names of every registered measurement backend."""
    for name in _BUILTIN_MODULES:
        _ensure_builtin(name)
    return tuple(sorted(_REGISTRY))


def measurement_backend_info(name: str) -> MeasurementBackendInfo:
    """The registry entry for ``name`` (imports built-ins on demand)."""
    _ensure_builtin(name)
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown measurement backend {name!r}; available: "
            f"{', '.join(available_measurement_backends())}"
        ) from None


# ----------------------------------------------------------------------
# per-backend option defaults (process-wide, scopeable)
# ----------------------------------------------------------------------
_OPTION_DEFAULTS: Dict[str, Dict[str, object]] = {}


def _valid_fields(info: MeasurementBackendInfo) -> set:
    return {f.name for f in dataclasses.fields(info.options)}


def set_backend_defaults(name: str, **option_kwargs: object) -> None:
    """Set process-wide default options for backend ``name``.

    This is how environmental configuration (e.g. the live backend's
    target endpoint) reaches a backend without entering the spec's
    content digest: ``set_backend_defaults("live",
    target="tcp://10.0.0.5:7799")``.  Unknown option names raise.
    """
    info = measurement_backend_info(name)
    unknown = set(option_kwargs) - _valid_fields(info)
    if unknown:
        raise TypeError(
            f"unknown option(s) {sorted(unknown)} for measurement backend "
            f"{name!r}; valid: {sorted(_valid_fields(info))}"
        )
    _OPTION_DEFAULTS.setdefault(name, {}).update(option_kwargs)


def get_backend_defaults(name: str) -> Dict[str, object]:
    """The currently configured default options for ``name``."""
    return dict(_OPTION_DEFAULTS.get(name, {}))


@contextmanager
def backend_defaults(name: str, **option_kwargs: object) -> Iterator[Dict[str, object]]:
    """Scoped backend option defaults (restored on exit).

    The measurement twin of :func:`repro.exec.executors.execution`::

        with backend_defaults("live", target=f"tcp://127.0.0.1:{port}"):
            result = measure_spec(spec)          # spec.backend == "live"
    """
    saved = dict(_OPTION_DEFAULTS.get(name, {}))
    had = name in _OPTION_DEFAULTS
    try:
        set_backend_defaults(name, **option_kwargs)
        yield get_backend_defaults(name)
    finally:
        if had:
            _OPTION_DEFAULTS[name] = saved
        else:
            _OPTION_DEFAULTS.pop(name, None)


# ----------------------------------------------------------------------
# construction & dispatch
# ----------------------------------------------------------------------
def make_measurement_backend(
    name: str = "sim",
    *,
    options: object = None,
    **option_kwargs: object,
) -> MeasurementBackend:
    """Build a measurement backend from a registered name.

    Pass either a complete options dataclass or option kwargs (merged
    over the process-wide :func:`set_backend_defaults` for ``name``)::

        make_measurement_backend("live", target="tcp://127.0.0.1:7799")
        make_measurement_backend("sim")
    """
    info = measurement_backend_info(name)
    if options is not None:
        if option_kwargs:
            raise TypeError(
                "pass either an options dataclass or option kwargs, not both"
            )
        if not isinstance(options, info.options):
            raise TypeError(
                f"measurement backend {name!r} expects "
                f"{info.options.__name__}, got {type(options).__name__}"
            )
        return info.factory(options)
    effective = {**_OPTION_DEFAULTS.get(name, {}), **option_kwargs}
    unknown = set(effective) - _valid_fields(info)
    if unknown:
        raise TypeError(
            f"unknown option(s) {sorted(unknown)} for measurement backend "
            f"{name!r}; valid: {sorted(_valid_fields(info))}"
        )
    return info.factory(info.options(**effective))


#: Memoized backend instances, keyed by (name, effective options).
#: Backends are cheap, stateless-between-runs objects; memoizing keeps
#: the per-spec dispatch in ``measure_spec`` allocation-free on the
#: hot path (thousands of sim specs per sweep).
_INSTANCES: Dict[Tuple[str, str], MeasurementBackend] = {}


def _backend_instance(name: str) -> MeasurementBackend:
    key = (name, repr(sorted(_OPTION_DEFAULTS.get(name, {}).items())))
    backend = _INSTANCES.get(key)
    if backend is None:
        backend = make_measurement_backend(name)
        _INSTANCES[key] = backend
    return backend


def backend_is_deterministic(name: str) -> bool:
    """Whether ``name``'s results may be cached / bit-identity-gated.

    Unknown names answer ``False``: an unregistered backend cannot
    promise the caching contract, so the cache must not store for it.
    """
    if name == "sim":
        return True
    try:
        backend = _backend_instance(name)
    except KeyError:
        return False
    return bool(backend.capabilities().deterministic)


def measure_spec(spec: object) -> object:
    """Execute one independent experiment on its measurement backend.

    The single execution primitive of the library: every executor's
    default task, the procedure, attribution, sweeps, and the CLI all
    funnel through here.  Dispatch reads ``spec.backend`` (absent or
    ``"sim"`` selects the simulator — the historical semantics, digest
    and all) and routes through the registered backend's
    ``prepare -> drive`` pair.

    Scenario-carrying specs are refused with a clear error when the
    backend lacks the ``scenarios`` capability, rather than failing
    somewhere inside the backend.
    """
    name = getattr(spec, "backend", "sim") or "sim"
    backend = _backend_instance(name)
    if getattr(spec, "scenario", None) is not None:
        caps = backend.capabilities()
        if not caps.scenarios:
            raise ValueError(
                f"measurement backend {name!r} cannot run scenario-carrying "
                "specs (capability 'scenarios' is False); lower the scenario "
                "to plain RunSpecs or use the 'sim' backend"
            )
    result = backend.prepare(spec).drive()
    return _attach_guards(spec, result, backend)


def _attach_guards(spec: object, result: object, backend: MeasurementBackend) -> object:
    """Audit ``result`` with the validity detectors (API v2).

    Runs inside ``measure_spec`` — i.e. inside whatever worker process
    executed the spec — so verdicts are computed once from the
    bit-identical result and ride along in the executor's pickles:
    serial and process-pool lanes both see the same
    ``result.guards``.  Third-party results that reject attribute
    assignment (slots, frozen) are returned un-audited; the guard
    layer never turns a successful measurement into a failure.
    """
    if getattr(result, "guards", None) is not None:
        return result  # already audited (e.g. a backend that delegates here)
    from ..guards.api import evaluate_run, maybe_enforce

    try:
        caps = backend.capabilities()
    except Exception:  # noqa: BLE001 — capabilities are advisory here
        caps = None
    report = evaluate_run(spec, result, capabilities=caps)
    try:
        result.guards = report
    except (AttributeError, TypeError):
        pass
    # No-op in (default) advisory mode; under strict enforcement a
    # failed audit raises GuardFailureError here, inside the
    # measurement path, so every caller of measure_spec is covered.
    maybe_enforce(report, context=str(getattr(spec, "tag", "") or "run"))
    return result
