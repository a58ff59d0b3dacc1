"""repro.exec — the unified experiment-execution layer.

Everything the library runs is one shape of work: an independent
experiment described by a :class:`~repro.exec.spec.RunSpec`, executed
by :func:`repro.measure.measure_spec` on the measurement backend the
spec names (``spec.backend``; the simulator by default), scheduled
through an executor
backend (serial or a local process pool), optionally
memoized by a content-addressed cache (:mod:`~repro.exec.cache`), and
observed through progress hooks (:mod:`~repro.exec.progress`)::

    spec -> schedule -> (serial | process pool) -> cached artifacts
                                              -> progress telemetry

All experiment drivers (``core.procedure``, ``core.attribution``,
``core.sweeps``, ``core.capacity``) and the CLI submit work
exclusively through this package.

Public surface
--------------
This module re-exports the **stable** names only; anything not listed
in ``__all__`` (module internals, the wire protocol) is private and
may change without notice.  The executor contract is documented in
``src/repro/exec/API.md``.

* the work unit: ``RunSpec``, ``RunResult``, ``spec_digest``,
  ``metric_samples``, ``SPEC_SCHEMA``
* the executor API: ``Executor`` (protocol), ``Capabilities``,
  ``EXECUTORS`` (the backend names), ``make_executor``
* backends: ``SerialExecutor``, ``ParallelExecutor``
* caching: ``ResultCache``, ``cache_version``, ``CACHE_SCHEMA``
* scoped defaults: ``execute_specs``, ``execution``,
  ``default_executor``, ``set_execution_defaults``,
  ``get_execution_defaults``
* observability: ``RunEvent``, ``ProgressHook``, ``StderrProgress``,
  ``Telemetry``, ``chain``
* resilience: ``QUARANTINE_DIR``
* errors: ``ExecError``, ``ExecTimeout``
"""

from .api import Capabilities, Executor
from .cache import CACHE_SCHEMA, QUARANTINE_DIR, ResultCache, cache_version
from .executors import (
    EXECUTORS,
    ExecError,
    ExecTimeout,
    ParallelExecutor,
    SerialExecutor,
    default_executor,
    execute_specs,
    execution,
    get_execution_defaults,
    make_executor,
    set_execution_defaults,
)
from .progress import ProgressHook, RunEvent, StderrProgress, Telemetry, chain
from .spec import SPEC_SCHEMA, RunResult, RunSpec, metric_samples, spec_digest

__all__ = [
    # work unit
    "SPEC_SCHEMA",
    "RunSpec",
    "RunResult",
    "spec_digest",
    "metric_samples",
    # executor API
    "Executor",
    "Capabilities",
    "EXECUTORS",
    "make_executor",
    # backends
    "SerialExecutor",
    "ParallelExecutor",
    # caching
    "CACHE_SCHEMA",
    "ResultCache",
    "cache_version",
    # scoped defaults & conveniences
    "execute_specs",
    "execution",
    "default_executor",
    "set_execution_defaults",
    "get_execution_defaults",
    # observability
    "RunEvent",
    "ProgressHook",
    "StderrProgress",
    "Telemetry",
    "chain",
    # resilience
    "QUARANTINE_DIR",
    # errors
    "ExecError",
    "ExecTimeout",
]
