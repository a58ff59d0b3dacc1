"""repro — a reproduction of "Treadmill: Attributing the Source of
Tail Latency through Precise Load Testing and Statistical Inference"
(Zhang, Meisner, Mars, Tang — ISCA 2016).

The package provides:

* ``repro.sim`` — a discrete-event datacenter substrate (CPU with
  DVFS/Turbo, NUMA memory, RSS NIC, kernel path, rack network, packet
  capture) replacing the paper's production hardware;
* ``repro.workloads`` — memcached and mcrouter service models with
  JSON-configurable request characteristics;
* ``repro.core`` — the Treadmill load tester, the robust multi-client
  multi-run measurement procedure, and the quantile-regression
  tail-latency attribution pipeline;
* ``repro.loadtesters`` — faithful models of the flawed baselines the
  paper compares against (CloudSuite, Mutilate, YCSB, Faban);
* ``repro.stats`` — adaptive histograms, quantile estimation and CIs,
  factorial designs, quantile regression, pseudo-R², bootstrap
  inference;
* ``repro.experiments`` — one module per paper table/figure,
  regenerating its rows/series.

* ``repro.measure`` — the versioned MeasurementBackend protocol and
  registry separating the measurement *procedure* from the target
  under test;
* ``repro.live`` — the wall-clock asyncio open-loop driver (backend
  ``"live"``) plus a deterministic local reference server; the driver
  self-heals (reconnects, health probes, stall ladder) and salvages
  partial results as *degraded* runs;
* ``repro.guards`` — executable measurement-validity detectors (the
  paper's §II pitfall catalogue) auditing every run; verdicts ride on
  ``result.guards`` and ``repro.run(spec, strict_guards=True)``
  enforces them.

Quickstart::

    from repro import MeasurementProcedure, ProcedureConfig
    from repro.workloads import MemcachedWorkload

    proc = MeasurementProcedure(ProcedureConfig(
        workload=MemcachedWorkload(), target_utilization=0.7))
    result = proc.run()
    print(result.estimates)   # {0.5: ..., 0.95: ..., 0.99: ...} in us

One-shot execution goes through :func:`repro.run`::

    result = repro.run(spec)                  # sim (the default)
    result = repro.run(spec, backend="live")  # same procedure, real endpoint
"""

from .core import (
    AttributionConfig,
    AttributionReport,
    AttributionStudy,
    BenchConfig,
    MeasurementProcedure,
    ProcedureConfig,
    ProcedureResult,
    TestBench,
    TreadmillConfig,
    TreadmillInstance,
    TREADMILL_FACTORS,
    apply_factors,
    workload_from_json,
)
from .exec import (
    Capabilities,
    Executor,
    ParallelExecutor,
    ResultCache,
    RunSpec,
    SerialExecutor,
    execute_specs,
    execution,
    make_executor,
)
from .facade import run
from .guards import (
    GuardFailureError,
    GuardReport,
    GuardThresholds,
    GuardVerdict,
    available_detectors,
    evaluate_run,
    guard_thresholds,
    set_guard_thresholds,
)
from .measure import (
    BenchCapabilities,
    MeasurementBackend,
    available_measurement_backends,
    backend_defaults,
    make_measurement_backend,
    measure_spec,
    register_measurement_backend,
    set_backend_defaults,
)
from .sim import HardwareSpec
from .workloads import McrouterWorkload, MemcachedWorkload

__version__ = "4.0.0"

__all__ = [
    "run",
    "measure_spec",
    "MeasurementBackend",
    "BenchCapabilities",
    "available_measurement_backends",
    "make_measurement_backend",
    "register_measurement_backend",
    "set_backend_defaults",
    "backend_defaults",
    "GuardFailureError",
    "GuardReport",
    "GuardThresholds",
    "GuardVerdict",
    "available_detectors",
    "evaluate_run",
    "guard_thresholds",
    "set_guard_thresholds",
    "RunSpec",
    "Executor",
    "Capabilities",
    "SerialExecutor",
    "ParallelExecutor",
    "ResultCache",
    "make_executor",
    "execute_specs",
    "execution",
    "AttributionConfig",
    "AttributionReport",
    "AttributionStudy",
    "BenchConfig",
    "MeasurementProcedure",
    "ProcedureConfig",
    "ProcedureResult",
    "TestBench",
    "TreadmillConfig",
    "TreadmillInstance",
    "TREADMILL_FACTORS",
    "apply_factors",
    "workload_from_json",
    "HardwareSpec",
    "McrouterWorkload",
    "MemcachedWorkload",
    "__version__",
]
