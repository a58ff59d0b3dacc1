"""Measurement-validity guards: executable bias detectors on every run.

Treadmill's §II is a catalogue of ways a load test silently lies —
coordinated omission, saturated clients, biased pooled aggregation,
insufficient warm-up, non-stationary interference.  This package turns
that catalogue into code: every measurement (simulated or live) that
goes through :func:`repro.measure.api.measure_spec` is audited by a
registry of seeded, deterministic detectors, and the structured
verdicts ride on ``result.guards`` as a :class:`GuardReport`.

Quick start::

    result = repro.run(spec)
    print(result.guards.format())        # pass/warn/fail per pitfall
    repro.run(spec, strict_guards=True)  # raises GuardFailureError on fail

The detectors are pure functions of ``(spec, result, capabilities,
thresholds)``; on deterministic backends the verdicts are bit-identical
across the serial and process executors because they are computed
inside the measurement itself and travel with the pickled result.  See
``DESIGN.md`` §10 and :mod:`repro.guards.detectors` for the catalogue.
"""

from .api import (
    FAIL,
    GUARDS_SCHEMA,
    LATE_GAP_FACTOR,
    PASS,
    SKIP,
    WARN,
    GuardContext,
    GuardFailureError,
    GuardReport,
    GuardThresholds,
    GuardVerdict,
    available_detectors,
    current_enforcement,
    current_thresholds,
    detector_info,
    evaluate_run,
    guard_enforcement,
    guard_thresholds,
    register_detector,
    set_guard_enforcement,
    set_guard_thresholds,
)

__all__ = [
    "GUARDS_SCHEMA",
    "LATE_GAP_FACTOR",
    "PASS",
    "WARN",
    "FAIL",
    "SKIP",
    "GuardContext",
    "GuardFailureError",
    "GuardReport",
    "GuardThresholds",
    "GuardVerdict",
    "available_detectors",
    "current_enforcement",
    "current_thresholds",
    "detector_info",
    "evaluate_run",
    "guard_enforcement",
    "guard_thresholds",
    "register_detector",
    "set_guard_enforcement",
    "set_guard_thresholds",
]
