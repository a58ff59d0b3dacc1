"""Deterministic fault injection and chaos testing.

The package has two halves:

- :mod:`repro.faults.plan` — seeded, content-digestable
  :class:`FaultPlan` schedules and the :class:`FaultInjector` that
  fires them at explicit hook points in the result cache and the live
  stack (all no-ops in production).
- :mod:`repro.faults.harness` — the deterministic :class:`ChaosSpec`
  reference workload and the live-fleet chaos experiment, whose
  invariant is: converged (possibly degraded) or a clean, attributed
  error — never a hang.

``repro.exec`` never imports this package; the coupling is one-way
(duck-typed ``fire(site)`` hooks), so production code paths carry no
chaos machinery.
"""

from .harness import (
    ChaosResult,
    ChaosSpec,
    chaos_task,
    result_signature,
)
from .plan import FAULT_KINDS, KIND_SITES, FaultAction, FaultInjector, FaultPlan

__all__ = [
    "FAULT_KINDS",
    "KIND_SITES",
    "FaultAction",
    "FaultInjector",
    "FaultPlan",
    "ChaosSpec",
    "ChaosResult",
    "chaos_task",
    "result_signature",
]
