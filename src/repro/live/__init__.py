"""repro.live — wall-clock measurement against real endpoints.

The Treadmill procedure (open-loop Poisson arrivals, warm-up/
calibration/measurement phases, per-instance-then-aggregate quantiles,
repeat-until-converged) applied to a *live* TCP or HTTP endpoint via
asyncio, behind the same :class:`~repro.measure.api.MeasurementBackend`
protocol the simulator implements.  Select it per spec with
``RunSpec(backend="live", total_rate_rps=...)`` and point it at an
endpoint with::

    from repro.measure import backend_defaults
    with backend_defaults("live", target="tcp://127.0.0.1:7799"):
        result = repro.run(spec)

Add ``processes=N`` to shard the load across a supervised fleet of N
client OS processes (crash-safe: heartbeats, seeded respawns, a
salvage bound — see :mod:`repro.live.fleet`), and
``pool_targets={"pool": "tcp://..."}`` to run a scenario-carrying spec
against M real endpoints.

Modules:

* :mod:`repro.live.protocol` — the minimal wire protocols (TCP
  line-echo and minimal HTTP) plus target-URL parsing.
* :mod:`repro.live.driver` — the open-loop asyncio driver
  (``LiveBackend``/``LiveOptions``) registered as backend ``"live"``,
  and the spec→\\ :class:`~repro.live.driver.InstanceAssignment`
  lowering shared by every execution shape.
* :mod:`repro.live.fleet` / :mod:`repro.live.clientproc` — the
  multi-process fleet supervisor and its client-process entry point.
* :mod:`repro.live.refserver` — a deterministic local reference server
  (seeded service-time distribution, injectable stalls) used to
  validate the backend against the simulator.

The driver is **never closed-loop**: send times come from the same
:class:`~repro.core.arrival.ArrivalProcess` gap streams the simulator
uses, scheduled against absolute wall-clock deadlines, and a send is
never gated on an outstanding response (the paper's §II client-bias
pitfall — see the coordinated-omission guard test).
"""

from .driver import (
    InstanceAssignment,
    LiveBackend,
    LiveMeasurementError,
    LiveOptions,
    assignments_for_spec,
    ping,
)
from .fleet import FleetRun
from .protocol import parse_target
from .refserver import RefServerConfig, ReferenceServer, serve_in_thread

__all__ = [
    "LiveBackend",
    "LiveMeasurementError",
    "LiveOptions",
    "InstanceAssignment",
    "FleetRun",
    "assignments_for_spec",
    "ping",
    "parse_target",
    "RefServerConfig",
    "ReferenceServer",
    "serve_in_thread",
]
