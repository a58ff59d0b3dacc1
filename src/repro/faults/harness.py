"""The chaos harness: a deterministic reference workload and the live
fleet's chaos experiment.

* :class:`ChaosSpec` / :func:`chaos_task` — cheap, deterministic,
  digestable and cacheable work (milliseconds per spec), the
  stand-in for real ``RunSpec`` experiments in the cache-hardening and
  restart-from-cache tests (``tests/test_faults.py``);
* :func:`run_live_chaos` — one seeded live-fleet chaos experiment,
  checked against the live chaos invariant (:class:`LiveChaosReport`).
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .plan import FaultPlan

__all__ = [
    "ChaosSpec",
    "ChaosResult",
    "chaos_task",
    "result_signature",
    "LiveChaosReport",
    "run_live_chaos",
]


# ----------------------------------------------------------------------
# the reference workload: cheap, deterministic, digestable, cacheable
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ChaosSpec:
    """A miniature RunSpec stand-in: content-digested, describable.

    ``chaos_task`` is a pure function of (payload, salt, rounds), so
    the executor determinism contract — equal spec ⇒ bit-identical
    result — holds exactly as it does for real experiments.
    """

    payload: int
    salt: int = 0
    rounds: int = 64
    tag: str = ""

    def digest(self) -> str:
        blob = json.dumps(
            {
                "__chaos_spec__": 1,
                "payload": self.payload,
                "salt": self.salt,
                "rounds": self.rounds,
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def describe(self) -> Dict[str, object]:
        return {
            "workload": "chaos",
            "payload": self.payload,
            "salt": self.salt,
            "rounds": self.rounds,
            "digest": self.digest()[:12],
        }


@dataclass
class ChaosResult:
    """RunResult-shaped value for chaos work (cacheable)."""

    value: str
    metrics: Dict[float, float]
    spec_digest: str = ""
    wall_s: float = 0.0
    events_processed: int = 0
    from_cache: bool = False

    def raw_samples(self) -> np.ndarray:
        return np.empty(0)


def chaos_task(spec: ChaosSpec) -> ChaosResult:
    """Pure function of the spec: iterated SHA-256 with derived metrics."""
    t0 = time.perf_counter()
    digest = f"{spec.salt}:{spec.payload}".encode("utf-8")
    for _ in range(spec.rounds):
        digest = hashlib.sha256(digest).digest()
    value = digest.hex()
    metrics = {
        0.5: int(value[:8], 16) / 2**32,
        0.99: int(value[8:16], 16) / 2**32,
    }
    return ChaosResult(
        value=value,
        metrics=metrics,
        spec_digest=spec.digest(),
        wall_s=time.perf_counter() - t0,
        events_processed=spec.rounds,
    )


def result_signature(result: ChaosResult) -> Tuple[str, Tuple, str]:
    """The bit-identity view of a result (excludes wall clock/cache)."""
    return (
        result.value,
        tuple(sorted(result.metrics.items())),
        result.spec_digest,
    )


# ----------------------------------------------------------------------
# the live-fleet chaos experiment
# ----------------------------------------------------------------------
@dataclass
class LiveChaosReport:
    """Outcome of one seeded *live-fleet* chaos run.

    **The live chaos invariant**:

        Under any live FaultPlan, a fleet measurement either
        *converges* — possibly degraded, with the losses accounted on
        the fleet ledger — or fails with a clean, attributed
        :class:`~repro.live.LiveMeasurementError` within the deadline.
        Never a hang.
    """

    seed: int
    processes: int
    plan_digest: str
    kinds: Tuple[str, ...]
    converged: bool = False
    degraded: bool = False
    clean_failure: Optional[str] = None
    unexpected: Optional[str] = None
    hang: bool = False
    fired: List[Tuple[str, int, str]] = field(default_factory=list)
    ledger: Dict[str, object] = field(default_factory=dict)
    wall_s: float = 0.0

    @property
    def invariant_holds(self) -> bool:
        """Converged (degraded or not), or clean failure — never a hang."""
        if self.hang or self.unexpected is not None:
            return False
        return self.converged or self.clean_failure is not None

    def summary(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "processes": self.processes,
            "plan": self.plan_digest[:12],
            "kinds": list(self.kinds),
            "converged": self.converged,
            "degraded": self.degraded,
            "clean_failure": self.clean_failure,
            "unexpected": self.unexpected,
            "hang": self.hang,
            "fired": [list(f) for f in self.fired],
            "ledger": {
                k: (list(v) if isinstance(v, tuple) else v)
                for k, v in self.ledger.items()
            },
            "wall_s": round(self.wall_s, 3),
            "invariant_holds": self.invariant_holds,
        }


def run_live_chaos(
    seed: int,
    processes: int = 3,
    rate_rps: float = 1500.0,
    samples_per_instance: int = 150,
    plan: Optional[FaultPlan] = None,
    deadline_s: float = 90.0,
) -> LiveChaosReport:
    """Run one seeded live-fleet chaos experiment end to end.

    Boots a local reference server and a ``processes``-wide fleet
    against it, with one *shared* injector wired into both the fleet
    supervisor (``fleet.spawn`` / ``fleet.heartbeat``) and the server
    (``server.connection``) — so a plan's occurrence counting spans
    the whole experiment.  ``plan=None`` draws
    :meth:`FaultPlan.generate_live`.

    The measurement runs on a watchdog thread: if it neither returns
    nor raises within ``deadline_s``, the run is recorded as a *hang*
    — the one outcome the invariant forbids.
    """
    import threading

    from ..exec.spec import RunSpec
    from ..live import LiveMeasurementError, LiveOptions, serve_in_thread
    from ..live.driver import LiveBackend
    from ..live.refserver import RefServerConfig
    from ..workloads import MemcachedWorkload

    t0 = time.perf_counter()
    if plan is None:
        plan = FaultPlan.generate_live(seed)
    injector = plan.injector()
    report = LiveChaosReport(
        seed=seed,
        processes=processes,
        plan_digest=plan.digest(),
        kinds=plan.kinds(),
    )
    server = serve_in_thread(
        RefServerConfig(
            service={"type": "constant", "value": 200.0},
            seed=seed,
            injector=injector,
        )
    )
    spec = RunSpec(
        workload=MemcachedWorkload(),
        total_rate_rps=rate_rps,
        num_instances=processes,
        connections_per_instance=2,
        warmup_samples=30,
        measurement_samples_per_instance=samples_per_instance,
        seed=seed,
        backend="live",
        tag=f"live-chaos seed={seed}",
    )
    options = LiveOptions(
        target=server.target,
        processes=processes,
        injector=injector,
        heartbeat_interval_s=0.1,
        heartbeat_timeout_s=1.0,
        respawn_attempts=1,
        respawn_backoff_base_s=0.05,
        respawn_backoff_cap_s=0.5,
        progress_timeout_s=8.0,
        stall_warn_s=0.5,
        stall_probe_s=2.0,
    )
    box: Dict[str, object] = {}

    def _measure() -> None:
        try:
            box["result"] = LiveBackend(options).prepare(spec).drive()
        except (LiveMeasurementError, ValueError) as exc:
            box["clean"] = f"{type(exc).__name__}: {exc}"
        except BaseException as exc:  # noqa: BLE001 — the invariant's evidence
            box["unexpected"] = f"{type(exc).__name__}: {exc}"

    thread = threading.Thread(target=_measure, daemon=True)
    try:
        thread.start()
        thread.join(deadline_s)
        if thread.is_alive():
            report.hang = True
        elif "result" in box:
            result = box["result"]
            report.converged = True
            report.ledger = dict(getattr(result, "live_health", {}) or {})
            report.degraded = bool(report.ledger.get("degraded", False))
        elif "clean" in box:
            report.clean_failure = str(box["clean"])
        else:
            report.unexpected = str(box.get("unexpected", "no outcome recorded"))
    finally:
        server.stop()
    report.fired = list(injector.fired)
    report.wall_s = time.perf_counter() - t0
    return report
