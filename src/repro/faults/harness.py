"""The chaos harness: run a reference sweep under injected faults and
check the executor's one honest promise.

**The chaos invariant** (acceptance gate of the fault-injection PR):

    Under any FaultPlan, a cluster run either produces results
    *bit-identical* to :class:`~repro.exec.executors.SerialExecutor`,
    or fails with a clean, attributed :class:`~repro.exec.ExecError` —
    never a hang, never silent data loss.

:func:`run_chaos` drives one seeded chaos experiment end to end:

1. build a batch of cheap, deterministic :class:`ChaosSpec` work
   (digestable + cacheable like real ``RunSpec`` experiments, but
   milliseconds each so a seed × cluster-size matrix stays fast);
2. compute the serial reference signatures;
3. run the same batch on a :class:`~repro.exec.LocalClusterExecutor`
   wired with a seeded :class:`~repro.faults.plan.FaultPlan` injector,
   a result cache, retry budgets, circuit breakers, and a
   healthy-worker floor;
4. when an injected ``coordinator_restart`` kills the run loop
   (:class:`~repro.exec.distributed.SimulatedCrash`), restart from
   the cache — the injector is *shared* across restarts so consumed
   faults never re-fire;
5. compare against the reference and report.

The harness is also the reference driver for operating real chaos
runs from the CLI (``repro chaos --seed N``-style usage in tests).
"""

from __future__ import annotations

import hashlib
import json
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..exec.api import ClusterOptions, HealthPolicy, RetryPolicy
from ..exec.cache import ResultCache
from ..exec.distributed import LocalClusterExecutor, SimulatedCrash
from ..exec.executors import ExecError, SerialExecutor
from ..exec.progress import Telemetry
from .plan import FaultAction, FaultInjector, FaultPlan

__all__ = [
    "ChaosSpec",
    "ChaosResult",
    "chaos_task",
    "result_signature",
    "ChaosReport",
    "run_chaos",
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
# the chaos experiment
# ----------------------------------------------------------------------
@dataclass
class ChaosReport:
    """Outcome of one seeded chaos run (the invariant's evidence)."""

    seed: int
    workers: int
    plan_digest: str
    kinds: Tuple[str, ...]
    identical: bool = False
    clean_failure: Optional[str] = None
    restarts: int = 0
    faults_observed: int = 0
    recoveries_observed: int = 0
    fired: List[Tuple[str, int, str]] = field(default_factory=list)
    degraded: bool = False
    #: Specs the last restarted incarnation served from the cache.
    resumed_from_cache: int = 0
    wall_s: float = 0.0

    @property
    def invariant_holds(self) -> bool:
        """Bit-identical to serial, or a clean attributed failure."""
        return self.identical or self.clean_failure is not None

    def summary(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "workers": self.workers,
            "plan": self.plan_digest[:12],
            "kinds": list(self.kinds),
            "identical": self.identical,
            "clean_failure": self.clean_failure,
            "restarts": self.restarts,
            "faults": self.faults_observed,
            "recoveries": self.recoveries_observed,
            "fired": [list(f) for f in self.fired],
            "degraded": self.degraded,
            "resumed_from_cache": self.resumed_from_cache,
            "wall_s": round(self.wall_s, 3),
            "invariant_holds": self.invariant_holds,
        }


def _cluster_options(
    workers: int,
    lease_s: float,
    injector: FaultInjector,
    seed: int,
) -> ClusterOptions:
    return ClusterOptions(
        workers=workers,
        lease_s=lease_s,
        retry=RetryPolicy(
            max_attempts=8,
            backoff_base_s=0.02,
            backoff_cap_s=0.25,
            jitter_seed=seed,
        ),
        health=HealthPolicy(
            trip_after=3,
            cooldown_s=2.0 * lease_s,
            min_healthy_workers=1,
            degrade_after_s=4.0 * lease_s,
        ),
        fault_plan=injector,
    )


def run_chaos(
    seed: int,
    workers: int = 2,
    n_specs: int = 10,
    lease_s: float = 1.0,
    plan: Optional[FaultPlan] = None,
    include_restart: bool = False,
    max_restarts: int = 4,
    work_dir: Optional[str] = None,
) -> ChaosReport:
    """Run one seeded chaos experiment; returns its :class:`ChaosReport`.

    ``plan=None`` draws ``FaultPlan.generate(seed, hang_s=2.5*lease_s)``;
    ``include_restart=True`` appends a ``coordinator_restart`` action,
    and the harness then resumes from the cache with the *same*
    injector (consumed faults never re-fire, so restarts are bounded by
    the plan, with ``max_restarts`` as a backstop).
    """
    t0 = time.perf_counter()
    specs = [ChaosSpec(payload=i, salt=seed) for i in range(n_specs)]
    with SerialExecutor(task=chaos_task) as serial:
        reference = [result_signature(r) for r in serial.run(specs)]

    if plan is None:
        plan = FaultPlan.generate(seed, n_faults=3, hang_s=2.5 * lease_s)
    if include_restart and "coordinator_restart" not in plan.kinds():
        plan = plan.with_action(
            FaultAction(kind="coordinator_restart", site="coordinator.loop", nth=2)
        )
    injector = plan.injector()

    tmp: Optional[tempfile.TemporaryDirectory] = None
    if work_dir is None:
        tmp = tempfile.TemporaryDirectory(prefix="repro-chaos-")
        work_dir = tmp.name
    root = Path(work_dir)
    cache = ResultCache(root / "cache")

    report = ChaosReport(
        seed=seed,
        workers=workers,
        plan_digest=plan.digest(),
        kinds=plan.kinds(),
    )
    results = None
    degraded = False
    try:
        while True:
            executor = LocalClusterExecutor(
                options=_cluster_options(workers, lease_s, injector, seed),
                task=chaos_task,
                cache=cache,
            )
            telemetry = Telemetry()
            restarted = report.restarts > 0
            try:
                results = executor.run(specs, progress=telemetry)
                break
            except SimulatedCrash:
                report.restarts += 1
                if report.restarts > max_restarts:
                    report.clean_failure = (
                        f"gave up after {report.restarts} coordinator restarts"
                    )
                    break
            except ExecError as err:
                # The clean, attributed failure arm of the invariant.
                report.clean_failure = f"{type(err).__name__}: {err}"
                break
            finally:
                degraded = degraded or executor.degraded
                executor.close()
                report.faults_observed += telemetry.faults
                report.recoveries_observed += telemetry.recoveries
                if restarted:
                    report.resumed_from_cache = telemetry.cache_hits
        if results is not None:
            report.identical = [result_signature(r) for r in results] == reference
        report.degraded = degraded
        report.fired = list(injector.fired)
    finally:
        if tmp is not None:
            tmp.cleanup()
    report.wall_s = time.perf_counter() - t0
    return report


# ----------------------------------------------------------------------
# the live-fleet chaos experiment
# ----------------------------------------------------------------------
@dataclass
class LiveChaosReport:
    """Outcome of one seeded *live-fleet* chaos run.

    **The live chaos invariant** (the fleet counterpart of the
    executor invariant above):

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
    the whole experiment, exactly like the executor harness shares its
    injector across coordinator restarts.  ``plan=None`` draws
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
