"""The "live" measurement backend: self-healing open-loop asyncio driver.

One :class:`~repro.exec.spec.RunSpec` with ``backend="live"`` runs the
*identical* Treadmill procedure against a real endpoint in wall-clock
time:

* ``num_instances`` concurrent client instances, each with
  ``connections_per_instance`` TCP connections;
* **open-loop, timestamped sends** — inter-arrival gaps come from the
  same :class:`~repro.core.arrival.ArrivalProcess` streams the
  simulator draws from (seeded ``RngRegistry`` keyed by ``(seed,
  run_index)``, stream names ``client{i}/gaps`` and
  ``client{i}/arrivals``), turned into *absolute* wall-clock deadlines
  ``t0 + Σ gaps``.  A send never waits for an outstanding response and
  a response never advances the send schedule — the paper's §II
  client-bias pitfall (coordinated omission) is structurally
  impossible, which the guard test verifies under an injected 50 ms
  server stall;
* per-connection outstanding-request tracking (responses match sends
  by sequence number, out of order);
* the same warm-up/calibration/measurement phase machine and
  :class:`~repro.stats.histogram.AdaptiveHistogram` via the shared
  :class:`~repro.core.treadmill.PhaseRecorder`, so convergence,
  cross-instance aggregation, and attribution run unchanged.

The unit of work is an :class:`InstanceAssignment` — one instance's
name, rate, arrival process, sample budget, and endpoint — which makes
three execution shapes one code path:

* a **plain spec** lowers to ``num_instances`` assignments against one
  endpoint (:func:`assignments_for_spec`);
* a **scenario spec** (N fleets × M pools) lowers to per-fleet
  assignments whose targets come from ``LiveOptions.pool_targets``
  — M *real* endpoints — with the scenario's own RNG layout
  (``{fleet}{i}/gaps`` streams keyed by the scenario seed), per-fleet
  start offsets, and per-(fleet, pool) ``group_metrics`` on the
  result, mirroring :mod:`repro.scenarios.runtime`;
* with ``LiveOptions.processes > 1`` the same assignments are sharded
  across a supervised fleet of client OS processes
  (:mod:`repro.live.fleet`) — each process draws its instances' exact
  gap streams from the shared registry layout, so the offered load
  composes to the single-process schedule precisely.

Endpoint trouble degrades the run instead of killing it (the PR-8
robustness layer):

* a **health probe** before warm-up fails fast on a dead endpoint;
* a dropped connection is **reconnected** with bounded exponential
  backoff and decorrelated jitter (the :mod:`repro.exec.backoff`
  schedule, seeded per ``(seed, run_index, instance, slot)``),
  its in-flight requests counted lost;
* a connection whose reconnect budget is exhausted is **salvaged**:
  its sends re-route to the surviving connections and the run
  completes *degraded* — the loss surfaces as a ``degradation`` guard
  warning on ``result.guards`` — unless more than
  ``max_lost_connection_fraction`` of all connections are gone, which
  aborts cleanly;
* a **stall-escalation ladder** replaces the old single hard deadline:
  ``stall_warn_s`` without progress records a warning,
  ``stall_probe_s`` actively re-probes the endpoint (abort if it is
  gone), ``progress_timeout_s`` aborts with a clean
  :class:`LiveMeasurementError` — converged or clean error, never a
  hang.

Wall-clock results are **not deterministic** (the capability flag says
so), so they never enter the result cache and are excluded from the
bit-identity CI gates.  The driver feeds the validity guards
(``guard_evidence`` capability): an always-on scheduled-vs-actual
send-lag summary (``result.send_lag``), a client CPU / event-loop lag
probe (``result.client_probe``), and degradation telemetry
(``result.live_health``).
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..core.treadmill import PhaseRecorder, TreadmillConfig
from ..guards.api import LATE_GAP_FACTOR
from ..exec.backoff import jitter_rng, next_delay
from ..sim.rng import RngRegistry
from .protocol import (
    PING,
    decode_response,
    encode_http_request,
    encode_request,
    parse_target,
)

__all__ = [
    "LiveOptions",
    "InstanceAssignment",
    "LiveMeasurementError",
    "LiveBackend",
    "assignments_for_spec",
    "registry_for_spec",
    "ping",
]

#: Gap/connection-pick variates drawn per pre-sampled block (a speed
#: knob, mirroring ``TreadmillConfig.rng_block``).
_GAP_BLOCK = 512

#: Cadence of the event-loop lag probe (sleep-overshoot sampling).
_LAG_PROBE_INTERVAL_S = 0.02

#: Degradation events kept on the result (oldest dropped first).
_MAX_HEALTH_EVENTS = 64


class LiveMeasurementError(RuntimeError):
    """A live measurement failed cleanly (endpoint dead, wedged, or
    refusing connections) instead of hanging."""


def _freeze_pool_targets(value: object) -> Tuple[Tuple[str, str], ...]:
    """Normalize pool→endpoint mappings to a sorted tuple of pairs.

    Accepts a mapping, a sequence of ``(pool, target)`` pairs, or a
    sequence of ``"pool=target"`` strings (the CLI spelling).
    """
    if not value:
        return ()
    pairs: List[Tuple[str, str]] = []
    items = value.items() if isinstance(value, Mapping) else value
    for item in items:
        if isinstance(item, str):
            pool, sep, target = item.partition("=")
            if not sep or not pool or not target:
                raise ValueError(
                    f"pool target {item!r} must be spelled POOL=tcp://host:port"
                )
            pairs.append((pool, target))
        else:
            pool, target = item
            pairs.append((str(pool), str(target)))
    return tuple(sorted(pairs))


@dataclass(frozen=True)
class LiveOptions:
    """Environment of the live backend (never part of a spec digest:
    *where* a measurement runs is configuration, *what* it measures is
    the spec).  All knobs are reachable through
    ``backend_defaults("live", ...)`` scoped config."""

    #: Endpoint URL: ``tcp://host:port`` (echo protocol) or
    #: ``http://host:port`` (minimal HTTP).
    target: str = "tcp://127.0.0.1:7799"
    #: Per-pool endpoints for scenario-carrying specs: a mapping (or
    #: ``POOL=URL`` strings) from scenario pool names to target URLs.
    #: A single-pool scenario falls back to ``target`` when empty.
    pool_targets: Tuple[Tuple[str, str], ...] = ()
    #: Budget for establishing each connection (and each reconnect
    #: attempt, and each health probe).
    connect_timeout_s: float = 5.0
    #: Stall ladder, rung 3 (abort): with zero response progress for
    #: this long, the run is aborted with a clean error.
    progress_timeout_s: float = 10.0
    #: Stall ladder, rung 1 (warn): progress gaps longer than this are
    #: recorded as stall warnings (surfaced by the degradation guard).
    stall_warn_s: float = 1.0
    #: Stall ladder, rung 2 (probe): a progress gap this long triggers
    #: an active endpoint probe; a failed probe aborts immediately
    #: instead of waiting out the full deadline.
    stall_probe_s: float = 5.0
    #: Probe the endpoint once before warm-up starts, so a dead target
    #: fails in milliseconds rather than after a full connect fan-out.
    health_probe: bool = True
    #: Reconnect budget per dropped connection (0 disables reconnects;
    #: the connection is then salvaged or the run aborted per
    #: ``max_lost_connection_fraction``).
    reconnect_attempts: int = 4
    #: Reconnect backoff: first retry delay (decorrelated jitter grows
    #: it towards the cap, :mod:`repro.exec.backoff` semantics).
    reconnect_backoff_base_s: float = 0.05
    #: Reconnect backoff ceiling.
    reconnect_backoff_cap_s: float = 1.0
    #: Partial-result salvage bound: the run completes (degraded) while
    #: at most this fraction of all connections is permanently lost,
    #: and aborts cleanly beyond it.
    max_lost_connection_fraction: float = 0.25
    #: Record per-send scheduled/actual timestamps on the result
    #: (``result.send_log``) for offered-rate audits; costs memory, so
    #: off by default.  (A bounded send-*lag* summary is always on —
    #: ``result.send_lag`` — feeding the coordinated-omission guard.)
    record_send_log: bool = False
    #: Client OS processes to shard the instances across (the
    #: :mod:`repro.live.fleet` supervisor); 1 keeps the historical
    #: single-process in-loop driver.
    processes: int = 1
    #: Fleet supervision: heartbeat cadence each client process
    #: reports at, and how long the supervisor waits past the last
    #: heartbeat before declaring the process dead.
    heartbeat_interval_s: float = 0.25
    heartbeat_timeout_s: float = 2.0
    #: Respawn budget per client process slot (seeded decorrelated-
    #: jitter backoff between respawns; 0 disables respawns).
    respawn_attempts: int = 2
    respawn_backoff_base_s: float = 0.1
    respawn_backoff_cap_s: float = 2.0
    #: Fleet salvage bound: the run completes (degraded) while at most
    #: this fraction of client processes is permanently lost, and
    #: aborts with a clean :class:`LiveMeasurementError` beyond it.
    #: (Default admits one loss out of three processes.)
    max_lost_client_fraction: float = 0.34
    #: Quarantine: a client process whose heartbeat CPU probe reports
    #: at least this process-CPU fraction for ``saturation_strikes``
    #: consecutive heartbeats is killed and counted lost — a saturated
    #: client distorts the tail it measures, so it must not be
    #: averaged in.  1.0 disables the check.
    saturation_cpu_fraction: float = 1.0
    saturation_strikes: int = 3
    #: Optional duck-typed fault injector (``fire(site) -> action``,
    #: the :mod:`repro.faults` shape) consulted by the fleet
    #: supervisor at ``fleet.spawn`` / ``fleet.heartbeat``.  Chaos
    #: testing only; never set in production.
    injector: object = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "pool_targets", _freeze_pool_targets(self.pool_targets)
        )
        if self.connect_timeout_s <= 0 or self.progress_timeout_s <= 0:
            raise ValueError("timeouts must be positive")
        if self.stall_warn_s <= 0 or self.stall_probe_s <= 0:
            raise ValueError("stall thresholds must be positive")
        if self.reconnect_attempts < 0:
            raise ValueError("reconnect_attempts must be >= 0")
        if self.reconnect_backoff_base_s <= 0:
            raise ValueError("reconnect_backoff_base_s must be positive")
        if self.reconnect_backoff_cap_s < self.reconnect_backoff_base_s:
            raise ValueError("reconnect_backoff_cap_s must be >= the base")
        if not 0.0 <= self.max_lost_connection_fraction <= 1.0:
            raise ValueError("max_lost_connection_fraction must be in [0, 1]")
        if self.processes < 1:
            raise ValueError("processes must be >= 1")
        if self.heartbeat_interval_s <= 0:
            raise ValueError("heartbeat_interval_s must be positive")
        if self.heartbeat_timeout_s <= self.heartbeat_interval_s:
            raise ValueError(
                "heartbeat_timeout_s must exceed heartbeat_interval_s"
            )
        if self.respawn_attempts < 0:
            raise ValueError("respawn_attempts must be >= 0")
        if self.respawn_backoff_base_s <= 0:
            raise ValueError("respawn_backoff_base_s must be positive")
        if self.respawn_backoff_cap_s < self.respawn_backoff_base_s:
            raise ValueError("respawn_backoff_cap_s must be >= the base")
        if not 0.0 <= self.max_lost_client_fraction <= 1.0:
            raise ValueError("max_lost_client_fraction must be in [0, 1]")
        if not 0.0 < self.saturation_cpu_fraction <= 1.0:
            raise ValueError("saturation_cpu_fraction must be in (0, 1]")
        if self.saturation_strikes < 1:
            raise ValueError("saturation_strikes must be >= 1")

    def pool_target_map(self) -> Dict[str, str]:
        return dict(self.pool_targets)


@dataclass(frozen=True)
class InstanceAssignment:
    """One live instance's complete work order.

    Plain specs, scenario fleets, and fleet client processes all run
    lists of these; the fields are plain picklable values so a
    supervisor can ship an assignment slice to a client process over
    the frame protocol unchanged.
    """

    #: Instance name — also the RNG stream prefix (``{name}/gaps``),
    #: so a process running a slice draws the same gap sequence the
    #: single-process driver would for that instance.
    name: str
    #: Global instance index (backoff RNG identity).
    index: int
    rate_rps: float
    connections: int
    warmup_samples: int
    measurement_samples: int
    #: Endpoint URL this instance drives.
    target: str
    #: Grouping labels for per-(fleet, pool) metrics ("" on plain specs).
    fleet: str = ""
    pool: str = ""
    #: Optional arrival-process spec dict (``arrival_from_spec``
    #: vocabulary, without ``rate_rps``); None means Poisson.
    arrival: Optional[Mapping] = None
    #: Wall-clock delay before this instance begins sending.
    start_s: float = 0.0


class _Progress:
    """Shared liveness marker the watchdog polls."""

    __slots__ = ("last",)

    def __init__(self, now: float):
        self.last = now


class _Health:
    """Run-wide degradation ledger shared by every instance.

    Counts what the self-healing machinery absorbed; anything non-zero
    turns into a ``degradation`` guard warning on the result.  The
    ledger also enforces the salvage bound: losing more than
    ``max_lost_fraction`` of all connections aborts the run.
    """

    def __init__(self, connections: int, max_lost_fraction: float, target: str):
        self.connections = connections
        self.max_lost_fraction = max_lost_fraction
        self.target = target
        self.dropped_connections = 0
        self.reconnects = 0
        self.lost_connections = 0
        self.lost_sends = 0
        self.lost_pending = 0
        self.stall_warnings = 0
        self.mid_run_probes = 0
        self.events: List[str] = []

    def event(self, kind: str, detail: str = "") -> None:
        self.events.append(f"{kind}: {detail}" if detail else kind)
        if len(self.events) > _MAX_HEALTH_EVENTS:
            del self.events[: len(self.events) - _MAX_HEALTH_EVENTS]

    def permanent_loss(self, label: str) -> None:
        """One connection's reconnect budget is exhausted.  Raises when
        the salvage bound is crossed; otherwise the run degrades."""
        self.lost_connections += 1
        self.event("connection-lost", label)
        fraction = self.lost_connections / max(self.connections, 1)
        if fraction > self.max_lost_fraction:
            raise LiveMeasurementError(
                f"lost {self.lost_connections}/{self.connections} connections "
                f"to {self.target} ({fraction:.0%} > salvage bound "
                f"{self.max_lost_fraction:.0%}); aborting instead of "
                "measuring a shadow of the offered load"
            )

    @property
    def degraded(self) -> bool:
        return bool(
            self.dropped_connections
            or self.reconnects
            or self.lost_connections
            or self.lost_sends
            or self.lost_pending
            or self.stall_warnings
            or self.mid_run_probes
        )

    def summary(self) -> Dict[str, object]:
        return {
            "connections": self.connections,
            "dropped_connections": self.dropped_connections,
            "reconnects": self.reconnects,
            "lost_connections": self.lost_connections,
            "lost_sends": self.lost_sends,
            "lost_pending": self.lost_pending,
            "stall_warnings": self.stall_warnings,
            "mid_run_probes": self.mid_run_probes,
            "degraded": self.degraded,
            "events": tuple(self.events),
        }


class _Conn:
    __slots__ = ("reader", "writer", "pending", "alive")

    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer
        #: seq -> send timestamp (loop time) of outstanding requests.
        self.pending: Dict[int, float] = {}
        self.alive = True


async def _probe_connect(host: str, port: int, timeout_s: float) -> None:
    """Connect-level endpoint health probe.

    Deliberately protocol-agnostic (no PING): response-level liveness
    is the watchdog's job; the probe answers "is anything still
    accepting connections there?".
    """
    try:
        _reader, writer = await asyncio.wait_for(
            asyncio.open_connection(host, port), timeout_s
        )
    except (OSError, asyncio.TimeoutError) as exc:
        raise LiveMeasurementError(
            f"cannot connect to {host}:{port}: {exc}"
        ) from exc
    writer.close()
    try:
        await writer.wait_closed()
    except (OSError, ConnectionError):  # pragma: no cover - platform noise
        pass


# ----------------------------------------------------------------------
# spec / scenario lowering to assignments
# ----------------------------------------------------------------------
def registry_for_spec(spec) -> RngRegistry:
    """The RNG registry every live execution shape shares.

    Plain specs seed from ``(spec.seed, run_index)`` — the simulated
    TestBench layout; scenario specs from ``(scenario.seed,
    run_index)`` — the :class:`~repro.scenarios.bench.ScenarioBench`
    layout.  Streams are keyed by instance *name*, so a fleet client
    process holding a slice of the assignments draws exactly the
    sub-streams the single-process driver would for those instances.
    """
    scenario = getattr(spec, "scenario", None)
    seed = scenario.seed if scenario is not None else spec.seed
    return RngRegistry(hash((seed, spec.run_index)) & 0x7FFFFFFF)


def assignments_for_spec(spec, options: LiveOptions) -> List[InstanceAssignment]:
    """Lower a live spec (plain or scenario-carrying) to assignments."""
    scenario = getattr(spec, "scenario", None)
    if scenario is not None:
        return _scenario_assignments(spec, scenario, options)
    if getattr(spec, "total_rate_rps", None) is None:
        raise ValueError(
            "the live backend needs an absolute total_rate_rps: a real "
            "endpoint's service model is unknown, so target_utilization "
            "cannot be resolved (capability 'utilization_targeting' is "
            "False)"
        )
    rate_per_instance = spec.total_rate_rps / spec.num_instances
    return [
        InstanceAssignment(
            name=f"client{i}",
            index=i,
            rate_rps=rate_per_instance,
            connections=spec.connections_per_instance,
            warmup_samples=spec.warmup_samples,
            measurement_samples=spec.measurement_samples_per_instance,
            target=options.target,
        )
        for i in range(spec.num_instances)
    ]


def _scenario_assignments(
    spec, scenario, options: LiveOptions
) -> List[InstanceAssignment]:
    """Lower a scenario to per-fleet assignments against M endpoints.

    The topology (fleets × pools, rates, arrival processes, start
    offsets, sample budgets) is realized literally; the *service* side
    is the real endpoints named by ``pool_targets``.  Antagonists are
    a simulator-model construct a live endpoint cannot realize, so
    they are refused rather than silently dropped.
    """
    if scenario.antagonists:
        raise ValueError(
            f"scenario {scenario.name!r} declares "
            f"{len(scenario.antagonists)} antagonist(s); the live backend "
            "cannot inject antagonists into a real endpoint — use the sim "
            "backend or remove them"
        )
    targets = options.pool_target_map()
    pool_names = [p.name for p in scenario.pools]
    missing = [p for p in pool_names if p not in targets]
    if missing:
        if len(pool_names) == 1 and not targets:
            # Single-pool scenarios ride the plain target.
            targets = {pool_names[0]: options.target}
        else:
            raise ValueError(
                f"scenario {scenario.name!r}: no live endpoint configured "
                f"for pool(s) {missing}; set backend_defaults('live', "
                "pool_targets={'pool': 'tcp://host:port', ...}) or "
                "--pool-target POOL=URL"
            )
    rates = _fleet_rates(scenario, spec.run_index)
    assignments: List[InstanceAssignment] = []
    index = 0
    for fleet in scenario.fleets:
        rate_per_instance = rates[fleet.name] / fleet.instances
        for i in range(fleet.instances):
            assignments.append(
                InstanceAssignment(
                    name=f"{fleet.name}{i}",
                    index=index,
                    rate_rps=rate_per_instance,
                    connections=fleet.connections_per_instance,
                    warmup_samples=fleet.warmup_samples,
                    measurement_samples=fleet.measurement_samples_per_instance,
                    target=targets[fleet.target],
                    fleet=fleet.name,
                    pool=fleet.target,
                    arrival=dict(fleet.arrival) if fleet.arrival else None,
                    start_s=fleet.start_us * 1e-6,
                )
            )
            index += 1
    return assignments


def _fleet_rates(scenario, run_index: int) -> Dict[str, float]:
    """Each fleet's total offered rate in rps.

    ``target_utilization`` fleets are calibrated against the
    scenario's *declared* pool service model via
    :class:`~repro.scenarios.bench.ScenarioBench` — the same
    arithmetic the simulator uses — on the assumption that the real
    endpoint implements that service distribution (the reference
    server seeded from the pool's service spec does exactly).
    """
    needs_bench = any(f.rate_rps is None for f in scenario.fleets)
    if not needs_bench:
        return {f.name: float(f.rate_rps) for f in scenario.fleets}
    from ..scenarios.bench import ScenarioBench  # lazy: pulls in the sim

    bench = ScenarioBench(scenario, run_index=run_index)
    return {
        f.name: float(bench.fleet_total_rate(f.name)) for f in scenario.fleets
    }


def _arrival_for(assignment: InstanceAssignment):
    if assignment.arrival is None:
        return None
    from ..core.arrival import arrival_from_spec

    return arrival_from_spec(
        {**dict(assignment.arrival), "rate_rps": assignment.rate_rps}
    )


class _LiveInstance:
    """One Treadmill instance driving one set of connections."""

    def __init__(
        self,
        assignment: InstanceAssignment,
        spec,
        rng: RngRegistry,
        options: LiveOptions,
        progress: _Progress,
        health: _Health,
    ):
        self.assignment = assignment
        self.name = assignment.name
        self.index = assignment.index
        self.spec = spec
        self.options = options
        self.progress = progress
        self.health = health
        config = TreadmillConfig(
            rate_rps=assignment.rate_rps,
            connections=assignment.connections,
            warmup_samples=assignment.warmup_samples,
            measurement_samples=assignment.measurement_samples,
            keep_raw=spec.keep_raw,
            arrival=_arrival_for(assignment),
        )
        self.recorder = PhaseRecorder(
            assignment.name,
            config,
            fleet=assignment.fleet,
            pool=assignment.pool,
        )
        self.arrival = config.make_arrival()
        # Same stream naming as the simulated bench, so the offered
        # arrival sequence for (seed, run_index) is the identical draw.
        self._gap_rng = rng.stream(f"{assignment.name}/gaps")
        self._conn_rng = rng.stream(f"{assignment.name}/arrivals")
        self.sent = 0
        self.responses = 0
        self._conns: List[_Conn] = []
        #: Always-on send-lag trail (actual - scheduled per send),
        #: summarized by :meth:`lag_summary` for the CO guard.
        self._lags: List[float] = []
        #: Full offered-rate audit trail (filled when record_send_log).
        self.scheduled_ts: List[float] = []
        self.actual_ts: List[float] = []

    # -- lifecycle -----------------------------------------------------
    async def run(self) -> None:
        proto, host, port = parse_target(self.assignment.target)
        if self.assignment.start_s > 0:
            # A fleet coming online mid-run (load shift, flash crowd):
            # hold the whole instance back, connections included, so
            # the endpoint sees the fleet arrive.
            await asyncio.sleep(self.assignment.start_s)
        loop = asyncio.get_running_loop()
        conns = await self._connect(host, port)
        self._conns = conns
        conn_tasks = [
            loop.create_task(self._conn_loop(proto, host, port, c, slot))
            for slot, c in enumerate(conns)
        ]
        send_task = loop.create_task(self._send_loop(proto, conns))
        pending = {send_task, *conn_tasks}
        try:
            while True:
                done, pending = await asyncio.wait(
                    pending, return_when=asyncio.FIRST_COMPLETED
                )
                for t in done:
                    exc = t.exception()
                    if exc is not None:
                        raise exc
                if send_task.done():
                    return  # measurement budget met
                # A conn task retiring here is a permanently lost
                # connection the health ledger already accepted
                # (salvage): keep measuring on the survivors.
        finally:
            for t in (send_task, *conn_tasks):
                t.cancel()
            await asyncio.gather(send_task, *conn_tasks, return_exceptions=True)
            for c in conns:
                if c.writer is not None:
                    c.writer.close()

    async def _connect(self, host: str, port: int) -> List[_Conn]:
        conns = []
        for _ in range(self.assignment.connections):
            try:
                reader, writer = await asyncio.wait_for(
                    asyncio.open_connection(host, port),
                    self.options.connect_timeout_s,
                )
            except (OSError, asyncio.TimeoutError) as exc:
                for c in conns:
                    c.writer.close()
                raise LiveMeasurementError(
                    f"{self.name}: cannot connect to {host}:{port}: {exc}"
                ) from exc
            conns.append(_Conn(reader, writer))
        return conns

    # -- open-loop sender ----------------------------------------------
    async def _send_loop(self, proto: str, conns: List[_Conn]) -> None:
        """Send on absolute deadlines derived from the gap stream.

        The deadline chain ``next_t += gap`` is computed independently
        of every response and of how late the previous send was, so a
        slow server cannot slow the offered load (open loop).  Sends
        go to a uniformly random connection — same policy as the
        simulated :class:`~repro.core.controllers.OpenLoopController`,
        preserving Poisson arrivals per connection.  No per-request
        ``drain()``: awaiting the kernel send buffer would couple the
        schedule to the receiver again.

        A dead connection's picks re-route to the next alive one;
        with none alive the schedule slot is counted as a lost send
        (the arrival process never pauses for endpoint trouble).
        """
        loop = asyncio.get_running_loop()
        encode = encode_http_request if proto == "http" else encode_request
        record_log = self.options.record_send_log
        lags = self._lags
        health = self.health
        n_conns = len(conns)
        seq = 0
        next_t = loop.time()
        while not self.recorder.done:
            gaps = self.arrival.next_gaps_us(self._gap_rng, _GAP_BLOCK)
            if n_conns > 1:
                picks = self._conn_rng.integers(0, n_conns, _GAP_BLOCK)
            else:
                picks = np.zeros(_GAP_BLOCK, dtype=int)
            for gap_us, pick in zip(gaps, picks):
                next_t += gap_us * 1e-6
                delay = next_t - loop.time()
                if delay > 0:
                    await asyncio.sleep(delay)
                elif (seq & 63) == 0:
                    # Behind schedule: still yield so readers run.
                    await asyncio.sleep(0)
                if self.recorder.done:
                    return
                seq += 1
                conn = conns[pick]
                if not conn.alive:
                    for j in range(1, n_conns):
                        alt = conns[(pick + j) % n_conns]
                        if alt.alive:
                            conn = alt
                            break
                    else:
                        health.lost_sends += 1
                        continue
                now = loop.time()
                lags.append(max(0.0, now - next_t))
                if record_log:
                    self.scheduled_ts.append(next_t)
                    self.actual_ts.append(now)
                conn.pending[seq] = now
                try:
                    conn.writer.write(encode(seq))
                except (OSError, RuntimeError):
                    # Transport died between the reader noticing and us:
                    # the conn loop will reconnect; the slot is lost.
                    conn.pending.pop(seq, None)
                    conn.alive = False
                    health.lost_sends += 1
                    continue
                self.sent += 1

    # -- reader + self-healing reconnect ---------------------------------
    async def _conn_loop(self, proto: str, host: str, port: int, conn: _Conn, slot: int) -> None:
        """Read responses until the run ends, reconnecting the
        connection with backoff when the endpoint drops it.

        Returning (rather than raising) means the connection is
        permanently lost but the ledger accepted the loss — the run
        continues degraded on the surviving connections.
        """
        label = f"{self.name}/conn{slot}"
        # Seeded decorrelated-jitter schedule (repro.exec.backoff
        # pins its determinism).
        backoff_rng = jitter_rng(
            self.spec.seed, self.spec.run_index, self.index, slot
        )
        while True:
            await self._read_until_closed(proto, conn)
            if self.recorder.done:
                return
            conn.alive = False
            self.health.dropped_connections += 1
            self.health.lost_pending += len(conn.pending)
            conn.pending.clear()
            self.health.event("connection-drop", label)
            try:
                conn.writer.close()
            except (OSError, RuntimeError):  # pragma: no cover - defensive
                pass
            if not await self._reconnect(host, port, conn, backoff_rng):
                self.health.permanent_loss(label)  # raises past the bound
                if not any(c.alive for c in self._conns):
                    raise LiveMeasurementError(
                        f"{self.name}: every connection to {host}:{port} "
                        "permanently lost; the measurement cannot finish"
                    )
                return
            self.health.reconnects += 1
            self.health.event("reconnect", label)

    async def _reconnect(self, host: str, port: int, conn: _Conn, rng) -> bool:
        """Bounded exponential backoff with decorrelated jitter:
        ``delay = min(cap, uniform(base, prev * 3))`` between attempts
        (see :mod:`repro.exec.backoff`)."""
        opts = self.options
        delay = opts.reconnect_backoff_base_s
        for attempt in range(opts.reconnect_attempts):
            if attempt:
                await asyncio.sleep(delay)
                delay = next_delay(
                    rng,
                    opts.reconnect_backoff_base_s,
                    opts.reconnect_backoff_cap_s,
                    delay,
                )
            try:
                reader, writer = await asyncio.wait_for(
                    asyncio.open_connection(host, port), opts.connect_timeout_s
                )
            except (OSError, asyncio.TimeoutError):
                continue
            conn.reader = reader
            conn.writer = writer
            conn.alive = True
            return True
        return False

    async def _read_until_closed(self, proto: str, conn: _Conn) -> None:
        """Drain responses from one connection until EOF/reset."""
        loop = asyncio.get_running_loop()
        read = self._read_http_seq if proto == "http" else self._read_echo_seq
        while True:
            try:
                seq = await read(conn.reader)
            except (OSError, ConnectionError):
                return
            if seq is None:
                return  # EOF: the conn loop decides whether to reconnect
            sent_at = conn.pending.pop(seq, None)
            if sent_at is None:
                continue  # unmatched (late duplicate); ignore
            latency_us = (loop.time() - sent_at) * 1e6
            # In-flight responses keep arriving after the budget is
            # met; the sample count must match the spec exactly (the
            # simulated bench stops at precisely this point too).
            if not self.recorder.done:
                self.recorder.record(latency_us)
            self.responses += 1
            self.progress.last = loop.time()

    @staticmethod
    async def _read_echo_seq(reader) -> Optional[int]:
        line = await reader.readline()
        if not line:
            return None
        return decode_response(line)

    @staticmethod
    async def _read_http_seq(reader) -> Optional[int]:
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except (asyncio.IncompleteReadError, ConnectionError):
            return None
        seq = None
        length = 0
        for line in head.split(b"\r\n"):
            if line.lower().startswith(b"x-seq:"):
                seq = int(line.split(b":", 1)[1])
            elif line.lower().startswith(b"content-length:"):
                length = int(line.split(b":", 1)[1])
        if length:
            await reader.readexactly(length)
        return seq

    # -- reporting -----------------------------------------------------
    def lag_summary(self) -> Dict[str, float]:
        """Scheduled-vs-actual send lag distribution (seconds and mean
        inter-arrival gaps) — the coordinated-omission evidence."""
        mean_gap_s = 1.0 / self.arrival.rate_rps
        lags = np.asarray(self._lags, dtype=float)
        if lags.size == 0:
            return {
                "n": 0,
                "mean_gap_s": mean_gap_s,
                "max_lag_s": 0.0,
                "mean_lag_s": 0.0,
                "p99_lag_s": 0.0,
                "max_lag_gaps": 0.0,
                "p99_lag_gaps": 0.0,
                "late_fraction": 0.0,
            }
        p99 = float(np.quantile(lags, 0.99))
        return {
            "n": int(lags.size),
            "mean_gap_s": mean_gap_s,
            "max_lag_s": float(lags.max()),
            "mean_lag_s": float(lags.mean()),
            "p99_lag_s": p99,
            "max_lag_gaps": float(lags.max()) / mean_gap_s,
            "p99_lag_gaps": p99 / mean_gap_s,
            "late_fraction": float(np.mean(lags > LATE_GAP_FACTOR * mean_gap_s)),
        }

    def report(self, client_utilization: float = 0.0):
        return self.recorder.report(
            requests_sent=self.sent,
            # Per-core accounting is not observable from here; the
            # driver-level process CPU fraction (client_probe) is the
            # best available stand-in and is what the saturation guard
            # audits.
            client_utilization=client_utilization,
        )


# ----------------------------------------------------------------------
# the shared driver core (in-process run of a set of assignments)
# ----------------------------------------------------------------------
async def drive_assignments(
    spec,
    options: LiveOptions,
    assignments: Sequence[InstanceAssignment],
    on_heartbeat=None,
) -> Tuple[List[_LiveInstance], _Health, List[float]]:
    """Run ``assignments`` to completion inside this process's loop.

    The machinery behind both the single-process driver
    (:class:`_LiveRun`) and one fleet client process
    (:mod:`repro.live.clientproc`): health probe each distinct
    endpoint, stand the instances up on the shared RNG registry, and
    supervise them with the stall-escalation watchdog and the
    event-loop lag probe.  ``on_heartbeat(instances, loop_lags)`` is
    invoked every ``heartbeat_interval_s`` when given — the client
    process uses it to stream progress + partial recorder state to its
    supervisor.
    """
    if not assignments:
        raise ValueError("no instance assignments to drive")
    loop = asyncio.get_running_loop()
    progress = _Progress(loop.time())
    targets = sorted({a.target for a in assignments})
    health = _Health(
        connections=sum(a.connections for a in assignments),
        max_lost_fraction=options.max_lost_connection_fraction,
        target=", ".join(targets),
    )
    endpoints = [parse_target(t) for t in targets]
    if options.health_probe:
        for (_proto, host, port), target in zip(endpoints, targets):
            try:
                await _probe_connect(host, port, options.connect_timeout_s)
            except LiveMeasurementError as exc:
                raise LiveMeasurementError(
                    f"pre-measurement health probe failed for {target}: {exc}"
                ) from exc
    # Same per-run seeding as the simulated benches: repeated runs are
    # independent experiments drawn from (seed, run_index).
    rng = registry_for_spec(spec)
    instances = [
        _LiveInstance(a, spec, rng, options, progress, health)
        for a in assignments
    ]
    loop_lags: List[float] = []

    async def lag_probe() -> None:
        # Sleep-overshoot sampling: how late does the loop wake a
        # timer?  Saturated clients overshoot by many send gaps.
        while True:
            t_before = loop.time()
            await asyncio.sleep(_LAG_PROBE_INTERVAL_S)
            loop_lags.append(
                max(0.0, loop.time() - t_before - _LAG_PROBE_INTERVAL_S)
            )

    async def heartbeat() -> None:
        while True:
            await asyncio.sleep(options.heartbeat_interval_s)
            on_heartbeat(instances, loop_lags)

    async def watchdog() -> None:
        # The stall-escalation ladder: warn -> probe -> abort.
        abort_s = options.progress_timeout_s
        probe_s = min(options.stall_probe_s, abort_s)
        warn_s = min(options.stall_warn_s, probe_s)
        interval = min(max(warn_s / 4.0, 0.01), 0.5)
        seen = progress.last
        warned = probed = False
        # Start offsets delay first progress legitimately; give the
        # ladder the same grace.
        max_start = max((a.start_s for a in assignments), default=0.0)
        if max_start:
            await asyncio.sleep(max_start)
            progress.last = max(progress.last, loop.time())
        while True:
            await asyncio.sleep(interval)
            if progress.last != seen:
                seen = progress.last
                warned = probed = False
            idle = loop.time() - progress.last
            if idle >= abort_s:
                raise LiveMeasurementError(
                    f"no response progress from {health.target} for "
                    f"{abort_s:.1f}s; aborting instead of hanging "
                    f"(stall ladder: warned={warned}, probed={probed})"
                )
            if idle >= probe_s and not probed:
                probed = True
                health.mid_run_probes += 1
                for (_proto, host, port), target in zip(endpoints, targets):
                    try:
                        await _probe_connect(
                            host,
                            port,
                            min(options.connect_timeout_s, max(abort_s - idle, 0.1)),
                        )
                    except LiveMeasurementError as exc:
                        raise LiveMeasurementError(
                            f"endpoint {target} failed the mid-stall "
                            f"health probe after {idle:.1f}s without "
                            f"progress: {exc}"
                        ) from exc
                health.event("stall-probe-ok", f"idle {idle:.2f}s")
            elif idle >= warn_s and not warned:
                warned = True
                health.stall_warnings += 1
                health.event("stall-warn", f"idle {idle:.2f}s")

    body = asyncio.ensure_future(
        asyncio.gather(*(inst.run() for inst in instances))
    )
    guard = loop.create_task(watchdog())
    lag_task = loop.create_task(lag_probe())
    extra = [loop.create_task(heartbeat())] if on_heartbeat is not None else []
    try:
        done, _ = await asyncio.wait(
            [body, guard], return_when=asyncio.FIRST_COMPLETED
        )
        for t in done:
            exc = t.exception()
            if exc is not None:
                raise exc
    finally:
        for t in (body, guard, lag_task, *extra):
            t.cancel()
        await asyncio.gather(body, guard, lag_task, *extra, return_exceptions=True)
    return instances, health, loop_lags


def build_live_result(
    spec,
    reports,
    *,
    health_summary: Dict[str, object],
    send_lag: Dict[str, Dict[str, float]],
    client_probe: Dict[str, float],
    wall_s: float,
    send_log=None,
):
    """Assemble the RunResult every live execution shape returns.

    One merge path for the single-process driver and the fleet
    supervisor keeps the kill-test invariant checkable: metrics are a
    pure function of the surviving reports (the paper's per-instance-
    then-combine rule), so a fleet merge over the surviving slices
    equals the single-process aggregation over the same reports.
    """
    from ..core.aggregation import aggregate_quantile, grouped_quantiles
    from ..exec.spec import RunResult, metric_samples

    samples_by_client = {r.name: metric_samples(r) for r in reports}
    metrics = {
        q: aggregate_quantile(samples_by_client, q, combine=spec.combine)
        for q in spec.quantiles
    }
    group_metrics = None
    if getattr(spec, "scenario", None) is not None:
        group_metrics = grouped_quantiles(
            samples_by_client,
            {r.name: r.group for r in reports},
            spec.quantiles,
            combine=spec.combine,
        )
    result = RunResult(
        run_index=spec.run_index,
        reports=list(reports),
        metrics=metrics,
        # Not observable from the client side of a live endpoint.
        server_utilization=float("nan"),
        # Per-core client utilization is a sim-model quantity; the
        # live stand-in (process CPU fraction) rides client_probe.
        client_utilizations={r.name: r.client_utilization for r in reports},
        spec_digest=spec.digest(),
        wall_s=wall_s,
        events_processed=0,
        group_metrics=group_metrics,
    )
    # Guard evidence channels (annotations, not RunResult fields:
    # sim runs never carry them).
    result.client_probe = client_probe
    result.send_lag = send_lag
    result.live_health = health_summary
    if send_log is not None:
        result.send_log = send_log
    return result


class _LiveRun:
    """One prepared single-process live experiment (``MeasurementRun``)."""

    def __init__(self, spec, options: LiveOptions, assignments):
        self.spec = spec
        self.options = options
        self.assignments = assignments

    def drive(self):
        spec = self.spec
        t0 = time.perf_counter()
        cpu0 = time.process_time()
        instances, health, loop_lags = asyncio.run(
            drive_assignments(spec, self.options, self.assignments)
        )
        wall_s = max(time.perf_counter() - t0, 1e-9)
        cpu_fraction = min(1.0, (time.process_time() - cpu0) / wall_s)
        reports = [inst.report() for inst in instances]
        total_rate = sum(a.rate_rps for a in self.assignments)
        lag_arr = np.asarray(loop_lags, dtype=float)
        send_log = None
        if self.options.record_send_log:
            # Full offered-rate audit trail for coordinated-omission
            # deep dives (the always-on summary lives in send_lag).
            send_log = {
                inst.name: {
                    "scheduled": np.asarray(inst.scheduled_ts),
                    "actual": np.asarray(inst.actual_ts),
                }
                for inst in instances
            }
        return build_live_result(
            spec,
            reports,
            health_summary=health.summary(),
            send_lag={inst.name: inst.lag_summary() for inst in instances},
            client_probe={
                "cpu_fraction": cpu_fraction,
                "loop_lag_p99_s": float(np.quantile(lag_arr, 0.99)) if lag_arr.size else 0.0,
                "loop_lag_max_s": float(lag_arr.max()) if lag_arr.size else 0.0,
                "mean_gap_s": 1.0 / total_rate,
            },
            wall_s=wall_s,
            send_log=send_log,
        )


class LiveBackend:
    """Measurement backend ``"live"`` (wall-clock, never cached)."""

    def __init__(self, options: Optional[LiveOptions] = None):
        self.options = options if options is not None else LiveOptions()

    def prepare(self, spec):
        assignments = assignments_for_spec(spec, self.options)
        if self.options.processes > 1:
            from .fleet import FleetRun  # lazy: subprocess plumbing

            return FleetRun(spec, self.options, assignments)
        return _LiveRun(spec, self.options, assignments)

    def capabilities(self):
        from ..measure.api import BenchCapabilities

        return BenchCapabilities(
            backend="live",
            deterministic=False,
            wall_clock=True,
            fault_hookable=True,
            # Scenario topologies (N fleets x M pools) are realized
            # against M real endpoints via LiveOptions.pool_targets.
            scenarios=True,
            utilization_targeting=False,
            guard_evidence=True,
        )

    def close(self) -> None:
        return None


def ping(target: str, timeout_s: float = 5.0) -> float:
    """Round-trip a PING to ``target``; returns the RTT in seconds.

    Raises :class:`LiveMeasurementError` on refusal, timeout, or an
    unexpected reply — the ``repro live ping`` smoke check.
    """
    _proto, host, port = parse_target(target)

    async def _go() -> float:
        loop = asyncio.get_running_loop()
        try:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(host, port), timeout_s
            )
        except (OSError, asyncio.TimeoutError) as exc:
            raise LiveMeasurementError(
                f"cannot connect to {target}: {exc}"
            ) from exc
        try:
            t0 = loop.time()
            writer.write(PING)
            await writer.drain()
            line = await asyncio.wait_for(reader.readline(), timeout_s)
            if line.strip() != b"PONG":
                raise LiveMeasurementError(
                    f"unexpected ping reply from {target}: {line!r}"
                )
            return loop.time() - t0
        except asyncio.TimeoutError as exc:
            raise LiveMeasurementError(
                f"no PONG from {target} within {timeout_s:.1f}s"
            ) from exc
        finally:
            writer.close()

    return asyncio.run(_go())


def _register() -> None:
    from ..measure.api import register_measurement_backend

    register_measurement_backend(
        "live",
        lambda options: LiveBackend(options),
        LiveOptions,
        summary="wall-clock asyncio open-loop driver for real endpoints "
        "(self-healing, multi-process fleet, never cached)",
    )


_register()
