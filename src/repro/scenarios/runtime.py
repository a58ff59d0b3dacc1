"""Execute one scenario-carrying RunSpec.

:func:`_execute_scenario_spec` is the scenario counterpart of the
simulator backend's single-server body
(:mod:`repro.measure.simbackend`): boot every pool, stand up every
fleet's Treadmill instances, start antagonists, drive the shared
simulator to completion, and report — overall metrics via the paper's
per-instance-then-combine rule plus per-(fleet, pool)
``group_metrics``.  It is a pure function of the spec, so the
serial-vs-parallel bit-identity guarantee of the execution layer
extends to scenarios unchanged.  The ``fleet=``/``pool=`` labels each
instance report carries double as the guard layer's grouping key: the
aggregation-imbalance detector (:mod:`repro.guards.detectors`) audits
per-client sample shares both pooled and per ``(fleet, pool)`` scope,
and the per-instance guard tape (``phase_windows``/``warmup_tail``)
recorded by the shared :class:`~repro.core.treadmill.PhaseRecorder`
gives the drift detectors the same evidence here as on plain specs.
The simulator measurement backend calls it for every scenario-carrying
spec; callers use :func:`repro.run` or
:func:`repro.measure.measure_spec`.
"""

from __future__ import annotations

import time
from typing import Dict, List

from ..core.aggregation import aggregate_quantile, grouped_quantiles
from ..core.arrival import arrival_from_spec
from ..core.treadmill import TreadmillConfig, TreadmillInstance
from ..sim.partition import partition_for
from .bench import ScenarioBench
from .schema import ScenarioSpec


def _build_instances(spec, bench: ScenarioBench) -> List[TreadmillInstance]:
    """Stand up every fleet's Treadmill instances (construction order
    is a pure function of the scenario — all RNG streams ride on it)."""
    scenario: ScenarioSpec = spec.scenario
    instances: List[TreadmillInstance] = []
    for fleet in scenario.fleets:
        view = bench.fleet_view(fleet.name)
        rate_per_instance = bench.fleet_total_rate(fleet.name) / fleet.instances
        for i in range(fleet.instances):
            arrival = None
            if fleet.arrival is not None:
                arrival = arrival_from_spec(
                    {**dict(fleet.arrival), "rate_rps": rate_per_instance}
                )
            tm_cfg = TreadmillConfig(
                rate_rps=rate_per_instance,
                connections=fleet.connections_per_instance,
                warmup_samples=fleet.warmup_samples,
                measurement_samples=fleet.measurement_samples_per_instance,
                keep_raw=spec.keep_raw,
                arrival=arrival,
                start_us=fleet.start_us,
            )
            instances.append(
                TreadmillInstance(
                    view,
                    f"{fleet.name}{i}",
                    tm_cfg,
                    fleet=fleet.name,
                    pool=fleet.target,
                )
            )
    return instances


def _execute_scenario_spec(spec) -> "RunResult":
    """Execute one scenario experiment described by ``spec.scenario``.

    ``spec.partitions > 1`` shards the bench across per-rack
    sub-kernels (:func:`repro.sim.partition.partition_for`); the
    result is byte-identical either way.
    """
    from ..exec.spec import RunResult, metric_samples

    scenario: ScenarioSpec = spec.scenario
    if scenario is None:
        raise ValueError("a scenario run needs a scenario-carrying spec")
    t0 = time.perf_counter()
    bench = ScenarioBench(
        scenario,
        run_index=spec.run_index,
        partition=partition_for(scenario_hosts(scenario), spec.partitions),
    )
    instances = _build_instances(spec, bench)

    bench.start_antagonists()
    for inst in instances:
        inst.start()
    bench.run_to_completion(instances)

    reports = [inst.report() for inst in instances]
    server_utils: Dict[str, float] = {}
    for servers in bench.pools.values():
        for server in servers:
            server_utils[server.name] = server.measured_utilization()
    samples_by_client = {r.name: metric_samples(r) for r in reports}
    metrics = {
        q: aggregate_quantile(samples_by_client, q, combine=spec.combine)
        for q in spec.quantiles
    }
    group_metrics = grouped_quantiles(
        samples_by_client,
        {r.name: r.group for r in reports},
        spec.quantiles,
        combine=spec.combine,
    )
    return RunResult(
        run_index=spec.run_index,
        reports=reports,
        metrics=metrics,
        # One scalar slot for many servers: report the bottleneck (the
        # hottest server), which is what capacity reasoning needs.
        server_utilization=float(max(server_utils.values())),
        client_utilizations={
            name: client.utilization() for name, client in bench.clients.items()
        },
        spec_digest=spec.digest(),
        wall_s=time.perf_counter() - t0,
        events_processed=bench.events_processed,
        group_metrics=group_metrics,
    )


def scenario_hosts(scenario: ScenarioSpec) -> List[tuple]:
    """Every scenario host as ``(name, rack)`` in construction order
    (pool servers first, then fleet clients) — the input to
    :func:`repro.sim.partition.assign_shards`."""
    hosts = []
    for pool in scenario.pools:
        for i in range(pool.count):
            hosts.append((f"{pool.name}{i}", pool.rack))
    for fleet in scenario.fleets:
        rack = fleet.rack
        if rack is None:
            rack = scenario.pool(fleet.target).rack
        for i in range(fleet.instances):
            hosts.append((f"{fleet.name}{i}", rack))
    return hosts
