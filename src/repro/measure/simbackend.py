"""The simulator measurement backend ("sim").

The library's original execution semantics, behind the
:class:`~repro.measure.api.MeasurementBackend` protocol:
one spec == one of the paper's independent runs == one fresh
:class:`~repro.core.bench.TestBench` boot in virtual time.  Scenario
specs route through the multi-pool scenario runtime.

This backend is the determinism anchor of the library — equal spec ⇒
bit-identical result in any process — which is why it alone declares
``deterministic=True`` and participates in the result cache and the
serial-vs-parallel identity gates.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..core.aggregation import aggregate_quantile
from ..core.bench import BenchConfig, TestBench
from ..core.treadmill import TreadmillConfig, TreadmillInstance
from ..sim.engine import gc_paused
from ..sim.partition import partition_for
from .api import BenchCapabilities, register_measurement_backend

__all__ = ["SimOptions", "SimBackend"]


@dataclass(frozen=True)
class SimOptions:
    """Options for the simulator backend (none today).

    Everything that influences a simulated *result* must live in the
    :class:`~repro.exec.spec.RunSpec` content digest, or equal specs
    would stop implying equal results and the cache contract would
    break; the class exists so the backend registry sees the same
    options contract for every backend.
    """


class _SimRun:
    """One prepared simulator experiment (``MeasurementRun``)."""

    def __init__(self, spec, options: "SimOptions | None" = None) -> None:
        self.spec = spec
        self.options = options if options is not None else SimOptions()

    def drive(self):
        # Pause the collector from build to RunResult: the finished
        # bench is one large cyclic graph, and a collection mid-build
        # would promote it to the old generation, where it waits for a
        # rare full pass.  Kept young, it is freed by the next gen-0
        # collection after the run.
        spec = self.spec
        with gc_paused():
            if spec.scenario is not None:
                from ..scenarios.runtime import _execute_scenario_spec

                return _execute_scenario_spec(spec)
            return _drive_single_server(spec)


class SimBackend:
    """Virtual-time discrete-event backend (the historical semantics)."""

    def __init__(self, options: SimOptions | None = None) -> None:
        self.options = options if options is not None else SimOptions()

    def prepare(self, spec) -> _SimRun:
        return _SimRun(spec, self.options)

    def capabilities(self) -> BenchCapabilities:
        return BenchCapabilities(
            backend="sim",
            deterministic=True,
            wall_clock=False,
            fault_hookable=False,
            scenarios=True,
            utilization_targeting=True,
            # The guard tape (windowed phase summaries, warm-up tail,
            # mechanistic client utilizations) rides every sim report.
            guard_evidence=True,
        )

    def close(self) -> None:  # stateless; nothing to release
        return None


def build_single_server(spec):
    """Boot the bench and start every Treadmill instance of ``spec``.

    ``spec.partitions > 1`` shards the bench across sub-kernels: the
    server and clients share one rack, so the split is within-rack
    (:func:`repro.sim.partition.assign_shards`).  Returns
    ``(bench, instances)`` ready for ``bench.run_to_completion``.
    """
    config = BenchConfig(workload=spec.workload, hardware=spec.hardware, seed=spec.seed)
    hosts = [(config.server_name, config.server_rack)]
    hosts += [(f"client{i}", config.server_rack) for i in range(spec.num_instances)]
    bench = TestBench(
        config,
        run_index=spec.run_index,
        partition=partition_for(hosts, spec.partitions),
    )
    if spec.total_rate_rps is not None:
        total_rate = spec.total_rate_rps
    else:
        per_us = bench.server.arrival_rate_for_utilization(spec.target_utilization)
        total_rate = per_us * 1e6
    rate_per_instance = total_rate / spec.num_instances
    instances = []
    for i in range(spec.num_instances):
        tm_cfg = TreadmillConfig(
            rate_rps=rate_per_instance,
            connections=spec.connections_per_instance,
            warmup_samples=spec.warmup_samples,
            measurement_samples=spec.measurement_samples_per_instance,
            keep_raw=spec.keep_raw,
        )
        instances.append(TreadmillInstance(bench, f"client{i}", tm_cfg))
    for inst in instances:
        inst.start()
    return bench, instances


def single_server_result(spec, bench, instances, wall_s: float):
    """Aggregate a finished single-server bench into its RunResult."""
    from ..exec.spec import RunResult, metric_samples

    reports = [inst.report() for inst in instances]
    samples_by_client = {r.name: metric_samples(r) for r in reports}
    metrics = {
        q: aggregate_quantile(samples_by_client, q, combine=spec.combine)
        for q in spec.quantiles
    }
    return RunResult(
        run_index=spec.run_index,
        reports=reports,
        metrics=metrics,
        server_utilization=bench.server.measured_utilization(),
        client_utilizations={
            name: client.utilization() for name, client in bench.clients.items()
        },
        spec_digest=spec.digest(),
        wall_s=wall_s,
        events_processed=bench.events_processed,
    )


def _drive_single_server(spec):
    """The single-server body: boot, load, measure, report.

    Pure function of ``spec``: same spec, same result, in any process
    (the serial-vs-parallel determinism guarantee rests here), and at
    any ``spec.partitions``.
    """
    t0 = time.perf_counter()
    bench, instances = build_single_server(spec)
    bench.run_to_completion(instances)
    return single_server_result(spec, bench, instances, time.perf_counter() - t0)


register_measurement_backend(
    "sim",
    lambda options: SimBackend(options),
    SimOptions,
    summary="virtual-time discrete-event bench (deterministic, cacheable)",
)
