"""Compile a declarative scenario into executable RunSpecs.

``compile_scenario(spec) -> list[RunSpec]`` expands the scenario's
two-level factor matrix into a full factorial, crosses it with the
replication count, and emits one frozen
:class:`~repro.exec.spec.RunSpec` per (configuration, replication).
The emitted specs flow through the existing execution layer —
executors, result cache, fault injection — completely unchanged: a
scenario is just a different way of *describing* independent
experiments, not a new way of running them.

**Degenerate lowering (the bit-identity guarantee).**  A scenario with
one fleet, one single-server pool, and none of the multi-pool
machinery (antagonists, start delays, custom arrivals, spine/link
overrides, cross-rack placement) describes exactly what a plain
``RunSpec`` already describes.  The compiler detects this and lowers
it to a plain ``RunSpec`` with ``scenario=None`` — same digest, same
cache key, bit-identical result as direct configuration.  The
multi-pool runtime never touches the legacy path; the guarantee holds
by construction and is pinned by the golden-digest test.

Replications use **common random numbers**: replication ``r`` of every
factor configuration shares ``run_index=r``, so paired comparisons
across configurations difference out run-to-run noise (the same
variance-reduction the attribution sweep relies on).
"""

from __future__ import annotations

import itertools
from typing import List, Sequence, Tuple

from ..core.config import hardware_from_json, workload_from_json
from ..exec.spec import RunSpec
from ..sim.machine import HardwareSpec
from .config import scenario_from_json, scenario_to_jsonable
from .schema import ScenarioFactor, ScenarioSpec

__all__ = [
    "apply_factor_levels",
    "is_degenerate",
    "lower_degenerate",
    "expand_scenario",
    "compile_scenario",
]


def _apply_factor(doc: dict, factor: ScenarioFactor, value: object) -> None:
    """Substitute one factor level into the scenario's JSON form."""
    parts = factor.path.split(".")
    section = parts[0]
    if section in ("pools", "fleets", "antagonists"):
        name = parts[1]
        for item in doc.get(section) or []:
            if item.get("name") == name:
                target = item
                break
        else:
            raise ValueError(
                f"factor {factor.name!r}: no {section} element named {name!r}"
            )
        rest = parts[2:]
    else:  # "spine" — the schema admits nothing else
        if doc.get("spine") is None:
            doc["spine"] = {}
        target = doc["spine"]
        rest = parts[1:]
    for key in rest[:-1]:
        nxt = target.get(key)
        if not isinstance(nxt, dict):
            nxt = {}
            target[key] = nxt
        target = nxt
    target[rest[-1]] = value


def apply_factor_levels(
    spec: ScenarioSpec, coded: Sequence[int]
) -> ScenarioSpec:
    """The scenario variant at one coded factor configuration.

    Levels substitute into the JSON document form and the result is
    re-validated by the loader, so a factor can only ever produce
    scenarios the schema accepts.  The variant carries no factors of
    its own (they are resolved) and inherits everything else.
    """
    if len(coded) != len(spec.factors):
        raise ValueError(
            f"expected {len(spec.factors)} coded levels, got {len(coded)}"
        )
    doc = scenario_to_jsonable(spec)
    doc.pop("factors", None)
    for factor, level in zip(spec.factors, coded):
        if level not in (0, 1):
            raise ValueError("coded levels must be 0 or 1")
        _apply_factor(doc, factor, factor.high if level else factor.low)
    return scenario_from_json(doc)


def is_degenerate(spec: ScenarioSpec) -> bool:
    """True when the scenario is expressible as a plain RunSpec.

    Every condition mirrors a default of the legacy single-server
    path; any deviation keeps the scenario on the multi-pool runtime.
    """
    if len(spec.pools) != 1 or len(spec.fleets) != 1:
        return False
    pool, fleet = spec.pools[0], spec.fleets[0]
    return (
        pool.count == 1
        and pool.link is None
        and not spec.antagonists
        and not spec.factors
        and spec.spine is None
        and fleet.arrival is None
        and fleet.start_us == 0.0
        and fleet.rack in (None, pool.rack)
    )


def lower_degenerate(
    spec: ScenarioSpec, run_index: int = 0, tag: str = ""
) -> RunSpec:
    """Lower a degenerate scenario to the plain RunSpec it denotes."""
    if not is_degenerate(spec):
        raise ValueError(f"scenario {spec.name!r} is not degenerate")
    pool, fleet = spec.pools[0], spec.fleets[0]
    hardware = (
        hardware_from_json(dict(pool.hardware))
        if pool.hardware is not None
        else HardwareSpec()
    )
    return RunSpec(
        workload=workload_from_json(dict(pool.workload)),
        hardware=hardware,
        total_rate_rps=fleet.rate_rps,
        target_utilization=fleet.target_utilization,
        num_instances=fleet.instances,
        connections_per_instance=fleet.connections_per_instance,
        warmup_samples=fleet.warmup_samples,
        measurement_samples_per_instance=fleet.measurement_samples_per_instance,
        quantiles=spec.quantiles,
        combine=spec.combine,
        keep_raw=spec.keep_raw,
        seed=spec.seed,
        run_index=run_index,
        tag=tag,
    )


def auto_partitions(spec: ScenarioSpec) -> "int | None":
    """Partition count implied by the rack topology: one sub-kernel
    per distinct rack when the scenario spans several racks, else None
    (serial).  The rack split is exactly the grouping whose minimum
    cross-partition propagation delay the network exposes as the
    conservative lookahead, so it is the natural sharding.

    Opt-in only: compiled specs run on the plain kernel, which is
    faster on every library scenario.  Pass the count as
    ``RunSpec.partitions`` to shard a run (results are identical)."""
    racks = {pool.rack for pool in spec.pools}
    for fleet in spec.fleets:
        if fleet.rack is not None:
            racks.add(fleet.rack)
        else:
            racks.add(spec.pool(fleet.target).rack)
    return len(racks) if len(racks) > 1 else None


def expand_scenario(
    spec: ScenarioSpec,
) -> List[Tuple[Tuple[int, ...], int, RunSpec]]:
    """The full (coded configuration, run_index, RunSpec) expansion.

    One entry per factor configuration per replication, in factorial
    order — ``compile_scenario`` strips the labels, the scenario
    attribution study keeps them.
    """
    out: List[Tuple[Tuple[int, ...], int, RunSpec]] = []
    level_sets = [(0, 1)] * len(spec.factors)
    for coded in itertools.product(*level_sets):
        variant = apply_factor_levels(spec, coded) if spec.factors else spec
        for r in range(spec.replications):
            cfg_label = f" cfg={coded}" if spec.factors else ""
            tag = f"{spec.name}{cfg_label} rep={r}"
            if is_degenerate(variant):
                run = lower_degenerate(variant, run_index=r, tag=tag)
            else:
                run = RunSpec(
                    workload=workload_from_json(dict(variant.pools[0].workload)),
                    num_instances=sum(f.instances for f in variant.fleets),
                    quantiles=variant.quantiles,
                    combine=variant.combine,
                    keep_raw=variant.keep_raw,
                    seed=variant.seed,
                    run_index=r,
                    tag=tag,
                    scenario=variant,
                )
            out.append((coded, r, run))
    return out


def compile_scenario(spec: ScenarioSpec) -> List[RunSpec]:
    """Compile to plain RunSpecs (factor matrix x replications)."""
    return [run for _, _, run in expand_scenario(spec)]
