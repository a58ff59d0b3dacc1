"""The declarative scenario schema.

A :class:`ScenarioSpec` is a frozen, content-digestable description of
one N-client-fleet x M-server-pool load-testing topology:

* **server pools** — homogeneous groups of
  :class:`~repro.sim.machine.ServerMachine` hosts (per-pool workload,
  hardware, rack placement, access link);
* **client fleets** — groups of Treadmill instances targeting one
  pool, each fleet with its own offered load, arrival process, rack,
  sample budget, and start delay;
* **antagonists** — colocated background processes pinned to one
  socket of a pool's servers (the noisy-neighbour interference model);
* **factors** — two-level factor definitions over any scenario field,
  expanded into a full factorial by the compiler
  (:mod:`repro.scenarios.compiler`) for per-(fleet, pool) attribution.

Workload / hardware / arrival / link / spine values are carried as
plain JSON-level dicts, not constructed objects: the spec round-trips
through JSON byte-for-byte, diffs cleanly in version control, and the
objects are built exactly once at run time by the loaders in
:mod:`repro.core.config` and :mod:`repro.scenarios.config`.  All
numeric fields are coerced on construction so a JSON ``80000`` and a
Python ``80000.0`` produce the same content digest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

__all__ = [
    "SCENARIO_SCHEMA",
    "ServerPoolSpec",
    "ClientFleetSpec",
    "AntagonistSpec",
    "ScenarioFactor",
    "ScenarioSpec",
]

#: Bump when the meaning of a scenario field changes; recorded in every
#: serialized scenario and checked by the loader.
SCENARIO_SCHEMA = 1


def _freeze_dict(value: Optional[Mapping]) -> Optional[Dict]:
    if value is None:
        return None
    if not isinstance(value, Mapping):
        raise ValueError(f"expected a mapping, got {type(value).__name__}")
    return dict(value)


@dataclass(frozen=True)
class ServerPoolSpec:
    """A homogeneous group of server hosts under test."""

    name: str
    #: Workload configuration dict (``repro.core.config.workload_from_json``).
    workload: Mapping
    #: Number of identical servers in the pool.
    count: int = 1
    #: Rack the whole pool is placed in.
    rack: str = "rack0"
    #: Optional hardware override dict (``hardware_from_json``); None
    #: keeps the default :class:`~repro.sim.machine.HardwareSpec`.
    hardware: Optional[Mapping] = None
    #: Optional access-link override dict (LinkConfig fields).
    link: Optional[Mapping] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("pool name must be non-empty")
        object.__setattr__(self, "count", int(self.count))
        if self.count < 1:
            raise ValueError(f"pool {self.name!r}: count must be >= 1")
        object.__setattr__(self, "workload", _freeze_dict(self.workload))
        if not self.workload:
            raise ValueError(f"pool {self.name!r}: workload config required")
        object.__setattr__(self, "hardware", _freeze_dict(self.hardware))
        object.__setattr__(self, "link", _freeze_dict(self.link))


@dataclass(frozen=True)
class ClientFleetSpec:
    """A group of Treadmill instances driving one server pool.

    Exactly one of ``rate_rps`` (the fleet's total offered load) /
    ``target_utilization`` (the per-server utilization this fleet's
    load alone would drive its pool to) must be set — the same
    exclusivity rule as :class:`~repro.exec.spec.RunSpec`.
    """

    name: str
    #: Name of the server pool this fleet targets.
    target: str
    instances: int = 2
    connections_per_instance: int = 8
    rate_rps: Optional[float] = None
    target_utilization: Optional[float] = None
    #: Rack placement; None colocates the fleet with its target pool.
    rack: Optional[str] = None
    #: Optional arrival-process dict (``arrival_from_spec`` vocabulary,
    #: without ``rate_rps`` — the per-instance rate is injected by the
    #: runtime).  None means Poisson at the per-instance rate.
    arrival: Optional[Mapping] = None
    warmup_samples: int = 300
    measurement_samples_per_instance: int = 5_000
    #: Virtual-time delay before the fleet begins sending (load shift,
    #: flash crowd); 0 starts immediately.
    start_us: float = 0.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("fleet name must be non-empty")
        if not self.target:
            raise ValueError(f"fleet {self.name!r}: target pool required")
        object.__setattr__(self, "instances", int(self.instances))
        object.__setattr__(
            self, "connections_per_instance", int(self.connections_per_instance)
        )
        object.__setattr__(self, "warmup_samples", int(self.warmup_samples))
        object.__setattr__(
            self,
            "measurement_samples_per_instance",
            int(self.measurement_samples_per_instance),
        )
        object.__setattr__(self, "start_us", float(self.start_us))
        if self.rate_rps is not None:
            object.__setattr__(self, "rate_rps", float(self.rate_rps))
        if self.target_utilization is not None:
            object.__setattr__(
                self, "target_utilization", float(self.target_utilization)
            )
        if (self.rate_rps is None) == (self.target_utilization is None):
            raise ValueError(
                f"fleet {self.name!r}: set exactly one of rate_rps / "
                "target_utilization"
            )
        if self.instances < 1:
            raise ValueError(f"fleet {self.name!r}: instances must be >= 1")
        if self.connections_per_instance < 1:
            raise ValueError(
                f"fleet {self.name!r}: connections_per_instance must be >= 1"
            )
        if self.measurement_samples_per_instance < 1:
            raise ValueError(
                f"fleet {self.name!r}: measurement_samples_per_instance must be >= 1"
            )
        if self.start_us < 0:
            raise ValueError(f"fleet {self.name!r}: start_us must be non-negative")
        object.__setattr__(self, "arrival", _freeze_dict(self.arrival))
        if self.arrival is not None and "rate_rps" in self.arrival:
            raise ValueError(
                f"fleet {self.name!r}: arrival dict must not set rate_rps "
                "(the runtime injects the per-instance rate)"
            )


@dataclass(frozen=True)
class AntagonistSpec:
    """A colocated background process on one socket of a pool's hosts."""

    name: str
    #: Pool whose servers host the antagonist.
    pool: str
    #: Index of the single server to colocate on; None means every
    #: server of the pool runs its own antagonist.
    server: Optional[int] = None
    socket: int = 0
    #: Burst rate; 0 disables (the natural "off" factor level).
    rate_rps: float = 2_000.0
    work_us: float = 50.0
    fixed_us: float = 0.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("antagonist name must be non-empty")
        if not self.pool:
            raise ValueError(f"antagonist {self.name!r}: pool required")
        if self.server is not None:
            object.__setattr__(self, "server", int(self.server))
            if self.server < 0:
                raise ValueError(f"antagonist {self.name!r}: server must be >= 0")
        object.__setattr__(self, "socket", int(self.socket))
        object.__setattr__(self, "rate_rps", float(self.rate_rps))
        object.__setattr__(self, "work_us", float(self.work_us))
        object.__setattr__(self, "fixed_us", float(self.fixed_us))
        if self.rate_rps < 0:
            raise ValueError(f"antagonist {self.name!r}: rate_rps must be >= 0")


@dataclass(frozen=True)
class ScenarioFactor:
    """A two-level factor over one scenario field.

    ``path`` addresses the field dotted from a named element —
    ``"antagonists.noisy.rate_rps"``,
    ``"pools.cache.hardware.cpu.turbo_enabled"``,
    ``"fleets.front.rate_rps"`` — or from the shared ``spine``.  The
    compiler substitutes ``low`` / ``high`` into the JSON form of the
    scenario and re-validates, so a factor can never reach a field the
    schema would reject.
    """

    name: str
    path: str
    low: object
    high: object

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("factor name must be non-empty")
        parts = self.path.split(".")
        section = parts[0]
        if section in ("pools", "fleets", "antagonists"):
            if len(parts) < 3:
                raise ValueError(
                    f"factor {self.name!r}: path {self.path!r} must be "
                    f"'{section}.<name>.<field...>'"
                )
        elif section == "spine":
            if len(parts) < 2:
                raise ValueError(
                    f"factor {self.name!r}: path {self.path!r} must be "
                    "'spine.<field>'"
                )
        else:
            raise ValueError(
                f"factor {self.name!r}: path must start with one of "
                f"pools/fleets/antagonists/spine, got {section!r}"
            )


@dataclass(frozen=True)
class ScenarioSpec:
    """One complete declarative scenario (see module docstring)."""

    name: str
    pools: Tuple[ServerPoolSpec, ...]
    fleets: Tuple[ClientFleetSpec, ...]
    antagonists: Tuple[AntagonistSpec, ...] = ()
    factors: Tuple[ScenarioFactor, ...] = ()
    #: Optional SpineConfig override dict for the cross-rack fabric.
    spine: Optional[Mapping] = None
    #: Independent runs per factor configuration.
    replications: int = 1
    quantiles: Tuple[float, ...] = (0.5, 0.95, 0.99)
    combine: str = "mean"
    keep_raw: bool = False
    seed: int = 0
    description: str = ""
    schema: int = SCENARIO_SCHEMA

    #: ``fault_plan`` (removed in 4.0) stays in the content digest at
    #: its old default, so every scenario RunSpec keeps its digest.
    _RETIRED_FIELDS = (("fault_plan", None),)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("scenario name must be non-empty")
        object.__setattr__(self, "pools", tuple(self.pools))
        object.__setattr__(self, "fleets", tuple(self.fleets))
        object.__setattr__(self, "antagonists", tuple(self.antagonists))
        object.__setattr__(self, "factors", tuple(self.factors))
        object.__setattr__(self, "spine", _freeze_dict(self.spine))
        object.__setattr__(self, "replications", int(self.replications))
        object.__setattr__(
            self, "quantiles", tuple(float(q) for q in self.quantiles)
        )
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "schema", int(self.schema))
        if int(self.schema) != SCENARIO_SCHEMA:
            raise ValueError(
                f"scenario {self.name!r}: schema {self.schema} != "
                f"supported {SCENARIO_SCHEMA}"
            )
        if not self.pools:
            raise ValueError(f"scenario {self.name!r}: at least one pool required")
        if not self.fleets:
            raise ValueError(f"scenario {self.name!r}: at least one fleet required")
        if self.replications < 1:
            raise ValueError(f"scenario {self.name!r}: replications must be >= 1")
        pool_names = [p.name for p in self.pools]
        if len(set(pool_names)) != len(pool_names):
            raise ValueError(f"scenario {self.name!r}: duplicate pool names")
        fleet_names = [f.name for f in self.fleets]
        if len(set(fleet_names)) != len(fleet_names):
            raise ValueError(f"scenario {self.name!r}: duplicate fleet names")
        if set(fleet_names) & set(pool_names):
            raise ValueError(
                f"scenario {self.name!r}: fleet and pool names must not "
                "overlap (host names are derived from them)"
            )
        pools_by_name = {p.name: p for p in self.pools}
        for f_ in self.fleets:
            if f_.target not in pools_by_name:
                raise ValueError(
                    f"scenario {self.name!r}: fleet {f_.name!r} targets "
                    f"unknown pool {f_.target!r} (have {sorted(pools_by_name)})"
                )
        antagonist_names = [a.name for a in self.antagonists]
        if len(set(antagonist_names)) != len(antagonist_names):
            raise ValueError(f"scenario {self.name!r}: duplicate antagonist names")
        for a in self.antagonists:
            if a.pool not in pools_by_name:
                raise ValueError(
                    f"scenario {self.name!r}: antagonist {a.name!r} names "
                    f"unknown pool {a.pool!r} (have {sorted(pools_by_name)})"
                )
            if a.server is not None and a.server >= pools_by_name[a.pool].count:
                raise ValueError(
                    f"scenario {self.name!r}: antagonist {a.name!r} server "
                    f"index {a.server} out of range for pool {a.pool!r} "
                    f"(count {pools_by_name[a.pool].count})"
                )
        factor_names = [f_.name for f_ in self.factors]
        if len(set(factor_names)) != len(factor_names):
            raise ValueError(f"scenario {self.name!r}: duplicate factor names")

    def pool(self, name: str) -> ServerPoolSpec:
        for p in self.pools:
            if p.name == name:
                return p
        raise KeyError(f"unknown pool {name!r}")

    def fleet(self, name: str) -> ClientFleetSpec:
        for f_ in self.fleets:
            if f_.name == name:
                return f_
        raise KeyError(f"unknown fleet {name!r}")

    @property
    def groups(self) -> Tuple[Tuple[str, str], ...]:
        """All (fleet, pool) grouping keys, in fleet order."""
        return tuple((f_.name, f_.target) for f_ in self.fleets)
