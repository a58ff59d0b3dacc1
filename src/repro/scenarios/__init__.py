"""Declarative scenarios: N-fleet x M-pool topologies compiled to RunSpecs.

The scenario layer sits *above* the execution layer: a
:class:`~repro.scenarios.schema.ScenarioSpec` declares client fleets,
server pools, placement, antagonists, and factor levels;
:func:`~repro.scenarios.compiler.compile_scenario` expands it into
frozen :class:`~repro.exec.spec.RunSpec` values that flow through the
existing executors and result cache unchanged.  Degenerate 1x1
scenarios lower to plain RunSpecs bit-identically to direct
configuration (see the compiler module docstring).
"""

from .attribution import ScenarioAttributionStudy, group_experiment_samples
from .bench import ScenarioBench
from .compiler import (
    apply_factor_levels,
    compile_scenario,
    expand_scenario,
    is_degenerate,
    lower_degenerate,
)
from .config import (
    link_from_json,
    scenario_from_json,
    scenario_to_json,
    scenario_to_jsonable,
    spine_from_json,
)
from .library import list_scenarios, load_scenario
from .schema import (
    SCENARIO_SCHEMA,
    AntagonistSpec,
    ClientFleetSpec,
    ScenarioFactor,
    ScenarioSpec,
    ServerPoolSpec,
)

__all__ = [
    "SCENARIO_SCHEMA",
    "ScenarioSpec",
    "ServerPoolSpec",
    "ClientFleetSpec",
    "AntagonistSpec",
    "ScenarioFactor",
    "scenario_from_json",
    "scenario_to_json",
    "scenario_to_jsonable",
    "link_from_json",
    "spine_from_json",
    "apply_factor_levels",
    "compile_scenario",
    "expand_scenario",
    "is_degenerate",
    "lower_degenerate",
    "ScenarioBench",
    "ScenarioAttributionStudy",
    "group_experiment_samples",
    "list_scenarios",
    "load_scenario",
]
