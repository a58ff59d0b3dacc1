"""Scenario JSON loading and serialization.

:func:`scenario_from_json` builds a validated
:class:`~repro.scenarios.schema.ScenarioSpec` from a dict, a JSON
string, or a file path; :func:`scenario_to_jsonable` is its exact
inverse (load(dump(spec)) == spec, digest and all — the round-trip the
config tests pin down).  Validation is strict at every level via
:func:`repro.core.config.require_known_keys`: an unknown or misspelt
key raises a :class:`ValueError` naming the bad key and its nearest
valid neighbour, never a silent ignore.

The nested workload / hardware / arrival / link / spine dicts are
validated here by running them through their real loaders once, then
carried as plain dicts inside the spec (see the schema module
docstring for why).
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Dict, Optional, Union

from ..core.arrival import arrival_from_spec
from ..core.config import (
    hardware_from_json,
    load_json,
    require_known_keys,
    workload_from_json,
)
from ..sim.network import LinkConfig, SpineConfig
from .schema import (
    AntagonistSpec,
    ClientFleetSpec,
    ScenarioFactor,
    ScenarioSpec,
    ServerPoolSpec,
)

__all__ = [
    "scenario_from_json",
    "scenario_to_jsonable",
    "scenario_to_json",
    "link_from_json",
    "spine_from_json",
]


def link_from_json(source: Union[str, Path, Dict]) -> LinkConfig:
    """Build a :class:`~repro.sim.network.LinkConfig` from JSON (strict)."""
    cfg = dict(load_json(source))
    require_known_keys(
        "link configuration", cfg, [f.name for f in dataclasses.fields(LinkConfig)]
    )
    return LinkConfig(**cfg)


def spine_from_json(source: Union[str, Path, Dict]) -> SpineConfig:
    """Build a :class:`~repro.sim.network.SpineConfig` from JSON (strict)."""
    cfg = dict(load_json(source))
    require_known_keys(
        "spine configuration", cfg, [f.name for f in dataclasses.fields(SpineConfig)]
    )
    return SpineConfig(**cfg)


def _fields(cls) -> list:
    return [f.name for f in dataclasses.fields(cls)]


def _build_pool(cfg: Dict) -> ServerPoolSpec:
    cfg = dict(cfg)
    context = f"pool {cfg.get('name', '?')!r} configuration"
    require_known_keys(context, cfg, _fields(ServerPoolSpec))
    pool = ServerPoolSpec(**cfg)
    # Validate the nested dicts by building the real objects once; the
    # spec keeps the dict form.
    workload_from_json(dict(pool.workload))
    if pool.hardware is not None:
        hardware_from_json(dict(pool.hardware))
    if pool.link is not None:
        link_from_json(dict(pool.link))
    return pool


def _build_fleet(cfg: Dict) -> ClientFleetSpec:
    cfg = dict(cfg)
    context = f"fleet {cfg.get('name', '?')!r} configuration"
    require_known_keys(context, cfg, _fields(ClientFleetSpec))
    fleet = ClientFleetSpec(**cfg)
    if fleet.arrival is not None:
        # Validate with a placeholder rate (the runtime injects the
        # real per-instance rate).
        arrival_from_spec({**dict(fleet.arrival), "rate_rps": 1000.0})
    return fleet


def _build_antagonist(cfg: Dict) -> AntagonistSpec:
    cfg = dict(cfg)
    context = f"antagonist {cfg.get('name', '?')!r} configuration"
    require_known_keys(context, cfg, _fields(AntagonistSpec))
    return AntagonistSpec(**cfg)


def _build_factor(cfg: Dict) -> ScenarioFactor:
    cfg = dict(cfg)
    context = f"factor {cfg.get('name', '?')!r} configuration"
    require_known_keys(context, cfg, _fields(ScenarioFactor))
    return ScenarioFactor(**cfg)


def scenario_from_json(source: Union[str, Path, Dict]) -> ScenarioSpec:
    """Build a fully validated :class:`ScenarioSpec` from JSON."""
    cfg = dict(load_json(source))
    require_known_keys("scenario configuration", cfg, _fields(ScenarioSpec))
    for section, builder in (
        ("pools", _build_pool),
        ("fleets", _build_fleet),
        ("antagonists", _build_antagonist),
        ("factors", _build_factor),
    ):
        if section in cfg:
            items = cfg[section]
            if not isinstance(items, (list, tuple)):
                raise ValueError(f"scenario {section!r} must be a list")
            cfg[section] = tuple(builder(item) for item in items)
    if cfg.get("spine") is not None:
        spine_from_json(dict(cfg["spine"]))
    spec = ScenarioSpec(**cfg)
    # The factor levels must substitute cleanly into the document at
    # every configuration; exercising both corners here turns a bad
    # path or level into a load-time error instead of a mid-sweep one.
    if spec.factors:
        from .compiler import apply_factor_levels

        apply_factor_levels(spec, tuple(0 for _ in spec.factors))
        apply_factor_levels(spec, tuple(1 for _ in spec.factors))
    return spec


def _jsonable(value):
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        out = {}
        for f in dataclasses.fields(value):
            v = getattr(value, f.name)
            if v == f.default and f.default is not dataclasses.MISSING:
                continue  # keep the document minimal and diff-friendly
            out[f.name] = _jsonable(v)
        return out
    if isinstance(value, tuple):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    return value


def scenario_to_jsonable(spec: ScenarioSpec) -> Dict:
    """The JSON-ready dict form; ``scenario_from_json`` inverts it."""
    doc = _jsonable(spec)
    # Always pin the schema version in serialized documents, even when
    # it equals the default.
    doc["schema"] = spec.schema
    # Required fields must survive even if they equal a default.
    doc.setdefault("name", spec.name)
    return doc


def scenario_to_json(spec: ScenarioSpec, indent: Optional[int] = 2) -> str:
    return json.dumps(scenario_to_jsonable(spec), indent=indent, sort_keys=False)
