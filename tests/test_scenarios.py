"""Tests for the declarative scenario layer.

* schema validation (cross-references, exclusivity rules, coercion),
* strict JSON loading with nearest-key hints and round-trip fidelity,
* the compiler: factor expansion, common random numbers, degenerate
  lowering with digest equality against direct configuration,
* end-to-end runs: per-(fleet, pool) ``group_metrics``, bit-identity
  between serial and process executors,
* per-group attribution over a scenario factor sweep,
* the curated library and the ``repro scenario`` CLI.
"""

import json

import pytest

from repro.exec import (
    ParallelExecutor,
    RunSpec,
    SerialExecutor,
    execute_specs,
    spec_digest,
)
from repro.measure import measure_spec
from repro.scenarios import (
    AntagonistSpec,
    ClientFleetSpec,
    ScenarioFactor,
    ScenarioSpec,
    ServerPoolSpec,
    apply_factor_levels,
    compile_scenario,
    expand_scenario,
    is_degenerate,
    list_scenarios,
    load_scenario,
    lower_degenerate,
    scenario_from_json,
    scenario_to_json,
    scenario_to_jsonable,
)
from repro.workloads.memcached import MemcachedWorkload

MEMCACHED = {"workload": "memcached"}


def tiny_pool(name="pool", **kw):
    return ServerPoolSpec(name=name, workload=MEMCACHED, **kw)


def tiny_fleet(name="fleet", target="pool", **kw):
    kw.setdefault("target_utilization", 0.4)
    kw.setdefault("instances", 1)
    kw.setdefault("connections_per_instance", 4)
    kw.setdefault("warmup_samples", 50)
    kw.setdefault("measurement_samples_per_instance", 200)
    return ClientFleetSpec(name=name, target=target, **kw)


def tiny_scenario(**kw):
    kw.setdefault("name", "tiny")
    kw.setdefault("pools", (tiny_pool(),))
    kw.setdefault("fleets", (tiny_fleet(),))
    kw.setdefault("seed", 3)
    return ScenarioSpec(**kw)


# ----------------------------------------------------------------------
# schema validation
# ----------------------------------------------------------------------
class TestSchema:
    def test_fleet_requires_exactly_one_load_spelling(self):
        with pytest.raises(ValueError, match="exactly one"):
            ClientFleetSpec(name="f", target="p")
        with pytest.raises(ValueError, match="exactly one"):
            ClientFleetSpec(
                name="f", target="p", rate_rps=1000.0, target_utilization=0.5
            )

    def test_fleet_arrival_must_not_carry_rate(self):
        with pytest.raises(ValueError, match="rate_rps"):
            tiny_fleet(arrival={"type": "poisson", "rate_rps": 500.0})

    def test_fleet_target_must_exist(self):
        with pytest.raises(ValueError, match="unknown pool"):
            tiny_scenario(fleets=(tiny_fleet(target="nowhere"),))

    def test_duplicate_pool_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate pool"):
            tiny_scenario(pools=(tiny_pool("p"), tiny_pool("p")))

    def test_fleet_and_pool_names_must_not_overlap(self):
        with pytest.raises(ValueError, match="overlap"):
            tiny_scenario(
                pools=(tiny_pool("shared"),),
                fleets=(tiny_fleet("shared", target="shared"),),
            )

    def test_antagonist_server_index_bounds_checked(self):
        with pytest.raises(ValueError, match="out of range"):
            tiny_scenario(
                antagonists=(AntagonistSpec(name="a", pool="pool", server=1),)
            )

    def test_antagonist_pool_must_exist(self):
        with pytest.raises(ValueError, match="unknown pool"):
            tiny_scenario(antagonists=(AntagonistSpec(name="a", pool="ghost"),))

    def test_factor_path_vocabulary_enforced(self):
        with pytest.raises(ValueError, match="pools/fleets/antagonists/spine"):
            ScenarioFactor(name="f", path="cpus.fast", low=0, high=1)
        with pytest.raises(ValueError, match="<field"):
            ScenarioFactor(name="f", path="pools.cache", low=0, high=1)
        # these shapes are valid
        ScenarioFactor(name="f", path="pools.cache.count", low=1, high=2)
        ScenarioFactor(name="s", path="spine.latency_us", low=1.0, high=5.0)

    def test_schema_version_checked(self):
        with pytest.raises(ValueError, match="schema"):
            tiny_scenario(schema=99)

    def test_numeric_coercion_makes_json_ints_digest_like_floats(self):
        a = tiny_scenario(fleets=(tiny_fleet(rate_rps=80000, target_utilization=None),))
        b = tiny_scenario(
            fleets=(tiny_fleet(rate_rps=80000.0, target_utilization=None),)
        )
        assert spec_digest(a) == spec_digest(b)

    def test_groups_enumerates_fleet_pool_pairs(self):
        spec = tiny_scenario(
            pools=(tiny_pool("pa"), tiny_pool("pb")),
            fleets=(tiny_fleet("fa", target="pa"), tiny_fleet("fb", target="pb")),
        )
        assert spec.groups == (("fa", "pa"), ("fb", "pb"))
        assert spec.pool("pb").name == "pb"
        assert spec.fleet("fa").target == "pa"
        with pytest.raises(KeyError):
            spec.pool("nope")


# ----------------------------------------------------------------------
# strict JSON loading
# ----------------------------------------------------------------------
def minimal_doc(**overrides):
    doc = {
        "name": "doc",
        "pools": [{"name": "pool", "workload": {"workload": "memcached"}}],
        "fleets": [
            {
                "name": "fleet",
                "target": "pool",
                "instances": 1,
                "target_utilization": 0.4,
                "warmup_samples": 50,
                "measurement_samples_per_instance": 200,
            }
        ],
    }
    doc.update(overrides)
    return doc


class TestStrictLoading:
    def test_unknown_top_level_key_names_nearest_valid_key(self):
        with pytest.raises(ValueError) as exc:
            scenario_from_json(minimal_doc(replication=3))
        msg = str(exc.value)
        assert "replication" in msg
        assert "did you mean 'replications'" in msg

    def test_unknown_fleet_key_rejected_with_hint(self):
        doc = minimal_doc()
        doc["fleets"][0]["intances"] = 4
        with pytest.raises(ValueError) as exc:
            scenario_from_json(doc)
        assert "did you mean 'instances'" in str(exc.value)

    def test_unknown_pool_key_rejected(self):
        doc = minimal_doc()
        doc["pools"][0]["racks"] = "rack9"
        with pytest.raises(ValueError, match="did you mean 'rack'"):
            scenario_from_json(doc)

    def test_nested_workload_dict_validated_at_load_time(self):
        doc = minimal_doc()
        doc["pools"][0]["workload"] = {"workload": "memcached", "sharding": 4}
        with pytest.raises(ValueError, match="sharding"):
            scenario_from_json(doc)

    def test_unknown_spine_key_rejected(self):
        with pytest.raises(ValueError, match="spine"):
            scenario_from_json(minimal_doc(spine={"warp": 9}))

    def test_bad_factor_level_caught_at_load_time(self):
        # the loader pre-substitutes both factor corners, so a level the
        # schema rejects fails at load, not mid-sweep
        doc = minimal_doc(
            factors=[
                {
                    "name": "bad",
                    "path": "fleets.fleet.instances",
                    "low": 1,
                    "high": 0,
                }
            ]
        )
        with pytest.raises(ValueError, match="instances"):
            scenario_from_json(doc)

    def test_loads_from_json_string_and_file(self, tmp_path):
        text = json.dumps(minimal_doc())
        from_string = scenario_from_json(text)
        path = tmp_path / "scen.json"
        path.write_text(text)
        from_file = scenario_from_json(path)
        assert from_string == from_file
        assert from_string.name == "doc"


# ----------------------------------------------------------------------
# JSON round-trip (config digest fidelity)
# ----------------------------------------------------------------------
class TestRoundTrip:
    @pytest.mark.parametrize("name", sorted(list_scenarios()))
    def test_library_scenario_round_trips_bit_exact(self, name):
        spec = load_scenario(name)
        clone = scenario_from_json(scenario_to_jsonable(spec))
        assert clone == spec
        assert spec_digest(clone) == spec_digest(spec)

    @pytest.mark.parametrize("name", sorted(list_scenarios()))
    def test_compiled_digests_survive_the_round_trip(self, name):
        spec = load_scenario(name)
        clone = scenario_from_json(scenario_to_json(spec))
        assert [s.digest() for s in compile_scenario(clone)] == [
            s.digest() for s in compile_scenario(spec)
        ]

    def test_defaults_are_omitted_from_the_document(self):
        doc = scenario_to_jsonable(tiny_scenario())
        assert "antagonists" not in doc  # empty default
        assert "combine" not in doc  # default "mean"
        assert doc["schema"] == 1  # version always pinned


# ----------------------------------------------------------------------
# the compiler
# ----------------------------------------------------------------------
class TestCompiler:
    def test_factorial_times_replications(self):
        spec = load_scenario("colocated_antagonist")
        assert len(spec.factors) == 1 and spec.replications == 1
        assert len(compile_scenario(spec)) == 2

        three_reps = scenario_from_json(
            {**scenario_to_jsonable(spec), "replications": 3}
        )
        expanded = expand_scenario(three_reps)
        assert len(expanded) == 6
        # common random numbers: replication r shares run_index=r
        # across both factor configurations
        assert [(coded, r) for coded, r, _ in expanded] == [
            ((0,), 0), ((0,), 1), ((0,), 2), ((1,), 0), ((1,), 1), ((1,), 2),
        ]

    def test_factor_substitution_reaches_the_named_element(self):
        spec = load_scenario("colocated_antagonist")
        low = apply_factor_levels(spec, (0,))
        high = apply_factor_levels(spec, (1,))
        assert low.antagonists[0].rate_rps == 0.0
        assert high.antagonists[0].rate_rps == 2500.0
        assert not low.factors  # resolved variants carry no factors

    def test_non_degenerate_specs_carry_the_scenario(self):
        spec = load_scenario("colocated_antagonist")
        for compiled in compile_scenario(spec):
            assert compiled.scenario is not None
            assert compiled.tag.startswith("colocated_antagonist")
            assert compiled.total_rate_rps is None
            assert compiled.target_utilization is None

    def test_scenario_spec_rejects_direct_load_fields(self):
        scenario = tiny_scenario()
        with pytest.raises(ValueError, match="per-fleet loads"):
            RunSpec(
                workload=MemcachedWorkload(),
                target_utilization=0.5,
                scenario=scenario,
            )

    def test_degeneracy_detection(self):
        assert is_degenerate(tiny_scenario())
        assert not is_degenerate(tiny_scenario(pools=(tiny_pool(count=2),)))
        assert not is_degenerate(
            tiny_scenario(antagonists=(AntagonistSpec(name="a", pool="pool"),))
        )
        assert not is_degenerate(tiny_scenario(fleets=(tiny_fleet(start_us=5.0),)))
        assert not is_degenerate(tiny_scenario(fleets=(tiny_fleet(rack="rack7"),)))

    def test_degenerate_lowering_matches_direct_configuration(self):
        scenario = tiny_scenario(
            fleets=(
                tiny_fleet(
                    instances=2,
                    connections_per_instance=8,
                    target_utilization=0.6,
                    warmup_samples=100,
                    measurement_samples_per_instance=400,
                ),
            ),
            keep_raw=True,
            seed=11,
        )
        direct = RunSpec(
            workload=MemcachedWorkload(),
            target_utilization=0.6,
            num_instances=2,
            connections_per_instance=8,
            warmup_samples=100,
            measurement_samples_per_instance=400,
            keep_raw=True,
            seed=11,
        )
        (lowered,) = compile_scenario(scenario)
        assert lowered.scenario is None
        assert lowered.digest() == direct.digest()

    def test_lower_degenerate_refuses_multi_pool(self):
        spec = load_scenario("mcrouter_fanout")
        with pytest.raises(ValueError, match="not degenerate"):
            lower_degenerate(spec)


# ----------------------------------------------------------------------
# end-to-end: multi-pool runs and executor identity
# ----------------------------------------------------------------------
def two_pool_scenario(keep_raw=False):
    return ScenarioSpec(
        name="twopool",
        pools=(tiny_pool("pa"), tiny_pool("pb")),
        fleets=(
            tiny_fleet("fa", target="pa"),
            tiny_fleet("fb", target="pb"),
        ),
        keep_raw=keep_raw,
        seed=5,
    )


class TestScenarioRuns:
    def test_multi_pool_run_reports_per_group_metrics(self):
        (spec,) = compile_scenario(two_pool_scenario())
        assert spec.scenario is not None
        result = measure_spec(spec)
        assert set(result.group_metrics) == {("fa", "pa"), ("fb", "pb")}
        for group, metrics in result.group_metrics.items():
            assert set(metrics) == {0.5, 0.95, 0.99}
            assert all(v > 0 for v in metrics.values())
        # reports carry the fleet/pool labels the grouping derives from
        assert {r.group for r in result.reports} == set(result.group_metrics)
        assert 0.0 < result.server_utilization < 1.0
        assert result.spec_digest == spec.digest()

    def test_scenario_run_is_deterministic(self):
        (spec,) = compile_scenario(two_pool_scenario(keep_raw=True))
        a, b = measure_spec(spec), measure_spec(spec)
        assert a.metrics == b.metrics
        assert a.group_metrics == b.group_metrics
        assert (a.raw_samples() == b.raw_samples()).all()

    def test_serial_and_process_executors_agree_bit_for_bit(self):
        specs = compile_scenario(two_pool_scenario(keep_raw=True))
        serial = execute_specs(specs, SerialExecutor())
        with ParallelExecutor(max_workers=2) as pool:
            parallel = execute_specs(specs, pool)
        for s, p in zip(serial, parallel):
            assert s.metrics == p.metrics
            assert s.group_metrics == p.group_metrics
            assert (s.raw_samples() == p.raw_samples()).all()

    def test_antagonist_inflates_the_colocated_groups_tail(self):
        base = load_scenario("colocated_antagonist")
        doc = scenario_to_jsonable(base)
        for fleet in doc["fleets"]:
            fleet["measurement_samples_per_instance"] = 300
        spec = scenario_from_json(doc)
        quiet, noisy = (
            measure_spec(compiled) for compiled in compile_scenario(spec)
        )
        group = ("front", "cache")
        assert noisy.group_metrics[group][0.99] > quiet.group_metrics[group][0.99]


# ----------------------------------------------------------------------
# per-(fleet, pool) attribution
# ----------------------------------------------------------------------
class TestScenarioAttribution:
    def test_per_group_reports_over_a_factor_sweep(self):
        from repro.core.attribution import AttributionReport
        from repro.scenarios import ScenarioAttributionStudy

        base = load_scenario("colocated_antagonist")
        doc = scenario_to_jsonable(base)
        for fleet in doc["fleets"]:
            fleet["measurement_samples_per_instance"] = 300
            fleet["warmup_samples"] = 50
        scenario = scenario_from_json(doc)
        study = ScenarioAttributionStudy(
            scenario,
            taus=(0.9,),
            samples_per_experiment=500,
            n_boot=16,
        )
        # keep_raw is forced on: the fits need raw latencies
        assert study.scenario.keep_raw

        by_group = study.run_experiments()
        assert set(by_group) == {("front", "cache")}
        assert [e.coded for e in by_group[("front", "cache")]] == [(0,), (1,)]

        reports = study.analyze(by_group)
        report = reports[("front", "cache")]
        assert isinstance(report, AttributionReport)
        assert report.names == ["antagonist"]
        assert report.taus == (0.9,)
        # the antagonist's main effect on its own group is positive
        assert report.fits[0.9].coef("antagonist") > 0

    def test_factorless_scenario_rejected(self):
        from repro.scenarios import ScenarioAttributionStudy

        with pytest.raises(ValueError, match="no factors"):
            ScenarioAttributionStudy(tiny_scenario())


# ----------------------------------------------------------------------
# the curated library
# ----------------------------------------------------------------------
class TestLibrary:
    EXPECTED = {
        "colocated_antagonist",
        "cross_rack_shift",
        "diurnal_flash_crowd",
        "heterogeneous_pool",
        "mcrouter_fanout",
    }

    def test_expected_scenarios_present(self):
        assert self.EXPECTED <= set(list_scenarios())

    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_every_scenario_loads_validates_and_compiles(self, name):
        spec = load_scenario(name)
        assert spec.name == name
        assert spec.description
        specs = compile_scenario(spec)
        assert specs
        assert len({s.digest() for s in specs}) == len(specs)

    def test_unknown_name_lists_the_library(self):
        with pytest.raises(KeyError, match="colocated_antagonist"):
            load_scenario("does_not_exist")

    def test_multi_pool_scenarios_really_are_multi_pool(self):
        fanout = load_scenario("mcrouter_fanout")
        assert len(fanout.pools) == 2
        assert sum(p.count for p in fanout.pools) == 17
        hetero = load_scenario("heterogeneous_pool")
        hw = {p.name: p.hardware for p in hetero.pools}
        assert hw["fastpool"] != hw["slowpool"]


# ----------------------------------------------------------------------
# the CLI surface
# ----------------------------------------------------------------------
class TestScenarioCli:
    def test_list_prints_the_library(self, capsys):
        from repro.cli import main

        assert main(["scenario", "list"]) == 0
        out = capsys.readouterr().out
        for name in TestLibrary.EXPECTED:
            assert name in out

    def test_validate_whole_library(self, capsys):
        from repro.cli import main

        assert main(["scenario", "validate"]) == 0
        assert "INVALID" not in capsys.readouterr().out

    def test_validate_flags_a_broken_file(self, tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(minimal_doc(replication=2)))
        assert main(["scenario", "validate", str(bad)]) == 1
        assert "INVALID" in capsys.readouterr().out

    def test_run_executes_a_scenario_file(self, tmp_path, capsys):
        from repro.cli import main

        doc = {
            "name": "cli_smoke",
            "pools": [
                {"name": "pa", "workload": MEMCACHED},
                {"name": "pb", "workload": MEMCACHED},
            ],
            "fleets": [
                {
                    "name": "fa",
                    "target": "pa",
                    "instances": 1,
                    "connections_per_instance": 4,
                    "target_utilization": 0.4,
                    "warmup_samples": 50,
                    "measurement_samples_per_instance": 200,
                },
                {
                    "name": "fb",
                    "target": "pb",
                    "instances": 1,
                    "connections_per_instance": 4,
                    "target_utilization": 0.4,
                    "warmup_samples": 50,
                    "measurement_samples_per_instance": 200,
                },
            ],
        }
        path = tmp_path / "cli_smoke.json"
        path.write_text(json.dumps(doc))
        assert main(["scenario", "run", str(path)]) == 0
        out = capsys.readouterr().out
        assert "cli_smoke" in out
        assert "(fa, pa):" in out and "(fb, pb):" in out
