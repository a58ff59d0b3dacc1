"""Scenario lab: declarative topologies, run and attributed per group.

Three stops on the scenario layer's tour:

1. load a curated library scenario (a memcached server sharing socket 0
   with a bursty compute antagonist) and compile its on/off factor
   matrix into plain RunSpecs;
2. run the compiled specs through the ordinary execution layer and
   read the per-(fleet, pool) group metrics — the antagonist's damage
   is visible exactly where it lives;
3. fit the paper's quantile-regression attribution per group, so the
   interference is not just visible but *measured*, with bootstrap
   confidence intervals.

Scaled down (short runs, few bootstrap resamples) so it finishes in
about a minute.  Run::

    PYTHONPATH=src python examples/scenario_lab.py
"""

from repro.measure import measure_spec
from repro.scenarios import (
    ScenarioAttributionStudy,
    compile_scenario,
    load_scenario,
    scenario_from_json,
    scenario_to_jsonable,
)


def shrink(scenario, samples=400):
    """A quick-running copy of a scenario (same topology, fewer samples)."""
    doc = scenario_to_jsonable(scenario)
    for fleet in doc["fleets"]:
        fleet["measurement_samples_per_instance"] = samples
        fleet["warmup_samples"] = min(fleet.get("warmup_samples", 300), 100)
    return scenario_from_json(doc)


def main() -> None:
    scenario = shrink(load_scenario("colocated_antagonist"))
    print(f"scenario: {scenario.name}")
    print(f"  {scenario.description}")

    specs = compile_scenario(scenario)
    print(
        f"  {len(scenario.fleets)} fleet(s) x {len(scenario.pools)} pool(s), "
        f"{len(scenario.factors)} factor(s) -> {len(specs)} run spec(s)\n"
    )

    print("running the factor matrix:")
    for spec in specs:
        result = measure_spec(spec)
        print(f"  {spec.tag}")
        for (fleet, pool), metrics in sorted(result.group_metrics.items()):
            line = ", ".join(
                f"p{q * 100:g}={v:.1f}us" for q, v in sorted(metrics.items())
            )
            print(f"    ({fleet}, {pool}): {line}")

    print("\nattributing the p99 per (fleet, pool) group:")
    study = ScenarioAttributionStudy(
        scenario, taus=(0.99,), samples_per_experiment=800, n_boot=40
    )
    for group, report in study.analyze().items():
        fit = report.fits[0.99]
        print(f"  group {group}:")
        for name, coef in fit.as_dict().items():
            print(f"    {name:>12}: {coef:+8.2f} us")


if __name__ == "__main__":
    main()
