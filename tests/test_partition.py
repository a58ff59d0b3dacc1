"""Partitioned kernel: bit-identity, determinism, and failure modes.

The conservative parallel DES (:mod:`repro.sim.partition`) promises
one thing: **any partition count produces `RunResult`s byte-identical
to the serial kernel** — whichever process runs the spec.  These tests
pin that promise for the bench-shaped spec, for every curated library
scenario, and property-style across topologies x seeds x partition
counts; plus the deterministic boundary tiebreak, the clean failure
of a drained window loop, and the event pool's stale-handle tripwires.
"""

from __future__ import annotations

import pytest

from repro.exec import ParallelExecutor
from repro.exec.spec import RunSpec, result_fingerprint
from repro.measure.simbackend import _drive_single_server, build_single_server
from repro.scenarios import (
    list_scenarios,
    load_scenario,
    scenario_from_json,
    scenario_to_jsonable,
)
from repro.scenarios.compiler import auto_partitions
from repro.scenarios.runtime import _execute_scenario_spec
from repro.sim.engine import SimulationError, Simulator
from repro.sim.partition import (
    PartitionedSimulator,
    SimError,
    assign_shards,
    run_windows,
)
from repro.workloads import MemcachedWorkload
from repro.core.config import workload_from_json


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def bench_shaped_spec(samples: int = 100) -> RunSpec:
    """A single-server memcached spec, test-sized."""
    return RunSpec(
        workload=MemcachedWorkload(),
        target_utilization=0.7,
        num_instances=2,
        connections_per_instance=4,
        warmup_samples=20,
        measurement_samples_per_instance=samples,
        keep_raw=True,
        seed=7,
    )


def downscale(scenario):
    """A test-sized copy of a library scenario (same shape, fewer samples)."""
    doc = scenario_to_jsonable(scenario)
    for f in doc.get("fleets", []):
        f["instances"] = min(f.get("instances", 2), 2)
        f["warmup_samples"] = 15
        f["measurement_samples_per_instance"] = 50
        f["connections_per_instance"] = min(
            f.get("connections_per_instance", 8), 4
        )
    for p in doc.get("pools", []):
        p["count"] = min(p.get("count", 1), 2)
    return scenario_from_json(doc)


def scenario_spec(scenario, partitions=None) -> RunSpec:
    """A multi-pool RunSpec for ``scenario`` (the compiler's shape)."""
    return RunSpec(
        workload=workload_from_json(dict(scenario.pools[0].workload)),
        num_instances=sum(f.instances for f in scenario.fleets),
        quantiles=scenario.quantiles,
        combine=scenario.combine,
        keep_raw=scenario.keep_raw,
        seed=scenario.seed,
        scenario=scenario,
        partitions=partitions,
    )


def make_scenario(pools, fleets, seed):
    """A small synthetic scenario document for the property sweep."""
    return scenario_from_json(
        {
            "name": "sweep",
            "seed": seed,
            "keep_raw": True,
            "pools": pools,
            "fleets": fleets,
        }
    )


# ----------------------------------------------------------------------
# shard assignment
# ----------------------------------------------------------------------
class TestAssignShards:
    HOSTS = [
        ("s0", "r0"),
        ("s1", "r1"),
        ("s2", "r2"),
        ("c0", "r0"),
        ("c1", "r1"),
    ]

    def test_one_shard_maps_everything_to_zero(self):
        assert set(assign_shards(self.HOSTS, 1).values()) == {0}

    def test_rack_affine_when_shards_do_not_exceed_racks(self):
        mapping = assign_shards(self.HOSTS, 2)
        # Hosts sharing a rack always share a shard.
        assert mapping["s0"] == mapping["c0"]
        assert mapping["s1"] == mapping["c1"]
        # Every shard is used and ids stay in range.
        assert set(mapping.values()) == {0, 1}

    def test_shards_equal_racks_is_one_rack_per_shard(self):
        mapping = assign_shards(self.HOSTS, 3)
        racks = {"r0": mapping["s0"], "r1": mapping["s1"], "r2": mapping["s2"]}
        assert sorted(racks.values()) == [0, 1, 2]
        assert mapping["c0"] == racks["r0"]
        assert mapping["c1"] == racks["r1"]

    def test_splits_within_racks_when_shards_exceed_racks(self):
        hosts = [("h0", "r0"), ("h1", "r0"), ("h2", "r0"), ("h3", "r0")]
        mapping = assign_shards(hosts, 2)
        assert set(mapping.values()) == {0, 1}

    def test_deterministic(self):
        assert assign_shards(self.HOSTS, 2) == assign_shards(self.HOSTS, 2)

    def test_rejects_bad_count(self):
        with pytest.raises(ValueError):
            assign_shards(self.HOSTS, 0)


class TestLookaheadGuard:
    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_nonpositive_lookahead_is_an_error(self, bad):
        with pytest.raises(SimulationError):
            PartitionedSimulator(2).set_lookahead(bad)

    def test_simerror_is_the_kernel_error(self):
        assert SimError is SimulationError


# ----------------------------------------------------------------------
# bit-identity: the bench spec
# ----------------------------------------------------------------------
class TestSingleServerIdentity:
    @pytest.fixture(scope="class")
    def reference(self):
        return result_fingerprint(_drive_single_server(bench_shaped_spec()))

    @pytest.mark.parametrize("n", [1, 2, 4, 5])
    def test_inproc_matches_serial(self, reference, n):
        result = _drive_single_server(bench_shaped_spec().replace(partitions=n))
        assert result_fingerprint(result) == reference

    @pytest.mark.parametrize("n", [2, 4])
    def test_multiprocess_matches_serial(self, reference, n):
        # Sharded specs travel the process executor like any other spec:
        # a worker process runs the windowed sub-kernels, bit for bit.
        spec = bench_shaped_spec().replace(partitions=n)
        with ParallelExecutor(max_workers=2) as ex:
            (result,) = ex.run([spec])
        assert result_fingerprint(result) == reference

    def test_one_partition_runs_the_plain_kernel(self):
        bench, instances = build_single_server(
            bench_shaped_spec(samples=20).replace(partitions=1)
        )
        assert bench.run_to_completion(instances) is None
        assert bench.events_processed == bench.sim.events_processed > 0

    def test_sharded_bench_reports_its_windows(self):
        bench, instances = build_single_server(
            bench_shaped_spec(samples=20).replace(partitions=2)
        )
        stats = bench.run_to_completion(instances)
        assert stats.windows > 0 and stats.boundary_events > 0
        assert bench.events_processed == stats.executed

    def test_partitions_field_is_digest_neutral(self):
        spec = bench_shaped_spec()
        assert spec.replace(partitions=3).digest() == spec.digest()

    def test_backend_routes_spec_partitions(self):
        from repro.measure.simbackend import _SimRun, SimOptions

        spec = bench_shaped_spec().replace(partitions=2)
        routed = _SimRun(spec, SimOptions()).drive()
        assert result_fingerprint(routed) == result_fingerprint(
            _drive_single_server(bench_shaped_spec())
        )


# ----------------------------------------------------------------------
# bit-identity: every curated library scenario
# ----------------------------------------------------------------------
class TestLibraryScenarioIdentity:
    @pytest.mark.parametrize("name", list_scenarios())
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_inproc_matches_serial(self, name, n):
        scenario = downscale(load_scenario(name))
        serial = result_fingerprint(
            _execute_scenario_spec(scenario_spec(scenario))
        )
        sharded = _execute_scenario_spec(
            scenario_spec(scenario, partitions=n)
        )
        assert result_fingerprint(sharded) == serial

    @pytest.mark.parametrize(
        "name", ["cross_rack_shift", "colocated_antagonist"]
    )
    def test_multiprocess_matches_serial(self, name):
        scenario = downscale(load_scenario(name))
        serial = result_fingerprint(
            _execute_scenario_spec(scenario_spec(scenario))
        )
        with ParallelExecutor(max_workers=2) as ex:
            (sharded,) = ex.run([scenario_spec(scenario, partitions=2)])
        assert result_fingerprint(sharded) == serial


# ----------------------------------------------------------------------
# property sweep: topologies x seeds x partition counts
# ----------------------------------------------------------------------
TOPOLOGIES = {
    "two_racks": (
        [
            {"name": "web", "workload": {"workload": "memcached"}, "rack": 0},
            {"name": "kv", "workload": {"workload": "memcached"}, "rack": 1},
        ],
        [
            {
                "name": "fa",
                "target": "web",
                "instances": 2,
                "connections_per_instance": 2,
                "rate_rps": 20_000,
                "warmup_samples": 10,
                "measurement_samples_per_instance": 30,
            },
            {
                "name": "fb",
                "target": "kv",
                "instances": 1,
                "connections_per_instance": 2,
                "rate_rps": 10_000,
                "warmup_samples": 10,
                "measurement_samples_per_instance": 30,
            },
        ],
    ),
    "three_racks": (
        [
            {"name": "p0", "workload": {"workload": "memcached"}, "rack": 0},
            {"name": "p1", "workload": {"workload": "memcached"}, "rack": 1},
            {"name": "p2", "workload": {"workload": "memcached"}, "rack": 2},
        ],
        [
            {
                "name": f"f{i}",
                "target": f"p{i}",
                "instances": 1,
                "connections_per_instance": 2,
                "rate_rps": 10_000,
                "warmup_samples": 10,
                "measurement_samples_per_instance": 30,
            }
            for i in range(3)
        ],
    ),
    "one_rack_two_pools": (
        [
            {
                "name": "pool",
                "workload": {"workload": "memcached"},
                "rack": 0,
                "count": 2,
            },
        ],
        [
            {
                "name": "fl",
                "target": "pool",
                "instances": 2,
                "connections_per_instance": 2,
                "rate_rps": 20_000,
                "warmup_samples": 10,
                "measurement_samples_per_instance": 30,
            },
        ],
    ),
}


class TestPartitionPropertySweep:
    @pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("n", [2, 3])
    def test_digest_identical_to_serial(self, topology, seed, n):
        pools, fleets = TOPOLOGIES[topology]
        scenario = make_scenario(pools, fleets, seed)
        serial = result_fingerprint(
            _execute_scenario_spec(scenario_spec(scenario))
        )
        sharded = _execute_scenario_spec(
            scenario_spec(scenario, partitions=n)
        )
        assert result_fingerprint(sharded) == serial


class TestCompilerAutoPartitions:
    def test_multi_rack_scenario_gets_rack_count(self):
        pools, fleets = TOPOLOGIES["three_racks"]
        assert auto_partitions(make_scenario(pools, fleets, 1)) == 3

    def test_single_rack_scenario_stays_serial(self):
        pools, fleets = TOPOLOGIES["one_rack_two_pools"]
        assert auto_partitions(make_scenario(pools, fleets, 1)) is None

    def test_compiled_specs_carry_the_auto_partitioning(self):
        """auto_partitions is opt-in: a compiled multi-rack spec runs
        on the plain kernel."""
        from repro.scenarios.compiler import compile_scenario

        pools, fleets = TOPOLOGIES["two_racks"]
        (spec,) = compile_scenario(make_scenario(pools, fleets, 1))
        assert spec.partitions is None


# ----------------------------------------------------------------------
# the deterministic boundary tiebreak (stub-handle unit test)
# ----------------------------------------------------------------------
class _StubHandle:
    """Scripted shard: fixed next-times and exports, records imports."""

    def __init__(self, next_times, exports, completions=()):
        self._next_times = list(next_times)
        self._exports = list(exports)
        self._completions = list(completions)
        self.imports_seen = []
        self.barriers = []
        self.finalized_at = None

    def exchange(self, imports, controls):
        self.imports_seen.extend(imports)
        return self._next_times.pop(0) if self._next_times else float("inf")

    def advance(self, barrier):
        self.barriers.append(barrier)
        exports = self._exports.pop(0) if self._exports else []
        completions, self._completions = self._completions, []
        return exports, completions, len(exports), barrier

    def finalize(self, global_now):
        self.finalized_at = global_now


class TestBoundaryTiebreak:
    def test_same_timestamp_imports_order_by_partition_then_seq(self):
        # Shards 0 and 1 both export to shard 2; three events share
        # t=5.0, one lands at t=4.5.  The merged import order must be
        # timestamp first, then (source partition, sequence) — never
        # arrival order.
        a = _StubHandle(
            [1.0],
            [[(5.0, 0, "a0"), (5.0, 0, "a1")]],
            completions=[(1.0, "instA")],
        )
        b = _StubHandle(
            [1.0],
            [[(5.0, 1, "b0"), (4.5, 1, "b1")]],
            completions=[(1.0, "instB")],
        )
        c = _StubHandle([float("inf")], [])
        routes = {0: (0, 2), 1: (1, 2)}
        stats = run_windows(
            [a, b, c],
            lookahead_us=10.0,
            n_instances=2,
            antagonist_shards=[],
            routes=routes,
        )
        assert [p for _, _, p in c.imports_seen] == ["b1", "a0", "a1", "b0"]
        assert stats.boundary_events == 4
        # One advanced window; the second exchange (which delivers the
        # imports) finds every shard drained and closes the run.
        assert stats.windows == 1
        assert stats.t_done == 1.0
        assert a.barriers[0] == b.barriers[0] == 11.0
        assert c.finalized_at == stats.global_now

    def test_drained_before_complete_is_a_clean_simerror(self):
        a = _StubHandle([float("inf")], [])
        with pytest.raises(SimulationError, match="instances complete"):
            run_windows(
                [a],
                lookahead_us=10.0,
                n_instances=1,
                antagonist_shards=[],
                routes={},
            )


# ----------------------------------------------------------------------
# event-pool stale-handle tripwires (satellite regression)
# ----------------------------------------------------------------------
@pytest.mark.skipif(not __debug__, reason="tripwires are __debug__ asserts")
class TestEventPoolTripwires:
    @staticmethod
    def _pooled_tombstone(sim):
        """Make the kernel pool one dead event, the legitimate way."""
        event = sim.schedule(1.0, lambda: None)
        event.cancel()
        del event  # pooling requires the handle to be dropped
        sim.run()
        assert sim._pool, "expected the cancelled event to be pooled"
        return sim

    def test_live_event_in_pool_trips_on_reuse(self):
        sim = Simulator()
        live = sim.schedule(5.0, lambda: None)
        sim._pool.append(live)  # simulate the stale-handle bug
        with pytest.raises(AssertionError, match="live state"):
            sim.schedule(1.0, lambda: None)

    def test_cross_kernel_recycling_trips(self):
        a = self._pooled_tombstone(Simulator())
        b = Simulator()
        b._pool.append(a._pool.pop())  # event owned by kernel `a`
        with pytest.raises(AssertionError, match="partition boundary"):
            b.schedule(1.0, lambda: None)

    def test_clean_recycling_stays_silent(self):
        sim = self._pooled_tombstone(Simulator())
        event = sim.schedule(1.0, lambda: None)  # reuses the pooled one
        assert not event.cancelled and event._sim is sim
