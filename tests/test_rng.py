"""Unit tests for named RNG streams."""

import numpy as np
import pytest

from repro.sim.rng import RngRegistry, derive_seed


class TestRngRegistry:
    def test_same_name_returns_same_generator(self):
        reg = RngRegistry(seed=1)
        assert reg.stream("a") is reg.stream("a")

    def test_different_names_are_independent(self):
        reg = RngRegistry(seed=1)
        a = reg.stream("a").random(100)
        b = reg.stream("b").random(100)
        assert not np.allclose(a, b)

    def test_reproducible_across_registries(self):
        a = RngRegistry(seed=42).stream("arrival").random(10)
        b = RngRegistry(seed=42).stream("arrival").random(10)
        assert np.array_equal(a, b)

    def test_order_independent_derivation(self):
        """Creating streams in a different order must not change draws."""
        reg1 = RngRegistry(seed=7)
        reg1.stream("x")
        first = reg1.stream("y").random(5)
        reg2 = RngRegistry(seed=7)
        second = reg2.stream("y").random(5)  # no "x" created first
        assert np.array_equal(first, second)

    def test_different_seeds_differ(self):
        a = RngRegistry(seed=1).stream("s").random(20)
        b = RngRegistry(seed=2).stream("s").random(20)
        assert not np.allclose(a, b)

    def test_seed_type_checked(self):
        with pytest.raises(TypeError):
            RngRegistry(seed="abc")

    def test_names_lists_created_streams(self):
        reg = RngRegistry(seed=0)
        reg.stream("b")
        reg.stream("a")
        assert list(reg.names()) == ["a", "b"]
        assert "a" in reg and "c" not in reg


class TestScopedRng:
    def test_child_prefixes_stream_names(self):
        reg = RngRegistry(seed=3)
        scoped = reg.child("server")
        direct = reg.stream("server/service")
        assert scoped.stream("service") is direct

    def test_nested_children(self):
        reg = RngRegistry(seed=3)
        inner = reg.child("a").child("b")
        assert inner.stream("c") is reg.stream("a/b/c")

    def test_scoped_streams_isolated_between_scopes(self):
        reg = RngRegistry(seed=3)
        a = reg.child("client0").stream("arrival").random(10)
        b = reg.child("client1").stream("arrival").random(10)
        assert not np.allclose(a, b)


class TestDeriveSeed:
    def test_deterministic(self):
        s1 = derive_seed(5, "name")
        s2 = derive_seed(5, "name")
        g1 = np.random.Generator(np.random.PCG64(s1))
        g2 = np.random.Generator(np.random.PCG64(s2))
        assert np.array_equal(g1.random(5), g2.random(5))

    def test_name_sensitivity(self):
        g1 = np.random.Generator(np.random.PCG64(derive_seed(5, "a")))
        g2 = np.random.Generator(np.random.PCG64(derive_seed(5, "b")))
        assert not np.allclose(g1.random(20), g2.random(20))


class TestRunSeedHashCanary:
    """Pins CPython's tuple hash, the root of every run's RNG.

    Every run seeds its :class:`RngRegistry` with
    ``hash((seed, run_index)) & 0x7FFFFFFF`` at three call sites:

    * ``repro.core.bench.TestBench.__init__`` (simulated runs);
    * ``repro.scenarios.bench.ScenarioBench.__init__`` (scenario runs);
    * ``repro.live.driver.registry_for_spec`` (live runs).

    Integer tuples hash the same in every process (no hash
    randomisation), but the algorithm is CPython's to change.  If an
    interpreter upgrade changes it, every golden digest moves; this
    test then fails first and names the cause.
    """

    PINS = {
        (0, 0): 397586535,
        (1, 0): 1403689752,
        (1, 1): 923744234,
        (11, 3): 1664017387,
        (42, 7): 716902333,
        (-1, 0): 1922644560,
    }

    @pytest.mark.parametrize("pair", sorted(PINS))
    def test_tuple_hash_is_pinned(self, pair):
        assert hash(pair) & 0x7FFFFFFF == self.PINS[pair]

    def test_call_sites_use_the_pinned_root(self):
        from repro.core.bench import BenchConfig, TestBench
        from repro.exec import RunSpec
        from repro.live.driver import registry_for_spec
        from repro.scenarios import load_scenario
        from repro.scenarios.bench import ScenarioBench
        from repro.workloads.memcached import MemcachedWorkload

        bench = TestBench(BenchConfig(workload=MemcachedWorkload(), seed=11), 3)
        assert bench.rng.seed == self.PINS[(11, 3)]

        scenario = load_scenario("heterogeneous_pool")
        assert scenario.seed == 11
        assert ScenarioBench(scenario, 3).rng.seed == self.PINS[(11, 3)]

        spec = RunSpec(
            workload=MemcachedWorkload(), target_utilization=0.5, seed=42, run_index=7
        )
        assert registry_for_spec(spec).seed == self.PINS[(42, 7)]
