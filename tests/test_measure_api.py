"""Tests for the versioned MeasurementBackend API (repro.measure).

Covers the registry and capability surface, scoped option defaults,
the ``measure_spec`` dispatcher, digest neutrality of the default
backend, cache gating by the ``deterministic`` capability, the
``repro.run`` facade, and the deprecation shims of the old spellings.
"""

import dataclasses
import warnings

import pytest

import repro
from repro.exec.cache import ResultCache
from repro.exec.executors import SerialExecutor, _cacheable
from repro.exec.spec import RunSpec
from repro.measure import api as mapi
from repro.measure import (
    BenchCapabilities,
    MeasurementBackend,
    available_measurement_backends,
    backend_defaults,
    make_measurement_backend,
    measure_spec,
    register_measurement_backend,
    set_backend_defaults,
)
from repro.measure.api import (
    MEASUREMENT_API_VERSION,
    backend_is_deterministic,
    get_backend_defaults,
    measurement_backend_info,
)
from repro.workloads import MemcachedWorkload


def small_spec(**overrides):
    kwargs = dict(
        workload=MemcachedWorkload(),
        total_rate_rps=20_000.0,
        num_instances=1,
        connections_per_instance=4,
        warmup_samples=30,
        measurement_samples_per_instance=150,
        seed=7,
    )
    kwargs.update(overrides)
    return RunSpec(**kwargs)


# ----------------------------------------------------------------------
# fake third-party backends (registry extension path)
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class FakeOptions:
    marker: str = "x"


class _FakeRun:
    def __init__(self, spec, payload):
        self.spec = spec
        self.payload = payload

    def drive(self):
        from repro.exec.spec import RunResult

        result = RunResult(
            run_index=self.spec.run_index,
            reports=[],
            metrics={0.5: 1.0},
            server_utilization=0.0,
            client_utilizations={},
            spec_digest=self.spec.digest(),
        )
        result.payload = self.payload
        return result


class FakeBackend:
    def __init__(self, options, deterministic=True):
        self.options = options
        self.deterministic = deterministic
        self.prepared = 0
        self.closed = False

    def prepare(self, spec):
        self.prepared += 1
        return _FakeRun(spec, self.options.marker)

    def capabilities(self):
        return BenchCapabilities(
            backend="fake", deterministic=self.deterministic
        )

    def close(self):
        self.closed = True


@pytest.fixture
def clean_registry():
    """Snapshot/restore the registry and defaults around a test."""
    saved_reg = dict(mapi._REGISTRY)
    saved_defaults = {k: dict(v) for k, v in mapi._OPTION_DEFAULTS.items()}
    saved_instances = dict(mapi._INSTANCES)
    yield
    mapi._REGISTRY.clear()
    mapi._REGISTRY.update(saved_reg)
    mapi._OPTION_DEFAULTS.clear()
    mapi._OPTION_DEFAULTS.update(saved_defaults)
    mapi._INSTANCES.clear()
    mapi._INSTANCES.update(saved_instances)


class TestRegistry:
    def test_builtins_are_registered(self):
        names = available_measurement_backends()
        assert "sim" in names and "live" in names

    def test_api_is_versioned(self):
        # v3: the live backend executes scenario specs (pool_targets) and
        # capabilities().scenarios is no longer a sim-only promise.
        assert MEASUREMENT_API_VERSION == 3

    def test_unknown_backend_lists_available(self):
        with pytest.raises(KeyError, match="available"):
            measurement_backend_info("no-such-backend")

    def test_register_rejects_non_dataclass_options(self):
        with pytest.raises(TypeError, match="dataclass"):
            register_measurement_backend("bad", lambda o: None, dict)

    def test_register_rejects_empty_name(self):
        with pytest.raises(ValueError):
            register_measurement_backend("", lambda o: None, FakeOptions)

    def test_third_party_registration(self, clean_registry):
        register_measurement_backend(
            "fake", lambda o: FakeBackend(o), FakeOptions, summary="test"
        )
        info = measurement_backend_info("fake")
        assert info.options is FakeOptions
        backend = make_measurement_backend("fake", marker="y")
        assert isinstance(backend, MeasurementBackend)  # runtime Protocol
        assert backend.options.marker == "y"


class TestCapabilities:
    def test_sim_capabilities(self):
        caps = make_measurement_backend("sim").capabilities()
        assert caps.backend == "sim"
        assert caps.deterministic
        assert caps.scenarios
        assert caps.utilization_targeting
        assert not caps.wall_clock

    def test_live_capabilities(self):
        caps = make_measurement_backend("live").capabilities()
        assert caps.backend == "live"
        assert not caps.deterministic
        assert caps.wall_clock
        assert caps.fault_hookable
        assert caps.scenarios  # v3: fleets route to real endpoints
        assert not caps.utilization_targeting

    def test_determinism_lookup(self):
        assert backend_is_deterministic("sim")
        assert not backend_is_deterministic("live")
        assert not backend_is_deterministic("never-registered")

    def test_backends_satisfy_protocol(self):
        for name in ("sim", "live"):
            assert isinstance(make_measurement_backend(name), MeasurementBackend)


class TestOptionDefaults:
    def test_set_and_get(self, clean_registry):
        set_backend_defaults("live", target="tcp://10.0.0.5:7799")
        assert get_backend_defaults("live")["target"] == "tcp://10.0.0.5:7799"

    def test_unknown_option_raises(self):
        with pytest.raises(TypeError, match="unknown option"):
            set_backend_defaults("live", no_such_option=1)

    def test_scoped_defaults_restore(self, clean_registry):
        set_backend_defaults("live", connect_timeout_s=9.0)
        with backend_defaults("live", target="tcp://h:1"):
            assert get_backend_defaults("live")["target"] == "tcp://h:1"
            assert get_backend_defaults("live")["connect_timeout_s"] == 9.0
        assert "target" not in get_backend_defaults("live")
        assert get_backend_defaults("live")["connect_timeout_s"] == 9.0

    def test_defaults_reach_the_built_backend(self, clean_registry):
        with backend_defaults("live", target="tcp://example:1234"):
            backend = make_measurement_backend("live")
            assert backend.options.target == "tcp://example:1234"

    def test_options_dataclass_and_kwargs_conflict(self):
        from repro.live.driver import LiveOptions

        with pytest.raises(TypeError, match="not both"):
            make_measurement_backend(
                "live", options=LiveOptions(), target="tcp://h:1"
            )

    def test_wrong_options_type(self):
        from repro.live.driver import LiveOptions

        with pytest.raises(TypeError, match="expects"):
            make_measurement_backend("sim", options=LiveOptions())


class TestDispatch:
    def test_measure_spec_runs_sim(self):
        result = measure_spec(small_spec())
        assert set(result.metrics) == {0.5, 0.95, 0.99}
        assert result.metrics[0.5] > 0

    @pytest.mark.parametrize("scenario", [False, True])
    def test_finished_run_is_freed_young(self, scenario):
        """A finished run's cyclic bench graph is collected by gen 0,
        not promoted to wait for a full pass (peak RSS would otherwise
        grow with the number of runs in one process)."""
        import gc

        if scenario:
            from repro.scenarios import compile_scenario, load_scenario

            spec = compile_scenario(load_scenario("mcrouter_fanout"))[0]
        else:
            spec = small_spec(num_instances=4, measurement_samples_per_instance=2000)
        assert gc.isenabled()
        gc.collect()
        measure_spec(spec)
        gc.collect(0)
        assert gc.collect() < 50

    def test_default_backend_is_sim(self):
        assert small_spec().backend == "sim"

    def test_unknown_backend_raises(self):
        with pytest.raises(KeyError, match="available"):
            measure_spec(small_spec(backend="no-such"))

    def test_scenario_spec_refused_without_capability(self, clean_registry):
        register_measurement_backend("fake", lambda o: FakeBackend(o), FakeOptions)

        class FakeScenarioSpec:
            backend = "fake"
            scenario = object()

        with pytest.raises(ValueError, match="scenario"):
            measure_spec(FakeScenarioSpec())

    def test_dispatch_routes_by_name(self, clean_registry):
        register_measurement_backend("fake", lambda o: FakeBackend(o), FakeOptions)
        spec = small_spec(backend="fake")
        out = measure_spec(spec)
        assert out.payload == "x"
        assert out.spec_digest == spec.digest()

    def test_backend_instances_are_memoized(self, clean_registry):
        built = []

        def factory(options):
            backend = FakeBackend(options)
            built.append(backend)
            return backend

        register_measurement_backend("fake", factory, FakeOptions)
        measure_spec(small_spec(backend="fake"))
        measure_spec(small_spec(backend="fake", seed=8))
        assert len(built) == 1
        assert built[0].prepared == 2


class TestDigestNeutrality:
    def test_sim_backend_is_digest_neutral(self):
        spec = small_spec()
        assert spec.digest() == spec.replace(backend="sim").digest()

    def test_non_default_backend_changes_digest(self):
        spec = small_spec()
        assert spec.digest() != spec.replace(backend="live").digest()

    def test_backend_validation(self):
        with pytest.raises(ValueError, match="backend"):
            small_spec(backend="")

    def test_describe_mentions_only_non_default_backend(self):
        assert "backend" not in small_spec().describe()
        assert small_spec(backend="live").describe()["backend"] == "live"


class TestCacheGating:
    def test_cacheable_helper(self):
        assert _cacheable(small_spec())
        assert not _cacheable(small_spec(backend="live"))
        assert not _cacheable(small_spec(backend="never-registered"))

    def test_deterministic_fake_backend_is_cached(self, clean_registry, tmp_path):
        register_measurement_backend(
            "fake", lambda o: FakeBackend(o, deterministic=True), FakeOptions
        )
        cache = ResultCache(tmp_path)
        spec = small_spec(backend="fake")
        with SerialExecutor(cache=cache) as ex:
            (first,) = ex.run([spec])
            (second,) = ex.run([spec])
        assert not first.from_cache and second.from_cache
        assert second.spec_digest == first.spec_digest
        assert cache.get(spec) is not None

    def test_nondeterministic_backend_never_cached(self, clean_registry, tmp_path):
        backends = []

        def factory(options):
            backend = FakeBackend(options, deterministic=False)
            backends.append(backend)
            return backend

        register_measurement_backend("fake", factory, FakeOptions)
        cache = ResultCache(tmp_path)
        spec = small_spec(backend="fake")
        with SerialExecutor(cache=cache) as ex:
            ex.run([spec])
            ex.run([spec])
        assert cache.get(spec) is None
        assert backends[0].prepared == 2  # both runs actually executed


class TestFacade:
    def test_run_single_spec(self):
        spec = small_spec()
        result = repro.run(spec)
        assert result.spec_digest == spec.digest()

    def test_run_backend_override(self, clean_registry):
        register_measurement_backend("fake", lambda o: FakeBackend(o), FakeOptions)
        spec = small_spec()
        out = repro.run(spec, backend="fake")
        assert out.spec_digest == spec.replace(backend="fake").digest()
        assert spec.backend == "sim"  # original spec untouched

    def test_run_scenario(self):
        from repro.scenarios import scenario_from_json

        scenario = scenario_from_json(
            {
                "name": "tiny",
                "seed": 3,
                "pools": [{"name": "p", "workload": {"workload": "memcached"}}],
                "fleets": [
                    {
                        "name": "f",
                        "target": "p",
                        "instances": 1,
                        "connections_per_instance": 4,
                        "rate_rps": 20_000.0,
                        "warmup_samples": 30,
                        "measurement_samples_per_instance": 150,
                    }
                ],
            }
        )
        results = repro.run(scenario, executor="serial")
        assert len(results) == 1
        assert results[0].metrics[0.5] > 0


class TestDeprecatedSpellings:
    def test_run_spec_is_removed(self):
        import repro.exec
        import repro.exec.spec

        assert not hasattr(repro.exec.spec, "run_spec")
        assert "run_spec" not in repro.exec.__all__
        assert "run_spec" not in repro.__all__

    def test_run_scenario_spec_is_removed(self):
        import repro.scenarios
        import repro.scenarios.runtime

        assert not hasattr(repro.scenarios.runtime, "run_scenario_spec")
        assert "run_scenario_spec" not in repro.scenarios.__all__

    def test_measure_spec_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            measure_spec(small_spec())
