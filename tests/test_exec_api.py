"""Tests for the formal Executor API and the canonicalization audit.

* the `Executor` protocol + `Capabilities` introspection,
* the backend registry (`make_executor` by name, per-backend option
  dataclasses, third-party registration, rejection of the removed
  `jobs=` spelling),
* the `default_executor` / `execution` plumbing for named backends and
  the CLI's `--executor/--workers` flags,
* `_canonical` regression tests: sort-order and float/key
  canonicalization, plus spec/result pickle round-trips across
  protocol versions.
"""

import dataclasses
import pickle
import warnings

import numpy as np
import pytest

from repro.exec import (
    Capabilities,
    ClusterOptions,
    Executor,
    LocalClusterExecutor,
    ParallelExecutor,
    ProcessOptions,
    RunSpec,
    SerialExecutor,
    SerialOptions,
    available_backends,
    backend_info,
    default_executor,
    execution,
    make_executor,
    register_backend,
    spec_digest,
)
from repro.exec import api as api_mod
from repro.exec.spec import _canonical_blob
from repro.measure import measure_spec
from repro.workloads.memcached import MemcachedWorkload


def quick_spec(**overrides):
    defaults = dict(
        workload=MemcachedWorkload(),
        target_utilization=0.5,
        num_instances=2,
        connections_per_instance=8,
        warmup_samples=100,
        measurement_samples_per_instance=300,
        keep_raw=True,
        seed=1,
        run_index=0,
    )
    defaults.update(overrides)
    return RunSpec(**defaults)


# ----------------------------------------------------------------------
# the protocol & capabilities
# ----------------------------------------------------------------------
class TestExecutorProtocol:
    def test_all_builtin_backends_satisfy_the_protocol(self):
        serial = SerialExecutor()
        pool = ParallelExecutor(max_workers=2)
        cluster = LocalClusterExecutor(workers=1)
        try:
            for executor in (serial, pool, cluster):
                assert isinstance(executor, Executor)
        finally:
            pool.close()
            cluster.close()

    def test_capabilities_are_backend_specific(self):
        assert SerialExecutor().capabilities() == Capabilities(backend="serial")
        pool = ParallelExecutor(max_workers=3)
        try:
            caps = pool.capabilities()
            assert caps.parallel and not caps.distributed
            assert caps.workers == 3
            assert caps.supports_timeout and caps.supports_retry
        finally:
            pool.close()

    def test_capabilities_promise_determinism(self):
        for name in available_backends():
            # determinism is the caching contract; every built-in keeps it
            assert Capabilities(backend=name).deterministic


# ----------------------------------------------------------------------
# the registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_builtins_registered(self):
        assert {"serial", "process", "cluster"} <= set(available_backends())

    def test_make_executor_by_name(self):
        assert isinstance(make_executor("serial"), SerialExecutor)
        pool = make_executor("process", options=ProcessOptions(workers=2))
        try:
            assert isinstance(pool, ParallelExecutor)
            assert pool.max_workers == 2
        finally:
            pool.close()

    def test_option_kwargs_build_the_options_dataclass(self):
        pool = make_executor("process", workers=2, timeout=5.0, retries=3)
        try:
            assert pool.max_workers == 2
            assert pool.timeout == 5.0
            assert pool.retries == 3
        finally:
            pool.close()

    def test_unknown_backend_lists_available(self):
        with pytest.raises(KeyError, match="serial"):
            make_executor("teleport")

    def test_unknown_option_rejected(self):
        with pytest.raises(TypeError, match="unknown option"):
            make_executor("process", warp_factor=9)

    def test_wrong_options_type_rejected(self):
        with pytest.raises(TypeError, match="expects"):
            make_executor("process", options=SerialOptions())

    def test_options_and_kwargs_are_exclusive(self):
        with pytest.raises(TypeError, match="not both"):
            make_executor("process", options=ProcessOptions(), workers=2)

    def test_backend_info_exposes_options_dataclass(self):
        info = backend_info("cluster")
        assert info.options is ClusterOptions
        assert dataclasses.is_dataclass(info.options)
        assert info.summary

    def test_third_party_backend_plugs_in(self):
        @dataclasses.dataclass(frozen=True)
        class EchoOptions:
            shout: bool = False

        class EchoExecutor:
            def __init__(self, options, task, cache):
                self.options = options

            def run(self, specs, progress=None):
                return list(specs)

            def capabilities(self):
                return Capabilities(backend="echo")

            def close(self):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.close()

        register_backend("echo", EchoExecutor, EchoOptions, summary="test double")
        try:
            assert "echo" in available_backends()
            ex = make_executor("echo", shout=True)
            assert isinstance(ex, Executor)
            assert ex.options.shout
            assert ex.run([1, 2]) == [1, 2]
        finally:
            api_mod._REGISTRY.pop("echo", None)

    def test_non_dataclass_options_rejected_at_registration(self):
        with pytest.raises(TypeError):
            register_backend("bad", lambda o, t, c: None, options=dict)


class TestDeprecatedSurface:
    """The 1.x spellings were removed in 2.0; they fail loudly."""

    def test_positional_jobs_is_rejected(self):
        with pytest.raises(TypeError, match="registry name"):
            make_executor(4)

    def test_jobs_keyword_is_rejected(self):
        with pytest.raises(TypeError, match="jobs"):
            make_executor(jobs=2, timeout=9.0, retries=2)
        with pytest.raises(TypeError, match="max_workers"):
            make_executor("process", max_workers=2)

    def test_new_spelling_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            make_executor("serial")


# ----------------------------------------------------------------------
# defaults plumbing for named backends
# ----------------------------------------------------------------------
class TestBackendDefaults:
    def test_default_executor_honours_backend_name(self):
        with execution(backend="process", workers=2):
            with default_executor() as ex:
                assert isinstance(ex, ParallelExecutor)
                assert ex.max_workers == 2

    def test_jobs_fallback_unchanged(self):
        with execution(jobs=1):
            assert isinstance(default_executor(), SerialExecutor)
        with execution(jobs=3):
            with default_executor() as ex:
                assert isinstance(ex, ParallelExecutor)
                assert ex.max_workers == 3

    def test_default_executor_never_warns(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            with execution(jobs=2):
                default_executor().close()

    def test_cli_flags_reach_the_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["run", "fig1", "--executor", "cluster", "--workers", "3"]
        )
        assert args.executor == "cluster"
        assert args.workers == 3

    def test_cli_rejects_unknown_backend_fast(self):
        from repro.cli import main

        with pytest.raises(KeyError):
            main(["run", "tab1", "--executor", "teleport"])

    def test_cli_backends_command(self, capsys):
        from repro.cli import main

        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        for name in ("serial", "process", "cluster"):
            assert name in out


# ----------------------------------------------------------------------
# canonicalization audit (the digest substrate)
# ----------------------------------------------------------------------
class TestCanonicalization:
    def test_int_and_str_keys_do_not_collide(self):
        assert spec_digest({1: "a"}) != spec_digest({"1": "a"})

    def test_mixed_key_dict_is_insertion_order_invariant(self):
        a = {1: "x", "1": "y", 2.5: "z"}
        b = {2.5: "z", "1": "y", 1: "x"}
        assert spec_digest(a) == spec_digest(b)

    def test_true_and_one_keys_distinct_values_identical(self):
        # bool is a distinct canonical type from int in JSON
        assert spec_digest({"v": True}) != spec_digest({"v": 1})

    def test_float_values_are_repr_exact(self):
        assert spec_digest(0.1) != spec_digest(0.1 + 1e-17)

    def test_non_finite_floats_are_stable(self):
        assert spec_digest(float("nan")) == spec_digest(float("nan"))
        assert spec_digest(float("inf")) != spec_digest(float("-inf"))

    def test_set_iteration_order_cannot_leak(self):
        a = {"alpha", "beta", "gamma", "delta"}
        b = set(sorted(a, reverse=True))
        assert spec_digest(a) == spec_digest(b)
        assert spec_digest(frozenset(a)) == spec_digest(a)

    def test_ndarray_dtype_is_digest_relevant(self):
        x64 = np.array([1.0, 2.0], dtype=np.float64)
        x32 = np.array([1.0, 2.0], dtype=np.float32)
        assert spec_digest(x64) != spec_digest(x32)

    def test_bytes_supported(self):
        assert spec_digest(b"\x00\x01") != spec_digest(b"\x00\x02")
        assert spec_digest(b"\x00\x01") == spec_digest(bytes([0, 1]))

    def test_tuple_and_list_canonicalize_equal(self):
        assert spec_digest((1, 2, 3)) == spec_digest([1, 2, 3])

    def test_canonical_blob_is_deterministic_json(self):
        blob = _canonical_blob({"b": 2, "a": [0.5, {1, 2}]})
        assert blob == _canonical_blob({"a": [0.5, {2, 1}], "b": 2})


# ----------------------------------------------------------------------
# pickle round-trips (what travels to remote workers)
# ----------------------------------------------------------------------
class TestPickleRoundTrip:
    def test_spec_digest_not_carried_in_pickle(self):
        """The memoized digest must be recomputed, never trusted, on
        the receiving side (version-skew detection depends on it)."""
        spec = quick_spec()
        spec.digest()  # memoize
        assert "_digest" in spec.__dict__
        clone = pickle.loads(pickle.dumps(spec))
        assert "_digest" not in clone.__dict__
        assert clone.digest() == spec.digest()

    @pytest.mark.parametrize("protocol", range(2, pickle.HIGHEST_PROTOCOL + 1))
    def test_spec_round_trip_every_protocol(self, protocol):
        spec = quick_spec()
        clone = pickle.loads(pickle.dumps(spec, protocol=protocol))
        assert clone == spec
        assert clone.digest() == spec.digest()
        assert _canonical_blob(clone) == _canonical_blob(spec)

    @pytest.mark.parametrize("protocol", range(2, pickle.HIGHEST_PROTOCOL + 1))
    def test_result_round_trip_every_protocol(self, protocol):
        result = measure_spec(quick_spec())
        clone = pickle.loads(pickle.dumps(result, protocol=protocol))
        assert clone.metrics == result.metrics
        assert clone.spec_digest == result.spec_digest
        assert clone.server_utilization == result.server_utilization
        assert np.array_equal(clone.ground_truth(), result.ground_truth())
        assert np.array_equal(clone.raw_samples(), result.raw_samples())

    def test_double_pickle_is_stable(self):
        """Pickling a pickle-clone changes nothing (worker->cache path)."""
        spec = quick_spec()
        once = pickle.loads(pickle.dumps(spec))
        twice = pickle.loads(pickle.dumps(once))
        assert twice.digest() == spec.digest()
