"""Tests for the formal Executor API and the canonicalization audit.

* the `Executor` protocol + `Capabilities` introspection,
* construction by name (`make_executor` over `EXECUTORS`, option
  kwargs, rejection of unknown names/options and the removed `jobs=`
  spelling),
* the `default_executor` / `execution` plumbing and the CLI's
  `--workers` flag,
* `_canonical` regression tests: sort-order and float/key
  canonicalization, plus spec/result pickle round-trips across
  protocol versions.
"""

import pickle
import warnings

import numpy as np
import pytest

from repro.exec import (
    EXECUTORS,
    Capabilities,
    Executor,
    ParallelExecutor,
    RunSpec,
    SerialExecutor,
    default_executor,
    execution,
    make_executor,
    spec_digest,
)
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
        try:
            for executor in (serial, pool):
                assert isinstance(executor, Executor)
        finally:
            pool.close()

    def test_capabilities_are_backend_specific(self):
        assert SerialExecutor().capabilities() == Capabilities(backend="serial")
        pool = ParallelExecutor(max_workers=3)
        try:
            assert pool.capabilities() == Capabilities(backend="process", workers=3)
        finally:
            pool.close()


# ----------------------------------------------------------------------
# construction by name
# ----------------------------------------------------------------------
class TestRegistry:
    def test_builtins_registered(self):
        assert EXECUTORS == ("serial", "process")

    def test_make_executor_by_name(self):
        assert isinstance(make_executor("serial"), SerialExecutor)
        pool = make_executor("process", workers=2)
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
        with pytest.raises(ValueError, match="available: serial, process$"):
            make_executor("teleport")
        # The socket cluster was removed in 4.0; its name is unknown now.
        with pytest.raises(ValueError, match="unknown executor backend 'cluster'"):
            make_executor("cluster", workers=2)

    def test_unknown_option_rejected(self):
        for backend in EXECUTORS:
            with pytest.raises(TypeError, match="warp_factor"):
                make_executor(backend, warp_factor=9)


class TestDeprecatedSurface:
    """The 1.x spellings were removed in 2.0; they fail loudly."""

    def test_positional_jobs_is_rejected(self):
        with pytest.raises(ValueError, match="unknown executor backend 4"):
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
        """``workers`` alone names the backend; there is no separate
        backend default to set."""
        with execution(workers=2):
            with default_executor() as ex:
                assert isinstance(ex, ParallelExecutor)
                assert ex.max_workers == 2
        with pytest.raises(TypeError, match="backend"):
            with execution(backend="process"):
                pass

    def test_workers_alone_pick_serial_or_process(self):
        assert isinstance(default_executor(), SerialExecutor)
        with execution(workers=1):
            assert isinstance(default_executor(), SerialExecutor)
        with execution(workers=3):
            with default_executor() as ex:
                assert isinstance(ex, ParallelExecutor)
                assert ex.max_workers == 3

    def test_default_executor_never_warns(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            with execution(workers=2):
                default_executor().close()

    def test_cli_flags_reach_the_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["run", "fig1", "--workers", "3"])
        assert args.workers == 3
        assert not hasattr(args, "executor")

    @pytest.mark.parametrize(
        "workers, kind, size",
        [
            (None, SerialExecutor, None),
            ("1", SerialExecutor, None),
            ("4", ParallelExecutor, 4),
        ],
    )
    def test_cli_workers_alone_pick_the_backend(self, workers, kind, size):
        from repro.cli import _execution_scope, build_parser

        argv = ["run", "tab1"] + (["--workers", workers] if workers else [])
        with _execution_scope(build_parser().parse_args(argv)):
            with default_executor() as ex:
                assert type(ex) is kind
                if size is not None:
                    assert ex.max_workers == size

    def test_cli_rejects_unknown_backend_fast(self, capsys):
        """``--executor`` was removed in 4.0 (``--workers`` decides);
        any use of it fails at parse time."""
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["run", "tab1", "--executor", "teleport"])
        assert exc.value.code == 2
        assert "--executor" in capsys.readouterr().err

    def test_cli_backends_command(self, capsys):
        from repro.cli import main

        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        for name in ("serial", "process"):
            assert name in out
        assert "cluster" not in out


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
