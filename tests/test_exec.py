"""Tests for the unified execution layer (repro.exec).

Covers the four guarantees the layer makes:

* serial-vs-parallel determinism (identical ``ProcedureResult``
  estimates, bit for bit),
* cache hit/miss/invalidation round-trips,
* the executor crash-retry and timeout paths, and
* RunSpec digest stability — including across process boundaries.
"""

import dataclasses
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.procedure import MeasurementProcedure, ProcedureConfig
from repro.exec import (
    ParallelExecutor,
    ResultCache,
    RunSpec,
    SerialExecutor,
    Telemetry,
    execute_specs,
    execution,
    get_execution_defaults,
    make_executor,
)
from repro.exec import cache as cache_mod
from repro.exec.executors import ExecError, ExecTimeout
from repro.measure import measure_spec
from repro.workloads.memcached import MemcachedWorkload


def quick_config(**overrides):
    defaults = dict(
        workload=MemcachedWorkload(),
        target_utilization=0.5,
        num_instances=2,
        connections_per_instance=8,
        warmup_samples=100,
        measurement_samples_per_instance=400,
        min_runs=2,
        max_runs=3,
        keep_raw=True,
        seed=1,
    )
    defaults.update(overrides)
    return ProcedureConfig(**defaults)


def quick_spec(**overrides):
    defaults = dict(
        workload=MemcachedWorkload(),
        target_utilization=0.5,
        num_instances=2,
        connections_per_instance=8,
        warmup_samples=100,
        measurement_samples_per_instance=400,
        keep_raw=True,
        seed=1,
        run_index=0,
    )
    defaults.update(overrides)
    return RunSpec(**defaults)


# ----------------------------------------------------------------------
# RunSpec identity and digests
# ----------------------------------------------------------------------
class TestRunSpec:
    def test_requires_exactly_one_load_spec(self):
        with pytest.raises(ValueError):
            RunSpec(workload=MemcachedWorkload())
        with pytest.raises(ValueError):
            RunSpec(
                workload=MemcachedWorkload(),
                total_rate_rps=1000.0,
                target_utilization=0.5,
            )

    def test_equal_content_equal_digest(self):
        assert quick_spec().digest() == quick_spec().digest()
        assert quick_spec() == quick_spec()
        assert hash(quick_spec()) == hash(quick_spec())

    def test_every_field_is_digest_relevant_except_tag(self):
        base = quick_spec()
        changed = {
            "target_utilization": 0.6,
            "num_instances": 3,
            "connections_per_instance": 4,
            "warmup_samples": 50,
            "measurement_samples_per_instance": 500,
            "quantiles": (0.5, 0.9),
            "combine": "median",
            "keep_raw": False,
            "seed": 2,
            "run_index": 1,
        }
        for name, value in changed.items():
            other = base.replace(**{name: value})
            assert other.digest() != base.digest(), name
        # The cosmetic tag must NOT change identity (cache keys).
        assert base.replace(tag="pretty label").digest() == base.digest()

    def test_workload_parameters_change_digest(self):
        a = quick_spec(workload=MemcachedWorkload(get_fraction=0.9))
        b = quick_spec(workload=MemcachedWorkload(get_fraction=0.5))
        assert a.digest() != b.digest()

    def test_digest_stable_across_process_boundary(self):
        """Property: the digest is a pure function of spec content —
        recomputing it in a fresh interpreter yields the same hex."""
        code = (
            "from repro.exec import RunSpec\n"
            "from repro.workloads.memcached import MemcachedWorkload\n"
            "s = RunSpec(workload=MemcachedWorkload(), target_utilization=0.5,\n"
            "            num_instances=2, connections_per_instance=8,\n"
            "            warmup_samples=100, measurement_samples_per_instance=400,\n"
            "            keep_raw=True, seed=1, run_index=0)\n"
            "print(s.digest())\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ},
        )
        assert out.stdout.strip() == quick_spec().digest()

    def test_spec_is_picklable_and_digest_survives(self):
        import pickle

        spec = quick_spec()
        clone = pickle.loads(pickle.dumps(spec))
        assert clone.digest() == spec.digest()

    def test_run_spec_matches_procedure_run_once(self):
        proc = MeasurementProcedure(quick_config())
        direct = measure_spec(proc.spec_for(0))
        via_proc = proc.run_once(0)
        assert direct.metrics == via_proc.metrics
        assert direct.events_processed == via_proc.events_processed > 0


# ----------------------------------------------------------------------
# serial vs parallel determinism
# ----------------------------------------------------------------------
class TestDeterminism:
    def test_serial_and_parallel_estimates_identical(self):
        with SerialExecutor() as ex:
            serial = MeasurementProcedure(quick_config(), executor=ex).run()
        with ParallelExecutor(max_workers=2) as ex:
            parallel = MeasurementProcedure(quick_config(), executor=ex).run()
        assert serial.estimates == parallel.estimates
        assert serial.dispersion == parallel.dispersion
        assert [r.metrics for r in serial.runs] == [r.metrics for r in parallel.runs]

    def test_parallel_preserves_submission_order(self):
        specs = [quick_spec(run_index=i) for i in range(4)]
        with ParallelExecutor(max_workers=2) as ex:
            results = ex.run(specs)
        assert [r.run_index for r in results] == [0, 1, 2, 3]

    def test_make_executor_dispatch(self):
        assert isinstance(make_executor("serial"), SerialExecutor)
        ex = make_executor("process", workers=2)
        assert isinstance(ex, ParallelExecutor)
        ex.close()


# ----------------------------------------------------------------------
# cache
# ----------------------------------------------------------------------
class TestCache:
    def test_miss_then_hit_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = quick_spec()
        assert cache.get(spec) is None
        first = measure_spec(spec)
        cache.put(spec, first)
        again = cache.get(spec)
        assert again is not None
        assert again.from_cache
        assert again.metrics == first.metrics
        assert np.array_equal(again.raw_samples(), first.raw_samples())
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1
        assert spec in cache

    def test_raw_samples_stored_alongside(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = quick_spec()
        outcome = measure_spec(spec)
        cache.put(spec, outcome)
        raw_path = cache.raw_path(spec)
        assert raw_path is not None
        assert np.array_equal(np.load(raw_path), outcome.raw_samples())

    def test_version_bump_invalidates(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path)
        spec = quick_spec()
        cache.put(spec, measure_spec(spec))
        assert len(cache) == 1
        monkeypatch.setattr(cache_mod, "CACHE_SCHEMA", cache_mod.CACHE_SCHEMA + 1)
        assert cache.get(spec) is None  # stale entry deleted on sight
        assert len(cache) == 0

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = quick_spec()
        entry = cache.put(spec, measure_spec(spec))
        (entry / "outcome.pkl").write_bytes(b"not a pickle")
        assert cache.get(spec) is None

    def test_executor_consults_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = quick_spec()
        with SerialExecutor(cache=cache) as ex:
            a = ex.run([spec])[0]
            b = ex.run([spec])[0]
        assert not a.from_cache and b.from_cache
        assert a.metrics == b.metrics

    def test_parallel_executor_uses_cache_across_modes(self, tmp_path):
        """A serial run primes the cache; a parallel run reuses it."""
        cache = ResultCache(tmp_path)
        specs = [quick_spec(run_index=i) for i in range(3)]
        with SerialExecutor(cache=cache) as ex:
            warm = ex.run(specs)
        telemetry = Telemetry()
        with ParallelExecutor(max_workers=2, cache=cache) as ex:
            cold = ex.run(specs, progress=telemetry)
        assert telemetry.cache_hits == 3
        assert [r.metrics for r in warm] == [r.metrics for r in cold]


# ----------------------------------------------------------------------
# crash / timeout handling (generic tasks, module-level for pickling)
# ----------------------------------------------------------------------
def _crash_once_task(arg):
    """Dies hard (os._exit) on first sight of each marker; then works."""
    marker, value = arg
    path = Path(marker)
    if not path.exists():
        path.write_text("seen")
        os._exit(13)  # simulates a segfault/OOM-kill: breaks the pool
    return value * 2


def _always_crash_task(arg):
    os._exit(13)


def _sleepy_task(arg):
    time.sleep(arg)
    return arg


def _failing_task(arg):
    raise ValueError(f"deterministic failure on {arg!r}")


def _double_task(arg):
    return arg * 2


class TestCrashRetry:
    def test_worker_crash_is_retried(self, tmp_path):
        marker = tmp_path / "crash-marker"
        with ParallelExecutor(
            max_workers=2, task=_crash_once_task, retries=2
        ) as ex:
            results = ex.run([(str(marker), 21)])
        assert results == [42]

    def test_crash_retry_recovers_whole_batch(self, tmp_path):
        """Several specs each crash their first worker; the pool is
        rebuilt and every spec still completes with the right value."""
        specs = [(str(tmp_path / f"marker-{i}"), i) for i in range(3)]
        with ParallelExecutor(
            max_workers=2, task=_crash_once_task, retries=4
        ) as ex:
            results = ex.run(specs)
        assert results == [0, 2, 4]

    def test_exhausted_retries_raise(self):
        with pytest.raises(ExecError):
            with ParallelExecutor(
                max_workers=1, task=_always_crash_task, retries=1
            ) as ex:
                ex.run([(None, 1)])

    def test_timeout_raises_after_retries(self):
        with pytest.raises(ExecTimeout):
            with ParallelExecutor(
                max_workers=1, task=_sleepy_task, timeout=0.2, retries=0
            ) as ex:
                ex.run([1.5])

    def test_fast_tasks_beat_the_timeout(self):
        with ParallelExecutor(
            max_workers=2, task=_double_task, timeout=30.0, retries=0
        ) as ex:
            assert ex.run([1, 2, 3]) == [2, 4, 6]

    def test_deterministic_exception_propagates_immediately(self):
        with pytest.raises(ValueError, match="deterministic failure"):
            with ParallelExecutor(max_workers=2, task=_failing_task) as ex:
                ex.run(["x"])

    def test_serial_executor_propagates_exceptions(self):
        with pytest.raises(ValueError):
            SerialExecutor(task=_failing_task).run(["x"])


# ----------------------------------------------------------------------
# defaults plumbing & telemetry
# ----------------------------------------------------------------------
class TestDefaults:
    def test_execution_context_restores(self):
        before = get_execution_defaults()
        with execution(workers=4, cache_dir="/tmp/somewhere"):
            inside = get_execution_defaults()
            assert inside["workers"] == 4
            assert inside["cache_dir"] == "/tmp/somewhere"
        assert get_execution_defaults() == before

    def test_execute_specs_uses_defaults(self, tmp_path):
        with execution(workers=1, cache_dir=str(tmp_path)):
            spec = quick_spec()
            first = execute_specs([spec])[0]
            second = execute_specs([spec])[0]
        assert not first.from_cache and second.from_cache

    def test_invalid_workers_rejected(self):
        with pytest.raises(ValueError):
            with execution(workers=0):
                pass

    def test_telemetry_summary(self):
        telemetry = Telemetry()
        with SerialExecutor() as ex:
            ex.run([quick_spec(run_index=i) for i in range(2)], progress=telemetry)
        summary = telemetry.summary()
        assert summary["runs"] == 2
        assert summary["cache_hits"] == 0
        assert summary["events_processed"] > 0
        assert summary["wall_s"] > 0
