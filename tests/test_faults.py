"""Tests for the fault-injection layer and executor resilience.

Four layers, tested separately so failures localize:

* `FaultPlan` / `FaultInjector` — seeded determinism, serialization,
  at-most-once firing;
* cache hardening — quarantine, checksums and the
  `corrupt_cache_entry` chaos hook;
* the execution defaults and the CLI flags that set them;
* restart from cache — a process-pool batch interrupted partway is
  re-run on a fresh executor over the same cache: exactly the finished
  specs are cache hits, only the missing specs run, the results are
  bit-identical to `SerialExecutor`, and nothing hangs (the CI chaos
  job also wraps this module in a hard timeout).
"""

import json
import threading

import pytest

from repro.exec import (
    QUARANTINE_DIR,
    ParallelExecutor,
    ResultCache,
    SerialExecutor,
    Telemetry,
)
from repro.exec.executors import execution, get_execution_defaults
from repro.faults import (
    FAULT_KINDS,
    KIND_SITES,
    ChaosSpec,
    FaultAction,
    FaultPlan,
    chaos_task,
    result_signature,
)


# ----------------------------------------------------------------------
# FaultPlan / FaultInjector
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_generation_is_deterministic(self):
        a = FaultPlan.generate_live(42)
        b = FaultPlan.generate_live(42)
        assert a == b
        assert a.digest() == b.digest()
        assert FaultPlan.generate_live(43).digest() != a.digest()

    def test_json_roundtrip_preserves_digest(self):
        plan = FaultPlan.generate_live(7, n_faults=5, crash_after_s=1.5)
        again = FaultPlan.from_json(plan.to_json())
        assert again == plan
        assert again.digest() == plan.digest()

    def test_version_mismatch_rejected(self):
        blob = json.loads(FaultPlan.generate_live(1).to_json())
        blob["version"] = 99
        with pytest.raises(ValueError, match="version"):
            FaultPlan.from_json(json.dumps(blob))

    def test_action_validation(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultAction(kind="meteor_strike", site="fleet.spawn")
        with pytest.raises(ValueError, match="cannot fire at site"):
            FaultAction(kind="client_proc_crash", site="cache.put")
        with pytest.raises(ValueError, match="nth"):
            FaultAction(kind="client_proc_crash", site="fleet.spawn", nth=0)

    def test_every_kind_has_valid_sites(self):
        assert set(KIND_SITES) == set(FAULT_KINDS)
        for kind, sites in KIND_SITES.items():
            for site in sites:
                FaultAction(kind=kind, site=site)  # must not raise

    def test_cluster_kinds_are_retired(self):
        """The socket-cluster fault kinds and sites went with the
        cluster executor in 4.0; a plan naming one is refused."""
        for kind in (
            "worker_crash",
            "worker_hang",
            "slow_worker",
            "drop_frame",
            "truncate_frame",
            "corrupt_result",
            "coordinator_restart",
        ):
            assert kind not in FAULT_KINDS
            with pytest.raises(ValueError, match="unknown fault kind"):
                FaultAction(kind=kind, site="worker.task")
        for sites in KIND_SITES.values():
            for site in sites:
                assert not site.startswith(("worker.", "coordinator."))

    def test_partition_desync_kind_is_retired(self):
        """The window-frame fault went with the multi-process
        partitioned mode; a plan naming it is refused, and no seeded
        plan draws it."""
        assert "partition_desync" not in FAULT_KINDS
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultAction(kind="partition_desync", site="partition.frame")
        assert "partition_desync" not in FaultPlan.generate_live(3, n_faults=32).kinds()

    def test_generate_live_palette_and_determinism(self):
        from repro.faults.plan import LIVE_FAULT_KINDS

        a = FaultPlan.generate_live(7)
        b = FaultPlan.generate_live(7)
        assert a.digest() == b.digest()
        assert set(a.kinds()) <= set(LIVE_FAULT_KINDS)


class TestFaultInjector:
    def test_fires_on_nth_arrival_at_most_once(self):
        plan = FaultPlan(
            seed=0,
            actions=(FaultAction(kind="client_proc_crash", site="fleet.spawn", nth=2),),
        )
        inj = plan.injector()
        assert inj.fire("fleet.spawn") is None  # arrival 1
        action = inj.fire("fleet.spawn")  # arrival 2: fires
        assert action is not None and action.kind == "client_proc_crash"
        assert inj.fire("fleet.spawn") is None  # consumed
        assert inj.fired == [("fleet.spawn", 2, "client_proc_crash")]
        assert inj.exhausted

    def test_sites_count_independently(self):
        plan = FaultPlan(
            seed=0,
            actions=(
                FaultAction(kind="client_proc_crash", site="fleet.spawn", nth=1),
                FaultAction(kind="fleet_frame_drop", site="fleet.heartbeat", nth=1),
            ),
        )
        inj = plan.injector()
        assert inj.fire("fleet.heartbeat").kind == "fleet_frame_drop"
        assert inj.fire("fleet.spawn").kind == "client_proc_crash"
        assert inj.counts() == {"fleet.spawn": 1, "fleet.heartbeat": 1}

    def test_shared_injector_never_refires_across_restarts(self):
        """The live harness shares one injector between the fleet and
        the server for the whole experiment; a consumed action must
        not fire again, however many connections follow."""
        plan = FaultPlan(
            seed=0,
            actions=(
                FaultAction(kind="endpoint_reset", site="server.connection", nth=1),
            ),
        )
        inj = plan.injector()
        assert inj.fire("server.connection").kind == "endpoint_reset"
        for _ in range(10):  # later requests, reconnects included
            assert inj.fire("server.connection") is None


# ----------------------------------------------------------------------
# cache hardening (quarantine, checksums, chaos hook)
# ----------------------------------------------------------------------
class TestCacheHardening:
    def _store_one(self, tmp_path, payload=1):
        cache = ResultCache(tmp_path / "cache")
        spec = ChaosSpec(payload=payload, salt=99)
        cache.put(spec, chaos_task(spec))
        return cache, spec

    def test_corrupt_meta_is_a_quarantined_miss(self, tmp_path):
        cache, spec = self._store_one(tmp_path)
        entry = cache._entry_dir(spec.digest())
        (entry / "meta.json").write_text("{not json")
        with pytest.warns(RuntimeWarning, match="quarantined"):
            assert cache.get(spec) is None
        assert cache.quarantined == 1
        assert (cache.root / QUARANTINE_DIR).exists()
        assert len(cache) == 0  # quarantine area is not an entry

    def test_truncated_payload_is_a_quarantined_miss(self, tmp_path):
        cache, spec = self._store_one(tmp_path)
        entry = cache._entry_dir(spec.digest())
        payload = (entry / "outcome.pkl").read_bytes()
        (entry / "outcome.pkl").write_bytes(payload[: len(payload) // 2])
        with pytest.warns(RuntimeWarning, match="checksum|unpicklable"):
            assert cache.get(spec) is None
        # The miss costs one re-simulation, never a crash.
        cache.put(spec, chaos_task(spec))
        again = cache.get(spec)
        assert again is not None and again.from_cache

    def test_bitrot_is_caught_by_checksum(self, tmp_path):
        cache, spec = self._store_one(tmp_path)
        entry = cache._entry_dir(spec.digest())
        data = bytearray((entry / "outcome.pkl").read_bytes())
        data[len(data) // 2] ^= 0xFF
        (entry / "outcome.pkl").write_bytes(bytes(data))
        with pytest.warns(RuntimeWarning, match="checksum"):
            assert cache.get(spec) is None

    def test_corrupt_cache_entry_fault_is_contained(self, tmp_path):
        """The chaos hook corrupts a stored entry; the next read must
        quarantine it and report a miss (the executor then re-runs)."""
        plan = FaultPlan(
            seed=0,
            actions=(FaultAction(kind="corrupt_cache_entry", site="cache.put", nth=1),),
        )
        cache = ResultCache(tmp_path / "cache", injector=plan.injector())
        spec = ChaosSpec(payload=5, salt=1)
        cache.put(spec, chaos_task(spec))  # fault fires here
        with pytest.warns(RuntimeWarning):
            assert cache.get(spec) is None
        cache.put(spec, chaos_task(spec))  # fault consumed: clean store
        fresh = cache.get(spec)
        assert fresh is not None
        assert result_signature(fresh) == result_signature(chaos_task(spec))


# ----------------------------------------------------------------------
# execution defaults / CLI plumbing
# ----------------------------------------------------------------------
class TestResilienceDefaults:
    def test_scoped_defaults_roundtrip(self):
        before = get_execution_defaults()
        with execution(retries=2, workers=3) as active:
            assert active["retries"] == 2
            assert active["workers"] == 3
        assert get_execution_defaults() == before
        assert set(before) == {"cache_dir", "workers", "retries"}

    def test_retries_map_to_process_backend(self):
        from repro.exec.executors import default_executor

        with execution(workers=2, retries=4):
            with default_executor(task=chaos_task) as ex:
                assert ex.retries == 4

    def test_resilience_defaults_reach_built_executors(self):
        from repro.exec.executors import default_executor

        with execution(retries=2):
            assert isinstance(default_executor(), SerialExecutor)
            with execution(workers=2):
                with default_executor() as ex:
                    assert isinstance(ex, ParallelExecutor)
                    assert ex.retries == 2

    def test_cli_parses_resilience_flags(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["run", "fig7", "--retries", "2"])
        assert args.retries == 2
        assert not hasattr(args, "min_healthy_workers")
        assert not hasattr(args, "fault_plan")


# ----------------------------------------------------------------------
# restart from cache
# ----------------------------------------------------------------------
class TestChaosWorkload:
    def test_chaos_task_is_pure(self):
        spec = ChaosSpec(payload=3, salt=11)
        assert result_signature(chaos_task(spec)) == result_signature(chaos_task(spec))
        assert spec.digest() == ChaosSpec(payload=3, salt=11).digest()
        assert spec.digest() != ChaosSpec(payload=4, salt=11).digest()


class _Interrupt(Exception):
    """Raised by the progress hook to cut a batch short."""


class _StopAfter:
    """Progress hook that records each completion, then raises on the
    ``k``-th — the batch is interrupted as a killed driver would be."""

    def __init__(self, k):
        self.k = k
        self.digests = []

    def __call__(self, event):
        self.digests.append(event.digest)
        if len(self.digests) == self.k:
            raise _Interrupt(f"interrupted after {self.k} completions")


def _within(timeout_s, fn):
    """Run ``fn`` on a watchdog thread; a hang fails the test."""
    box = {}

    def target():
        try:
            box["value"] = fn()
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            box["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout_s)
    assert not thread.is_alive(), f"no result within {timeout_s}s"
    if "error" in box:
        raise box["error"]
    return box["value"]


class TestRestartFromCache:
    """An interrupted batch resumes from the result cache.

    The process pool stores each result in the cache before it emits
    the result's progress event, so an interrupt raised from the
    ``k``-th event leaves exactly ``k`` finished specs in the cache.
    """

    N_SPECS = 12

    def _specs(self):
        return [ChaosSpec(payload=i, salt=5) for i in range(self.N_SPECS)]

    @pytest.mark.parametrize("k", [1, 5, 11])
    def test_interrupted_pool_batch_resumes_from_cache(self, tmp_path, k):
        specs = self._specs()
        with SerialExecutor(task=chaos_task) as serial:
            reference = [result_signature(r) for r in serial.run(specs)]
        cache = ResultCache(tmp_path / "cache")

        def interrupted():
            hook = _StopAfter(k)
            with ParallelExecutor(2, task=chaos_task, cache=cache) as pool:
                with pytest.raises(_Interrupt):
                    pool.run(specs, progress=hook)
            return hook.digests

        finished = _within(60.0, interrupted)
        assert len(finished) == k
        assert len(cache) == k

        def resumed():
            telemetry = Telemetry()
            with ParallelExecutor(2, task=chaos_task, cache=cache) as pool:
                results = pool.run(specs, progress=telemetry)
            return results, telemetry

        results, telemetry = _within(60.0, resumed)
        hits = {e.digest for e in telemetry.events if e.cached}
        ran = [e.digest for e in telemetry.events if not e.cached]
        # Exactly the k finished specs are hits ...
        assert hits == set(finished)
        # ... and only the missing specs run, each once.
        assert sorted(ran) == sorted(
            s.digest() for s in specs if s.digest() not in hits
        )
        assert telemetry.retries == 0
        assert [result_signature(r) for r in results] == reference
        assert len(cache) == self.N_SPECS
