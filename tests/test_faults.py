"""Tests for the fault-injection layer and the self-healing executor.

Five layers, tested separately so failures localize:

* `FaultPlan` / `FaultInjector` — seeded determinism, serialization,
  at-most-once firing;
* resilience units — error classification, `_Batch` retry budgets
  with backoff, the worker `CircuitBreaker` (all clock-injected, no
  sleeping), cache quarantine;
* `Coordinator.close()` — idempotency and the no-leaked-FD promise;
* graceful degradation — a cluster below its healthy-worker floor
  falls back to the process backend instead of stalling;
* the chaos invariant — a seeded matrix (8 fault-plan seeds x cluster
  sizes 1-3, every fault kind exercised at least once) asserting that
  each run is bit-identical to `SerialExecutor` or fails with a
  clean, attributed `ExecError` — never a hang, never silent loss.
"""

import json
import os
import socket
import time

import pytest

from repro.exec import (
    QUARANTINE_DIR,
    CircuitBreaker,
    ClusterExecutor,
    ClusterOptions,
    HealthPolicy,
    ResultCache,
    RetryPolicy,
    SerialExecutor,
    TRANSIENT_ERROR_TYPES,
    classify_error,
)
from repro.exec import protocol as proto
from repro.exec.distributed import Coordinator, _Batch
from repro.exec.executors import execution, get_execution_defaults
from repro.faults import (
    FAULT_KINDS,
    KIND_SITES,
    ChaosSpec,
    FaultAction,
    FaultInjector,
    FaultPlan,
    chaos_task,
    result_signature,
    run_chaos,
)

# The seeded chaos matrix: 8 plan seeds x cluster sizes 1-3.
CHAOS_SEEDS = tuple(range(8))
CHAOS_WORKERS = (1, 2, 3)


# ----------------------------------------------------------------------
# FaultPlan / FaultInjector
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_generation_is_deterministic(self):
        a = FaultPlan.generate(42)
        b = FaultPlan.generate(42)
        assert a == b
        assert a.digest() == b.digest()
        assert FaultPlan.generate(43).digest() != a.digest()

    def test_json_roundtrip_preserves_digest(self):
        plan = FaultPlan.generate(7, n_faults=5, hang_s=1.5)
        again = FaultPlan.from_json(plan.to_json())
        assert again == plan
        assert again.digest() == plan.digest()

    def test_version_mismatch_rejected(self):
        blob = json.loads(FaultPlan.generate(1).to_json())
        blob["version"] = 99
        with pytest.raises(ValueError, match="version"):
            FaultPlan.from_json(json.dumps(blob))

    def test_action_validation(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultAction(kind="meteor_strike", site="worker.task")
        with pytest.raises(ValueError, match="cannot fire at site"):
            FaultAction(kind="worker_crash", site="cache.put")
        with pytest.raises(ValueError, match="nth"):
            FaultAction(kind="worker_crash", site="worker.task", nth=0)

    def test_every_kind_has_valid_sites(self):
        assert set(KIND_SITES) == set(FAULT_KINDS)
        for kind, sites in KIND_SITES.items():
            for site in sites:
                FaultAction(kind=kind, site=site)  # must not raise

    def test_matrix_seeds_cover_every_injectable_kind(self):
        """The chaos matrix below exercises every distributed fault kind
        at least once (coordinator_restart is added by the recovery
        test; live kinds live in FaultPlan.generate_live's palette, so
        historical seeded plans stay bit-identical)."""
        from repro.faults.plan import LIVE_FAULT_KINDS

        kinds = set()
        for seed in CHAOS_SEEDS:
            kinds |= set(FaultPlan.generate(seed).kinds())
        assert kinds == (
            set(FAULT_KINDS)
            - {"coordinator_restart"}
            - set(LIVE_FAULT_KINDS)
        )

    def test_partition_desync_kind_is_retired(self):
        """The window-frame fault went with the multi-process
        partitioned mode; a plan naming it is refused, and no seeded
        plan draws it."""
        assert "partition_desync" not in FAULT_KINDS
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultAction(kind="partition_desync", site="partition.frame")
        assert "partition_desync" not in FaultPlan.generate(seed=3, n_faults=32).kinds()

    def test_generate_live_palette_and_determinism(self):
        from repro.faults.plan import LIVE_FAULT_KINDS

        a = FaultPlan.generate_live(7)
        b = FaultPlan.generate_live(7)
        assert a.digest() == b.digest()
        assert set(a.kinds()) <= set(LIVE_FAULT_KINDS)
        # The live palette is decoupled: same seed, different stream.
        assert a.digest() != FaultPlan.generate(7).digest()


class TestFaultInjector:
    def test_fires_on_nth_arrival_at_most_once(self):
        plan = FaultPlan(
            seed=0,
            actions=(FaultAction(kind="worker_crash", site="worker.task", nth=2),),
        )
        inj = plan.injector()
        assert inj.fire("worker.task") is None  # arrival 1
        action = inj.fire("worker.task")  # arrival 2: fires
        assert action is not None and action.kind == "worker_crash"
        assert inj.fire("worker.task") is None  # consumed
        assert inj.fired == [("worker.task", 2, "worker_crash")]
        assert inj.exhausted

    def test_sites_count_independently(self):
        plan = FaultPlan(
            seed=0,
            actions=(
                FaultAction(kind="worker_crash", site="worker.task", nth=1),
                FaultAction(kind="corrupt_result", site="worker.result", nth=1),
            ),
        )
        inj = plan.injector()
        assert inj.fire("worker.result").kind == "corrupt_result"
        assert inj.fire("worker.task").kind == "worker_crash"
        assert inj.counts() == {"worker.task": 1, "worker.result": 1}

    def test_shared_injector_never_refires_across_restarts(self):
        """The harness shares one injector across coordinator restarts;
        a consumed coordinator_restart must not fire again."""
        plan = FaultPlan(
            seed=0,
            actions=(
                FaultAction(kind="coordinator_restart", site="coordinator.loop", nth=1),
            ),
        )
        inj = plan.injector()
        assert inj.fire("coordinator.loop").kind == "coordinator_restart"
        for _ in range(10):  # the "restarted" run loop
            assert inj.fire("coordinator.loop") is None

    def test_injector_duck_types_as_plan(self):
        inj = FaultPlan.generate(5).injector()
        assert inj.injector() is inj  # ClusterOptions.fault_plan accepts either
        assert FaultPlan.from_json(inj.to_json()) == inj.plan


# ----------------------------------------------------------------------
# error classification & retry budgets
# ----------------------------------------------------------------------
class TestClassifyError:
    @pytest.mark.parametrize("name", sorted(TRANSIENT_ERROR_TYPES))
    def test_transient_types(self, name):
        assert classify_error(name)

    @pytest.mark.parametrize(
        "name", ["ValueError", "KeyError", "ZeroDivisionError", "AssertionError", ""]
    )
    def test_deterministic_types(self, name):
        assert not classify_error(name)

    def test_repr_fallback_for_old_workers(self):
        assert classify_error("", "OSError('disk on fire')")
        assert classify_error("", "MemoryError()")
        assert not classify_error("", "ValueError('bad spec')")

    def test_dotted_names(self):
        assert classify_error("pickle.PicklingError")


def _mini_batch(n=2, retry=None, lease_s=60.0):
    digests = {i: f"d{i}" for i in range(n)}
    return _Batch(range(n), digests, lease_s, retry=retry)


class TestTaskErrorClassification:
    def test_transient_error_is_requeued(self):
        batch = _mini_batch(retry=RetryPolicy(max_attempts=3, backoff_base_s=0.0))
        lease = batch.next_task(now=0.0, conn_id=1)
        assert batch.task_error(
            lease.lease_id, "OSError('enospc')", "tb", error_type="OSError", now=0.0
        )
        assert batch.failed is None
        assert lease.index in batch.pending  # back in the queue

    def test_deterministic_error_fails_fast(self):
        batch = _mini_batch()
        lease = batch.next_task(now=0.0, conn_id=1)
        assert not batch.task_error(
            lease.lease_id, "ValueError('boom')", "tb", error_type="ValueError"
        )
        assert batch.failed is not None
        assert "ValueError" in batch.failed

    def test_transient_budget_exhaustion_fails_batch(self):
        batch = _mini_batch(retry=RetryPolicy(max_attempts=2, backoff_base_s=0.0))
        for _ in range(2):
            lease = batch.next_task(now=0.0, conn_id=1)
            batch.task_error(
                lease.lease_id, "MemoryError()", "tb", error_type="MemoryError"
            )
        assert batch.failed is not None
        assert "retry budget" in batch.failed

    def test_backoff_delays_requeue(self):
        retry = RetryPolicy(
            max_attempts=5, backoff_base_s=0.5, backoff_cap_s=2.0, jitter_seed=1
        )
        batch = _mini_batch(n=1, retry=retry)
        lease = batch.next_task(now=0.0, conn_id=1)
        batch.task_error(lease.lease_id, "OSError()", "tb", error_type="OSError", now=0.0)
        # Still cooling down: not eligible immediately...
        assert batch.next_task(now=0.0, conn_id=1) is None
        assert batch.not_before[0] >= 0.5  # at least the base delay
        # ...but eligible once the (capped) delay has elapsed.
        assert batch.next_task(now=2.1, conn_id=1) is not None

    def test_backoff_schedule_is_deterministic_per_seed(self):
        def delays(seed):
            retry = RetryPolicy(
                max_attempts=10, backoff_base_s=0.1, backoff_cap_s=5.0, jitter_seed=seed
            )
            batch = _mini_batch(n=1, retry=retry)
            out = []
            now = 0.0
            for _ in range(4):
                lease = batch.next_task(now=now, conn_id=1)
                batch.task_error(
                    lease.lease_id, "OSError()", "tb", error_type="OSError", now=now
                )
                out.append(batch.not_before[0] - now)
                now = batch.not_before[0] + 0.01
            return out

        assert delays(3) == delays(3)
        assert delays(3) != delays(4)
        assert all(d <= 5.0 for d in delays(3))  # capped

    def test_backoff_per_spec_is_independent_of_failure_order(self):
        """Two specs failing in order (0, 1) or (1, 0) each see the same
        delay sequence: every spec draws from its own seeded stream."""
        retry = RetryPolicy(
            max_attempts=10, backoff_base_s=0.1, backoff_cap_s=5.0, jitter_seed=7
        )

        def per_spec_delays(order):
            batch = _mini_batch(n=2, retry=retry)
            leases = {}
            while len(leases) < 2:
                lease = batch.next_task(now=0.0, conn_id=1)
                leases[lease.index] = lease
            out = {0: [], 1: []}
            now = 0.0
            for _ in range(3):
                for index in order:
                    batch.task_error(
                        leases[index].lease_id,
                        "OSError()",
                        "tb",
                        error_type="OSError",
                        now=now,
                    )
                    out[index].append(batch.not_before[index] - now)
                now = max(batch.not_before.values()) + 0.01
                leases = {}
                while len(leases) < 2:
                    lease = batch.next_task(now=now, conn_id=1)
                    leases[lease.index] = lease
            return out

        assert per_spec_delays((0, 1)) == per_spec_delays((1, 0))


# ----------------------------------------------------------------------
# the circuit breaker (pure, clock-injected)
# ----------------------------------------------------------------------
class TestCircuitBreaker:
    def policy(self, **kw):
        defaults = dict(trip_after=3, cooldown_s=10.0)
        defaults.update(kw)
        return HealthPolicy(**defaults)

    def test_trips_after_consecutive_strikes(self):
        breaker = CircuitBreaker(self.policy())
        assert not breaker.record_failure("w", now=0.0)
        assert not breaker.record_failure("w", now=1.0)
        assert breaker.record_failure("w", now=2.0)  # third strike trips
        assert breaker.trips == 1
        assert not breaker.allow("w", now=5.0)  # quarantined
        assert breaker.is_open("w", now=5.0)

    def test_success_resets_strikes(self):
        breaker = CircuitBreaker(self.policy())
        breaker.record_failure("w", now=0.0)
        breaker.record_failure("w", now=1.0)
        breaker.record_success("w")
        assert not breaker.record_failure("w", now=2.0)  # count restarted

    def test_half_open_probation(self):
        breaker = CircuitBreaker(self.policy())
        for t in range(3):
            breaker.record_failure("w", now=float(t))
        # Cool-down over: one probe allowed...
        assert breaker.allow("w", now=13.0)
        # ...and a single further strike re-trips immediately.
        assert breaker.record_failure("w", now=13.5)
        assert breaker.trips == 2
        assert not breaker.allow("w", now=14.0)

    def test_probation_success_closes(self):
        breaker = CircuitBreaker(self.policy())
        for t in range(3):
            breaker.record_failure("w", now=float(t))
        assert breaker.allow("w", now=13.0)  # probation
        breaker.record_success("w")
        assert not breaker.record_failure("w", now=14.0)  # closed: needs 3 again

    def test_workers_are_independent(self):
        breaker = CircuitBreaker(self.policy(trip_after=1))
        assert breaker.record_failure("bad", now=0.0)
        assert breaker.allow("good", now=1.0)
        assert not breaker.allow("bad", now=1.0)

    def test_disabled_breaker_never_trips(self):
        breaker = CircuitBreaker(self.policy(trip_after=0))
        for t in range(20):
            assert not breaker.record_failure("w", now=float(t))
        assert breaker.allow("w", now=100.0)


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
# coordinator shutdown hygiene
# ----------------------------------------------------------------------
def _open_fds():
    return set(os.listdir("/proc/self/fd"))


class TestCoordinatorClose:
    def test_close_is_idempotent(self):
        coordinator = Coordinator()
        coordinator.close()
        coordinator.close()  # must not raise

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/fd"), reason="needs procfs"
    )
    def test_no_leaked_fds_or_connections(self):
        baseline = _open_fds()
        coordinator = Coordinator()
        socks = []
        try:
            for n in range(2):
                sock = socket.create_connection(coordinator.address, timeout=5.0)
                proto.send_msg(sock, proto.hello(f"fd-test-{n}"))
                reply = proto.recv_msg(sock)
                assert reply is not None and reply["type"] == "welcome"
                socks.append(sock)
            deadline = time.monotonic() + 5.0
            while coordinator.connected_workers() < 2:
                assert time.monotonic() < deadline, "handshakes never registered"
                time.sleep(0.01)
            coordinator.close()
            # Every connection torn down and reaped...
            assert coordinator.connected_workers() == 0
            # ...and workers see EOF, not a hang.
            for sock in socks:
                sock.settimeout(5.0)
                assert proto.recv_msg(sock) is None
        finally:
            for sock in socks:
                sock.close()
            coordinator.close()
        assert _open_fds() <= baseline, "coordinator leaked file descriptors"


# ----------------------------------------------------------------------
# graceful degradation
# ----------------------------------------------------------------------
class TestDegradation:
    def test_falls_back_below_healthy_worker_floor(self):
        """A bare cluster with no workers ever connecting must not
        stall: below the floor it degrades to the process backend and
        still returns serial-identical results."""
        specs = [ChaosSpec(payload=i, salt=7) for i in range(4)]
        with SerialExecutor(task=chaos_task) as serial:
            reference = [result_signature(r) for r in serial.run(specs)]
        options = ClusterOptions(
            workers=2,
            lease_s=1.0,
            health=HealthPolicy(min_healthy_workers=1, degrade_after_s=0.2),
        )
        executor = ClusterExecutor(options=options, task=chaos_task)
        try:
            results = executor.run(specs)
        finally:
            executor.close()
        assert executor.degraded
        assert [result_signature(r) for r in results] == reference


# ----------------------------------------------------------------------
# execution defaults / CLI plumbing
# ----------------------------------------------------------------------
class TestResilienceDefaults:
    def test_scoped_defaults_roundtrip(self):
        before = get_execution_defaults()
        plan = FaultPlan.generate(1)
        with execution(retries=2, min_healthy_workers=1, fault_plan=plan) as active:
            assert active["retries"] == 2
            assert active["min_healthy_workers"] == 1
            assert active["fault_plan"] is plan
        assert get_execution_defaults() == before

    def test_retries_map_to_process_backend(self):
        from repro.exec.executors import default_executor

        with execution(backend="process", workers=2, retries=4):
            with default_executor(task=chaos_task) as ex:
                assert ex.retries == 4

    def test_resilience_defaults_reach_built_executors(self):
        from repro.exec.executors import default_executor

        with execution(retries=2, min_healthy_workers=1):
            with execution(backend="serial"):
                assert isinstance(default_executor(), SerialExecutor)
            with execution(backend="process", workers=2):
                with default_executor() as ex:
                    assert ex.retries == 2
            with execution(backend="cluster", workers=1):
                with default_executor() as ex:
                    # N retries = N + 1 attempts
                    assert ex.options.retry.max_attempts == 3
                    assert ex.options.health.min_healthy_workers == 1

    def test_cli_parses_resilience_flags(self, tmp_path):
        from repro.cli import _load_fault_plan, build_parser

        parser = build_parser()
        args = parser.parse_args(
            [
                "run",
                "fig7",
                "--retries",
                "2",
                "--min-healthy-workers",
                "1",
                "--fault-plan",
                FaultPlan.generate(3).to_json(),
            ]
        )
        assert args.retries == 2
        assert args.min_healthy_workers == 1
        assert _load_fault_plan(args.fault_plan) == FaultPlan.generate(3)
        # ...and from a file path, as repro-worker accepts.
        path = tmp_path / "plan.json"
        path.write_text(FaultPlan.generate(4).to_json())
        assert _load_fault_plan(str(path)) == FaultPlan.generate(4)


# ----------------------------------------------------------------------
# protocol-level fault hooks
# ----------------------------------------------------------------------
class TestFrameFaults:
    def test_drop_frame_sends_nothing(self):
        a, b = socket.socketpair()
        try:
            proto.send_msg(a, {"type": "x"}, fault="drop_frame")
            a.close()
            b.settimeout(5.0)
            assert proto.recv_msg(b) is None  # clean EOF, nothing arrived
        finally:
            b.close()

    def test_truncate_frame_is_a_detectable_tear(self):
        a, b = socket.socketpair()
        try:
            proto.send_msg(a, {"type": "x", "pad": "y" * 256}, fault="truncate_frame")
            a.close()
            b.settimeout(5.0)
            with pytest.raises(proto.ProtocolError):
                proto.recv_msg(b)
        finally:
            b.close()


# ----------------------------------------------------------------------
# the chaos invariant (end to end)
# ----------------------------------------------------------------------
class TestChaosWorkload:
    def test_chaos_task_is_pure(self):
        spec = ChaosSpec(payload=3, salt=11)
        assert result_signature(chaos_task(spec)) == result_signature(chaos_task(spec))
        assert spec.digest() == ChaosSpec(payload=3, salt=11).digest()
        assert spec.digest() != ChaosSpec(payload=4, salt=11).digest()


class TestChaosInvariant:
    """The acceptance gate: under any FaultPlan, bit-identical to
    serial or a clean attributed failure — never a hang (the CI chaos
    job wraps this module in a hard timeout), never silent loss."""

    @pytest.mark.parametrize("workers", CHAOS_WORKERS)
    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_seeded_matrix(self, seed, workers):
        report = run_chaos(seed=seed, workers=workers, n_specs=5, lease_s=0.4)
        assert report.invariant_holds, (
            f"chaos invariant violated for seed={seed} workers={workers} "
            f"plan={report.plan_digest[:12]} kinds={report.kinds}: "
            f"{report.summary()}"
        )
        if report.clean_failure is not None:
            # The failure arm must be attributed, not a bare crash.
            assert report.clean_failure.strip()

    def test_coordinator_restart_recovers_from_cache(self):
        """Kill the run loop mid-batch; the restarted run must finish
        from the cache and re-run only unfinished specs.

        The restart fires on scheduler iteration ``n_specs``.  An
        iteration handles at most one result and the first cannot see
        one (workers are still starting), so the crash always lands
        before the batch completes; with the 0.25 s sweep of a 1 s
        lease, results have been accepted unless worker start-up took
        longer than about 3.5 s."""
        n_specs = 16
        plan = FaultPlan(
            seed=0,
            actions=(
                FaultAction(
                    kind="coordinator_restart", site="coordinator.loop", nth=n_specs
                ),
            ),
        )
        report = run_chaos(seed=0, workers=2, n_specs=n_specs, lease_s=1.0, plan=plan)
        assert report.restarts == 1
        assert report.identical, report.summary()
        assert report.resumed_from_cache >= 1  # finished specs not re-run
        assert ("coordinator.loop", n_specs, "coordinator_restart") in report.fired

    def test_restart_plus_worker_faults(self):
        """The compound case: worker faults *and* a coordinator restart
        in one plan."""
        report = run_chaos(
            seed=2, workers=2, n_specs=5, lease_s=0.5, include_restart=True
        )
        assert report.invariant_holds, report.summary()
        assert report.restarts >= 1
