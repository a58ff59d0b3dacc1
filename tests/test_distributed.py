"""Tests for the distributed executor stack.

Four layers, tested separately so failures localize:

* the wire protocol (framing, handshake, task references),
* `_Batch` — the lease/requeue/dedup state machine (fake clock, no
  sockets),
* the `Coordinator` against hand-driven fake workers (digest-mismatch
  rejection, worker crash mid-run, late results),
* end-to-end `LocalClusterExecutor` with real worker subprocesses —
  including the CI determinism gate (3 workers, bit-identical to
  `SerialExecutor`) and worker-kill convergence.
"""

import os
import pickle
import socket
import threading
import time

import pytest

from repro.core.procedure import MeasurementProcedure, ProcedureConfig
from repro.exec import (
    ClusterExecutor,
    ClusterOptions,
    ExecError,
    LocalClusterExecutor,
    ResultCache,
    RetryPolicy,
    RunSpec,
    SerialExecutor,
    Telemetry,
    make_executor,
)
from repro.exec import protocol as proto
from repro.exec.distributed import Coordinator, _Batch, digest_of
from repro.exec.spec import spec_digest
from repro.exec.worker import serve
from repro.workloads.memcached import MemcachedWorkload


# ----------------------------------------------------------------------
# module-level toy tasks (importable by worker subprocesses)
# ----------------------------------------------------------------------
def _double(arg):
    return arg * 2


def _slow_double(arg):
    time.sleep(0.25)
    return arg * 2


def _raises(arg):
    raise ValueError(f"deterministic failure on {arg!r}")


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


def quick_config(**overrides):
    defaults = dict(
        workload=MemcachedWorkload(),
        target_utilization=0.5,
        num_instances=2,
        connections_per_instance=8,
        warmup_samples=100,
        measurement_samples_per_instance=300,
        min_runs=2,
        max_runs=3,
        seed=1,
    )
    defaults.update(overrides)
    return ProcedureConfig(**defaults)


# ----------------------------------------------------------------------
# protocol: framing
# ----------------------------------------------------------------------
class TestFraming:
    def test_round_trip(self):
        a, b = socket.socketpair()
        try:
            proto.send_msg(a, {"type": "hello", "payload": list(range(100))})
            msg = proto.recv_msg(b)
            assert msg == {"type": "hello", "payload": list(range(100))}
        finally:
            a.close()
            b.close()

    def test_empty_and_sequential_frames(self):
        a, b = socket.socketpair()
        try:
            proto.send_frame(a, b"")
            proto.send_frame(a, b"xyz")
            assert proto.recv_frame(b) == b""
            assert proto.recv_frame(b) == b"xyz"
        finally:
            a.close()
            b.close()

    def test_clean_eof_is_none(self):
        a, b = socket.socketpair()
        a.close()
        try:
            assert proto.recv_msg(b) is None
        finally:
            b.close()

    def test_truncated_frame_raises(self):
        a, b = socket.socketpair()
        try:
            # Declare 100 bytes, deliver 3, hang up.
            a.sendall(b"\x00\x00\x00\x64abc")
            a.close()
            with pytest.raises(proto.ProtocolError):
                proto.recv_frame(b)
        finally:
            b.close()

    def test_oversized_declared_frame_rejected_before_allocation(self):
        a, b = socket.socketpair()
        try:
            a.sendall((proto.MAX_FRAME + 1).to_bytes(4, "big"))
            with pytest.raises(proto.FrameTooLarge):
                proto.recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_oversized_send_rejected(self):
        a, b = socket.socketpair()
        try:
            with pytest.raises(proto.FrameTooLarge):
                proto.send_frame(a, b"x" * (proto.MAX_FRAME + 1))
        finally:
            a.close()
            b.close()

    def test_undecodable_frame_raises(self):
        a, b = socket.socketpair()
        try:
            proto.send_frame(a, b"not a pickle")
            with pytest.raises(proto.ProtocolError):
                proto.recv_msg(b)
        finally:
            a.close()
            b.close()

    def test_non_dict_message_rejected(self):
        a, b = socket.socketpair()
        try:
            proto.send_frame(a, pickle.dumps([1, 2, 3]))
            with pytest.raises(proto.ProtocolError):
                proto.recv_msg(b)
        finally:
            a.close()
            b.close()


class TestHandshake:
    def test_matching_versions_welcomed(self):
        reply = proto.handshake_reply(proto.hello("w1"))
        assert reply["type"] == "welcome"
        assert reply["protocol"] == proto.PROTOCOL_VERSION

    def test_protocol_mismatch_rejected(self):
        msg = proto.hello("w1")
        msg["protocol"] = proto.PROTOCOL_VERSION + 1
        reply = proto.handshake_reply(msg)
        assert reply["type"] == "reject"
        assert "protocol version" in reply["reason"]

    def test_spec_schema_mismatch_rejected(self):
        msg = proto.hello("w1")
        msg["spec_schema"] = -1
        reply = proto.handshake_reply(msg)
        assert reply["type"] == "reject"
        assert "schema" in reply["reason"]

    def test_non_hello_rejected(self):
        assert proto.handshake_reply({"type": "get"})["type"] == "reject"


class TestTaskReference:
    def test_round_trip(self):
        ref = proto.task_reference(_double)
        assert proto.resolve_task(ref) is _double

    def test_run_spec_reference(self):
        """The default spec-running task travels by reference."""
        from repro.measure.api import measure_spec

        assert proto.resolve_task("repro.measure.api:measure_spec") is measure_spec
        assert proto.task_reference(measure_spec) == "repro.measure.api:measure_spec"

    def test_lambda_rejected(self):
        with pytest.raises(ValueError):
            proto.task_reference(lambda x: x)

    def test_malformed_reference_rejected(self):
        with pytest.raises(ValueError):
            proto.resolve_task("no-colon")

    def test_non_callable_rejected(self):
        with pytest.raises(TypeError):
            proto.resolve_task("repro.exec.protocol:PROTOCOL_VERSION")


# ----------------------------------------------------------------------
# the lease state machine (no sockets, fake clock)
# ----------------------------------------------------------------------
def _batch(n=3, lease_s=10.0, max_attempts=3):
    digests = {i: spec_digest(i) for i in range(n)}
    retry = RetryPolicy(max_attempts=max_attempts, backoff_base_s=0.0)
    return _Batch(range(n), digests, lease_s, retry)


class TestBatch:
    def test_issue_and_complete(self):
        batch = _batch(2)
        l0 = batch.next_task(now=0.0, conn_id=1)
        l1 = batch.next_task(now=0.0, conn_id=2)
        assert {l0.index, l1.index} == {0, 1}
        status, index, attempt = batch.complete(
            l0.lease_id, batch.digests[l0.index], ""
        )
        assert (status, index, attempt) == ("ok", l0.index, 1)
        assert not batch.finished
        batch.complete(l1.lease_id, batch.digests[l1.index], "")
        assert batch.finished

    def test_lease_expiry_requeues(self):
        batch = _batch(1, lease_s=5.0)
        lease = batch.next_task(now=100.0, conn_id=1)
        assert batch.expire(now=104.9) == []
        assert batch.expire(now=105.1) == [lease.index]
        # the spec is pending again and issuable to another worker
        again = batch.next_task(now=106.0, conn_id=2)
        assert again.index == lease.index
        assert again.lease_id != lease.lease_id

    def test_expiry_exhausts_attempts(self):
        batch = _batch(1, lease_s=1.0, max_attempts=2)
        batch.next_task(now=0.0, conn_id=1)
        batch.expire(now=2.0)
        assert batch.failed is None
        batch.next_task(now=3.0, conn_id=1)
        batch.expire(now=5.0)
        assert batch.failed is not None
        assert "giving up" in batch.failed

    def test_late_result_after_expiry_still_accepted(self):
        """Equal spec => equal result: late work is not wasted work."""
        batch = _batch(1, lease_s=1.0)
        lease = batch.next_task(now=0.0, conn_id=1)
        batch.expire(now=2.0)  # requeued
        status, index, _ = batch.complete(lease.lease_id, batch.digests[0], "")
        assert status == "ok" and index == 0
        assert batch.finished
        # the requeued copy is never issued again
        assert batch.next_task(now=3.0, conn_id=2) is None

    def test_digest_mismatch_rejected_and_requeued(self):
        batch = _batch(1)
        lease = batch.next_task(now=0.0, conn_id=1)
        status, _, _ = batch.complete(lease.lease_id, "deadbeef", "")
        assert status == "mismatch"
        assert 0 not in batch.done
        retry = batch.next_task(now=1.0, conn_id=2)
        assert retry.index == 0

    def test_result_digest_mismatch_rejected(self):
        """The result's own spec_digest is verified, not just the echo."""
        batch = _batch(1)
        lease = batch.next_task(now=0.0, conn_id=1)
        status, _, _ = batch.complete(
            lease.lease_id, batch.digests[0], "f" * 64
        )
        assert status == "mismatch"

    def test_repeated_mismatch_fails_batch(self):
        batch = _batch(1, max_attempts=2)
        for _ in range(2):
            lease = batch.next_task(now=0.0, conn_id=1)
            batch.complete(lease.lease_id, "deadbeef", "")
        assert batch.failed is not None

    def test_duplicate_result_discarded(self):
        batch = _batch(1)
        original = batch.next_task(now=0.0, conn_id=1)
        stolen = batch.next_task(now=0.0, conn_id=2)  # queue empty -> steal
        assert stolen is not None and stolen.stolen
        assert stolen.index == original.index
        s1, _, _ = batch.complete(stolen.lease_id, batch.digests[0], "")
        s2, _, _ = batch.complete(original.lease_id, batch.digests[0], "")
        assert (s1, s2) == ("ok", "duplicate")

    def test_steal_bounded_to_one_duplicate(self):
        batch = _batch(1)
        batch.next_task(now=0.0, conn_id=1)
        assert batch.next_task(now=0.0, conn_id=2) is not None
        assert batch.next_task(now=0.0, conn_id=3) is None

    def test_drop_connection_requeues_only_that_workers_leases(self):
        batch = _batch(2)
        l0 = batch.next_task(now=0.0, conn_id=1)
        l1 = batch.next_task(now=0.0, conn_id=2)
        lost = batch.drop_connection(1)
        assert lost == [l0.index]
        assert batch.leases[l1.lease_id].active
        retry = batch.next_task(now=1.0, conn_id=2)
        assert retry.index == l0.index

    def test_unknown_lease_is_unknown(self):
        batch = _batch(1)
        assert batch.complete(999, "", "")[0] == "unknown"

    def test_task_error_fails_fast(self):
        batch = _batch(2)
        lease = batch.next_task(now=0.0, conn_id=1)
        batch.task_error(lease.lease_id, "ValueError('boom')", "tb")
        assert batch.failed is not None
        assert "boom" in batch.failed


# ----------------------------------------------------------------------
# coordinator against hand-driven fake workers
# ----------------------------------------------------------------------
class FakeWorker:
    """A raw protocol client, for driving the coordinator by hand."""

    def __init__(self, address, hello_msg=None):
        self.sock = socket.create_connection(address, timeout=5.0)
        proto.send_msg(self.sock, hello_msg or proto.hello("fake"))
        self.welcome = proto.recv_msg(self.sock)

    def get(self):
        proto.send_msg(self.sock, {"type": "get"})
        return proto.recv_msg(self.sock)

    def get_task(self, tries=100):
        """Poll until a task arrives (the batch may not be open yet)."""
        for _ in range(tries):
            msg = self.get()
            if msg["type"] == "task":
                return msg
            time.sleep(0.02)
        raise AssertionError("no task issued")

    def send_result(self, task, result, digest=None):
        proto.send_msg(
            self.sock,
            {
                "type": "result",
                "task_id": task["task_id"],
                "digest": task["digest"] if digest is None else digest,
                "result": result,
                "wall_s": 0.0,
                "worker": "fake",
            },
        )
        return proto.recv_msg(self.sock)

    def close(self):
        self.sock.close()


def _run_in_thread(executor, specs):
    holder = {}

    def target():
        try:
            holder["results"] = executor.run(specs)
        except BaseException as err:  # pragma: no cover - assertion helper
            holder["error"] = err

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    return thread, holder


@pytest.fixture
def bare_cluster():
    """A ClusterExecutor with no spawned workers (external-worker mode)."""
    ex = ClusterExecutor(
        options=ClusterOptions(
            workers=1, lease_s=5.0, retry=RetryPolicy(max_attempts=3)
        ),
        task=_double,
    )
    ex.start()
    try:
        yield ex
    finally:
        ex.close()


class TestCoordinator:
    def test_fake_worker_completes_batch(self, bare_cluster):
        thread, holder = _run_in_thread(bare_cluster, [1, 2, 3])
        worker = FakeWorker(bare_cluster.address)
        assert worker.welcome["type"] == "welcome"
        try:
            for _ in range(3):
                task = worker.get_task()
                assert task["task_ref"].endswith(":_double")
                ack = worker.send_result(task, task["spec"] * 2)
                assert ack["type"] == "ack"
            thread.join(timeout=5.0)
            assert holder.get("results") == [2, 4, 6]
        finally:
            worker.close()

    def test_version_skewed_worker_rejected_at_connect(self, bare_cluster):
        bad_hello = proto.hello("skewed")
        bad_hello["spec_schema"] = -1
        worker = FakeWorker(bare_cluster.address, hello_msg=bad_hello)
        try:
            assert worker.welcome["type"] == "reject"
        finally:
            worker.close()

    def test_digest_mismatch_rejected_then_requeued(self, bare_cluster):
        thread, holder = _run_in_thread(bare_cluster, [5])
        worker = FakeWorker(bare_cluster.address)
        try:
            task = worker.get_task()
            reply = worker.send_result(task, 10, digest="deadbeef")
            assert reply["type"] == "reject"
            # same spec comes around again; an honest result completes it
            retry = worker.get_task()
            assert retry["digest"] == task["digest"]
            assert worker.send_result(retry, 10)["type"] == "ack"
            thread.join(timeout=5.0)
            assert holder.get("results") == [10]
        finally:
            worker.close()

    def test_worker_crash_mid_run_requeues_immediately(self, bare_cluster):
        """A dropped connection (worker death) requeues its lease at
        once — no need to wait out the lease timer."""
        thread, holder = _run_in_thread(bare_cluster, [7])
        crasher = FakeWorker(bare_cluster.address)
        task = crasher.get_task()
        crasher.close()  # dies holding the lease
        survivor = FakeWorker(bare_cluster.address)
        try:
            retry = survivor.get_task()
            assert retry["digest"] == task["digest"]
            assert survivor.send_result(retry, 14)["type"] == "ack"
            thread.join(timeout=5.0)
            assert holder.get("results") == [14]
        finally:
            survivor.close()

    def test_repeated_worker_death_exhausts_attempts(self):
        ex = ClusterExecutor(
            options=ClusterOptions(
                workers=1, lease_s=5.0, retry=RetryPolicy(max_attempts=2)
            ),
            task=_double,
        )
        ex.start()
        try:
            thread, holder = _run_in_thread(ex, [9])
            for _ in range(2):
                worker = FakeWorker(ex.address)
                worker.get_task()
                worker.close()
            thread.join(timeout=5.0)
            assert isinstance(holder.get("error"), ExecError)
        finally:
            ex.close()

    def test_in_process_serve_loop_with_max_tasks(self, bare_cluster):
        """The worker's serve() loop is exercised in-process."""
        thread, holder = _run_in_thread(bare_cluster, [1, 2, 3, 4])
        host, port = bare_cluster.address
        done = serve(host, port, name="in-process", max_tasks=4)
        thread.join(timeout=5.0)
        assert done == 4
        assert holder.get("results") == [2, 4, 6, 8]


# ----------------------------------------------------------------------
# end-to-end: LocalClusterExecutor with real worker subprocesses
# ----------------------------------------------------------------------
class TestLocalCluster:
    def test_cluster_determinism_vs_serial_three_workers(self):
        """The CI gate: 3 local workers produce bit-identical metric
        samples to the serial reference, in submission order."""
        with SerialExecutor() as ex:
            serial = MeasurementProcedure(quick_config(), executor=ex).run()
        with LocalClusterExecutor(workers=3) as ex:
            assert ex.capabilities().distributed
            cluster = MeasurementProcedure(quick_config(), executor=ex).run()
        assert serial.estimates == cluster.estimates
        assert serial.dispersion == cluster.dispersion
        assert [r.metrics for r in serial.runs] == [r.metrics for r in cluster.runs]

    def test_cluster_preserves_submission_order(self):
        specs = [quick_spec(run_index=i) for i in range(4)]
        with LocalClusterExecutor(workers=2) as ex:
            results = ex.run(specs)
        assert [r.run_index for r in results] == [0, 1, 2, 3]
        assert all(r.spec_digest == s.digest() for r, s in zip(results, specs))

    def test_killing_a_worker_mid_batch_still_converges(self):
        """Acceptance: kill -9 a worker while the batch runs; lease
        requeue + respawn still deliver every result, correctly."""
        ex = LocalClusterExecutor(
            workers=2, lease_s=3.0, retry=RetryPolicy(max_attempts=5), task=_slow_double
        )
        try:
            ex.start()

            def assassin():
                time.sleep(0.6)
                ex._procs[0].kill()

            threading.Thread(target=assassin, daemon=True).start()
            results = ex.run(list(range(8)))
            assert results == [i * 2 for i in range(8)]
        finally:
            ex.close()

    def test_cluster_writes_through_result_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = quick_spec()
        with LocalClusterExecutor(workers=1, cache=cache) as ex:
            first = ex.run([spec])[0]
            telemetry = Telemetry()
            second = ex.run([spec], progress=telemetry)[0]
        assert not first.from_cache and second.from_cache
        assert telemetry.cache_hits == 1
        assert first.metrics == second.metrics

    def test_deterministic_task_error_fails_fast(self):
        with LocalClusterExecutor(workers=1, task=_raises) as ex:
            with pytest.raises(ExecError, match="deterministic failure"):
                ex.run([1])

    def test_make_executor_cluster_backend(self):
        ex = make_executor("cluster", workers=2, lease_s=30.0)
        try:
            assert isinstance(ex, LocalClusterExecutor)
            assert ex.options.workers == 2
            caps = ex.capabilities()
            assert caps.backend == "cluster"
            assert caps.distributed and caps.parallel and caps.deterministic
        finally:
            ex.close()

    def test_lambda_task_rejected_up_front(self):
        with pytest.raises(ValueError, match="remote workers"):
            LocalClusterExecutor(workers=1, task=lambda s: s)

    def test_coordinator_address_exposed_for_external_workers(self):
        ex = ClusterExecutor(task=_double)
        try:
            assert ex.address is None
            coordinator = ex.start()
            host, port = ex.address
            assert port > 0
            assert coordinator.connected_workers() == 0
        finally:
            ex.close()
