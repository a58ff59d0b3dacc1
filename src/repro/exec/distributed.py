"""Distributed executor: a socket-based work-stealing cluster backend.

The paper's methodology — many short, fully independent runs (Section
III-C defeats hysteresis exactly this way) — is embarrassingly
distributable: a run is a pure function of its
:class:`~repro.exec.spec.RunSpec`, so it can execute on any machine
and the result is verifiable by content digest.  This module exploits
that:

* :class:`Coordinator` — a threaded TCP server speaking
  :mod:`repro.exec.protocol`.  It serves a queue of pickled specs to
  any number of ``repro-worker`` processes, tracks a *lease* per
  issued task, requeues work when a lease expires or a connection
  drops (worker death), and **verifies the spec digest on every
  result** before accepting it.
* **Work stealing / straggler re-issue** — when the queue drains but
  leased tasks are still outstanding, idle workers are handed
  speculative duplicates of the oldest lease.  Determinism (equal
  spec ⇒ bit-identical result) makes this safe: whichever copy lands
  first wins, the loser is discarded as a duplicate.
* :class:`ClusterExecutor` — the :class:`~repro.exec.api.Executor`
  implementation wrapping a coordinator.  Results are merged in
  submission order, written into the existing
  :class:`~repro.exec.cache.ResultCache`, and reported through the
  existing :class:`~repro.exec.progress.RunEvent` stream — drivers
  cannot tell it apart from the serial backend except by wall clock.
* :class:`LocalClusterExecutor` — the same executor, but it spawns
  its workers as local subprocesses (``python -m repro.exec.worker``,
  via :func:`~repro.exec.protocol.spawn_module`), which is what
  ``--executor cluster --workers N`` and the tests use.  Dead local
  workers are respawned (bounded) while a batch is active.

Self-healing (PR 3) — the measurement infrastructure is itself a
source of tail-latency lies if it fails unevenly ("Tell-Tale Tail
Latencies"), so failures are *classified and contained*:

* **transient vs deterministic errors** — a worker ``MemoryError`` /
  ``OSError`` / pickling transport error is retried under a
  :class:`~repro.exec.api.RetryPolicy` budget with exponential backoff
  and decorrelated jitter (:mod:`repro.exec.backoff`, one seeded
  stream per spec); a genuine task exception still fails fast
  (re-running a pure function on the same input is futile);
* **circuit breakers** — :class:`CircuitBreaker` quarantines workers
  whose leases repeatedly expire or whose results fail digest
  verification, and un-quarantines them after a cool-down
  (:class:`~repro.exec.api.HealthPolicy`);
* **restart from the cache** — every accepted result is written to
  the content-addressed :class:`~repro.exec.cache.ResultCache` as it
  lands, so a restarted coordinator given the same cache serves the
  finished specs from it and re-runs only the rest;
* **graceful degradation** — when healthy workers stay below
  ``HealthPolicy.min_healthy_workers`` for a grace period, the
  remaining specs fall back to the local process backend instead of
  stalling the batch;
* **deterministic fault injection** — every failure path above is
  exercisable through explicit hook points (``injector.fire(site)``),
  no-ops in production, driven by :mod:`repro.faults`.

Registered in the backend registry as ``"cluster"`` with
:class:`~repro.exec.api.ClusterOptions`.
"""

from __future__ import annotations

import os
import re
import socket
import subprocess
import threading
import time
from collections import deque
from dataclasses import dataclass
from queue import Empty, Queue
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from .api import Capabilities, ClusterOptions, HealthPolicy, RetryPolicy, register_backend
from .backoff import jitter_rng, next_delay
from .cache import ResultCache
from .executors import ExecError, ParallelExecutor, _emit, _ExecutorBase
from .progress import ProgressHook, RunEvent
from .protocol import (
    ProtocolError,
    handshake_reply,
    reap,
    recv_msg,
    resolve_task,
    send_msg,
    spawn_module,
    task_reference,
)
from ..measure.api import measure_spec
from .spec import spec_digest

__all__ = [
    "Coordinator",
    "CircuitBreaker",
    "ClusterExecutor",
    "LocalClusterExecutor",
    "SimulatedCrash",
    "classify_error",
    "TRANSIENT_ERROR_TYPES",
]


#: Seconds an idle worker waits before asking for work again.
_POLL_S = 0.05


def digest_of(spec: object) -> str:
    """Content digest for any spec (empty when uncanonicalizable)."""
    method = getattr(spec, "digest", None)
    if callable(method):
        return method()
    try:
        return spec_digest(spec)
    except Exception:
        return ""


class SimulatedCrash(ExecError):
    """An injected ``coordinator_restart`` fault killed the run loop.

    Raised only under fault injection; the result cache survives, so
    constructing a fresh executor with the same cache resumes the
    batch (see ``repro.faults.harness``).
    """


# ----------------------------------------------------------------------
# error classification (transient => retry budget; deterministic => fail)
# ----------------------------------------------------------------------
#: Exception type names whose failures are *environmental*, not a
#: property of the spec: memory pressure, I/O and connection trouble,
#: and pickle transport corruption.  Retrying these elsewhere/later can
#: succeed; retrying a genuine task exception cannot.
TRANSIENT_ERROR_TYPES = frozenset(
    {
        "MemoryError",
        "OSError",
        "IOError",
        "ConnectionError",
        "ConnectionResetError",
        "ConnectionAbortedError",
        "ConnectionRefusedError",
        "BrokenPipeError",
        "TimeoutError",
        "InterruptedError",
        "BlockingIOError",
        "PickleError",
        "PicklingError",
        "UnpicklingError",
        "EOFError",
        "BufferError",
    }
)

_REPR_TYPE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)\s*\(")


def classify_error(error_type: str, error_repr: str = "") -> bool:
    """True when a worker-reported task error is *transient* (retryable).

    ``error_type`` is the exception class name shipped by the worker;
    older workers only ship ``repr(err)``, from which the leading
    identifier is recovered as a fallback.
    """
    name = (error_type or "").rpartition(".")[2]
    if not name and error_repr:
        match = _REPR_TYPE.match(error_repr.strip())
        if match:
            name = match.group(1)
    return name in TRANSIENT_ERROR_TYPES


def _fire(injector: Optional[object], site: str) -> Optional[object]:
    """Consult a fault injector at a hook point (no-op without one)."""
    if injector is None:
        return None
    fire = getattr(injector, "fire", None)
    return fire(site) if fire is not None else None


# ----------------------------------------------------------------------
# per-worker health: the circuit breaker
# ----------------------------------------------------------------------
class CircuitBreaker:
    """Consecutive-strike circuit breaker over worker names.

    Pure and clock-injected (``now`` everywhere) so it is unit
    testable without sleeping.  States per worker:

    * **closed** (healthy): tasks flow; strikes accumulate on
      attributed failures, reset on any accepted result.
    * **open** (quarantined): entered after ``trip_after`` consecutive
      strikes; ``allow`` is False until ``cooldown_s`` elapses.
    * **half-open** (probation): after cool-down one task is allowed;
      a further strike re-opens immediately, an accepted result
      closes the breaker.

    ``trip_after == 0`` disables the breaker entirely.
    """

    def __init__(self, policy: HealthPolicy):
        self.policy = policy
        self.strikes: Dict[str, int] = {}
        self.open_until: Dict[str, float] = {}
        self.probation: Set[str] = set()
        self.trips = 0

    def record_failure(self, worker: str, now: float) -> bool:
        """Account one attributed failure; True when the breaker trips."""
        if not worker or self.policy.trip_after <= 0:
            return False
        self.strikes[worker] = self.strikes.get(worker, 0) + 1
        tripped = worker in self.probation or (
            self.strikes[worker] >= self.policy.trip_after
        )
        if tripped:
            self.open_until[worker] = now + self.policy.cooldown_s
            self.probation.discard(worker)
            self.strikes[worker] = 0
            self.trips += 1
        return tripped

    def record_success(self, worker: str) -> None:
        if not worker:
            return
        self.strikes.pop(worker, None)
        self.open_until.pop(worker, None)
        self.probation.discard(worker)

    def allow(self, worker: str, now: float) -> bool:
        """May ``worker`` receive a task right now?"""
        if not worker or self.policy.trip_after <= 0:
            return True
        deadline = self.open_until.get(worker)
        if deadline is None:
            return True
        if now < deadline:
            return False
        # cool-down over: half-open probation
        self.open_until.pop(worker, None)
        self.probation.add(worker)
        return True

    def is_open(self, worker: str, now: float) -> bool:
        deadline = self.open_until.get(worker)
        return deadline is not None and now < deadline


# ----------------------------------------------------------------------
# batch bookkeeping (pure state machine; caller holds the lock)
# ----------------------------------------------------------------------
@dataclass
class _Lease:
    lease_id: int
    index: int
    deadline: float
    conn_id: int
    stolen: bool = False
    active: bool = True


class _Batch:
    """Lease/requeue/dedup/backoff state for one ``run()`` call.

    Deliberately free of sockets and clocks (``now`` is injected) so
    the lease-expiry, digest-mismatch, backoff, and worker-death paths
    are unit testable without a network in the loop.

    ``retry.max_attempts`` bounds both lost work (expired leases,
    dropped connections, digest mismatches) and transient task
    errors per spec.  Its backoff paces every requeue with
    decorrelated jitter drawn from one seeded stream per spec, so a
    spec's delays are deterministic per seed whatever order other
    specs fail in.  When ``retry`` is None, a zero-backoff policy
    requeues immediately.
    """

    def __init__(
        self,
        indices: Sequence[int],
        digests: Dict[int, str],
        lease_s: float,
        retry: Optional[RetryPolicy] = None,
    ):
        self.pending: deque = deque(indices)
        self.todo: Set[int] = set(indices)
        self.digests = digests
        self.lease_s = lease_s
        self.retry = retry if retry is not None else RetryPolicy(backoff_base_s=0.0)
        self.done: Set[int] = set()
        self.failures: Dict[int, int] = {i: 0 for i in indices}
        self.transient_errors: Dict[int, int] = {i: 0 for i in indices}
        self.issues: Dict[int, int] = {i: 0 for i in indices}
        self.leases: Dict[int, _Lease] = {}
        self.active_by_index: Dict[int, Set[int]] = {i: set() for i in indices}
        self.not_before: Dict[int, float] = {}
        self.failed: Optional[str] = None
        self.last_expired: List[Tuple[int, int]] = []  # (index, conn_id)
        self._prev_delay: Dict[int, float] = {}
        self._rngs: Dict[int, object] = {}
        self._next_lease_id = 0

    # -- backoff -------------------------------------------------------
    def _backoff_delay(self, index: int) -> float:
        """The next decorrelated-jitter delay on spec ``index``'s stream."""
        base = self.retry.backoff_base_s
        if base <= 0:
            return 0.0
        rng = self._rngs.get(index)
        if rng is None:
            rng = self._rngs[index] = jitter_rng(self.retry.jitter_seed, 0, index, 0)
        delay = next_delay(
            rng, base, self.retry.backoff_cap_s, self._prev_delay.get(index, base)
        )
        self._prev_delay[index] = delay
        return delay

    # -- issue ---------------------------------------------------------
    def _issue(self, index: int, now: float, conn_id: int, stolen: bool) -> _Lease:
        self._next_lease_id += 1
        lease = _Lease(
            lease_id=self._next_lease_id,
            index=index,
            deadline=now + self.lease_s,
            conn_id=conn_id,
            stolen=stolen,
        )
        self.leases[lease.lease_id] = lease
        self.active_by_index[index].add(lease.lease_id)
        self.issues[index] += 1
        return lease

    def next_task(self, now: float, conn_id: int) -> Optional[_Lease]:
        """Lease the next *eligible* pending task, steal a straggler,
        or return None (worker should poll again)."""
        if self.failed:
            return None
        backed_off: List[int] = []
        lease: Optional[_Lease] = None
        while self.pending:
            index = self.pending.popleft()
            if index in self.done or self.active_by_index[index]:
                continue  # completed late or re-issued already
            if self.not_before.get(index, 0.0) > now:
                backed_off.append(index)  # still cooling down
                continue
            lease = self._issue(index, now, conn_id, stolen=False)
            break
        for index in reversed(backed_off):
            self.pending.appendleft(index)
        if lease is not None:
            return lease
        if not backed_off:
            candidates = [
                cand
                for cand in self.leases.values()
                if cand.active
                and cand.index not in self.done
                and len(self.active_by_index[cand.index]) == 1
            ]
            if candidates:
                straggler = min(candidates, key=lambda cand: cand.deadline)
                return self._issue(straggler.index, now, conn_id, stolen=True)
        return None

    # -- completion ----------------------------------------------------
    def _deactivate(self, lease: _Lease) -> None:
        lease.active = False
        self.active_by_index[lease.index].discard(lease.lease_id)

    def _record_loss(self, index: int, reason: str, now: float = 0.0) -> None:
        """A lease was lost/rejected: back off and requeue, or fail."""
        if index in self.done:
            return
        self.failures[index] += 1
        if self.failures[index] >= self.retry.max_attempts:
            self.failed = (
                f"spec #{index} failed {self.failures[index]} time(s) "
                f"(last: {reason}); giving up"
            )
        elif not self.active_by_index[index] and index not in self.pending:
            self.not_before[index] = now + self._backoff_delay(index)
            self.pending.appendleft(index)

    def complete(
        self,
        lease_id: int,
        echoed_digest: str,
        result_digest: str,
        now: float = 0.0,
    ) -> Tuple[str, Optional[int], int]:
        """Account one result; returns ``(status, index, attempt)``.

        status ∈ {"ok", "duplicate", "mismatch", "unknown"}.  A result
        for an *expired* lease is still accepted when the index is
        incomplete — late work is not wasted work.  Digest mismatches
        (corrupt worker, wrong library) are rejected and the spec
        requeued.
        """
        lease = self.leases.get(lease_id)
        if lease is None:
            return "unknown", None, 0
        index = lease.index
        expected = self.digests.get(index, "")
        self._deactivate(lease)
        if expected and (
            echoed_digest != expected or (result_digest and result_digest != expected)
        ):
            self._record_loss(index, "digest mismatch", now)
            return "mismatch", index, self.issues[index]
        if index in self.done:
            return "duplicate", index, self.issues[index]
        self.done.add(index)
        self.not_before.pop(index, None)
        for other_id in list(self.active_by_index[index]):
            self._deactivate(self.leases[other_id])
        return "ok", index, self.issues[index]

    def task_error(
        self,
        lease_id: int,
        error: str,
        traceback_text: str,
        error_type: str = "",
        now: float = 0.0,
    ) -> bool:
        """A worker reported a task exception.

        Transient errors (``MemoryError``/``OSError``/pickle transport
        — see :func:`classify_error`) are retried under the
        ``RetryPolicy`` budget with backoff; returns True in that
        case.  Deterministic task exceptions fail the batch fast
        (retry is futile) and return False.
        """
        lease = self.leases.get(lease_id)
        if lease is not None:
            self._deactivate(lease)
        if classify_error(error_type, error):
            index = lease.index if lease is not None else None
            if index is not None and index not in self.done:
                self.transient_errors[index] += 1
                if self.transient_errors[index] >= self.retry.max_attempts:
                    self.failed = (
                        f"spec #{index} hit {self.transient_errors[index]} "
                        f"transient error(s) (last: {error}); retry budget "
                        "exhausted"
                    )
                elif not self.active_by_index[index] and index not in self.pending:
                    self.not_before[index] = now + self._backoff_delay(index)
                    self.pending.appendleft(index)
            return True
        self.failed = f"task raised {error}\n{traceback_text}"
        return False

    # -- loss detection ------------------------------------------------
    def expire(self, now: float) -> List[int]:
        """Requeue tasks whose lease deadline has passed (worker death).

        ``last_expired`` additionally records ``(index, conn_id)``
        pairs so the caller can attribute the loss to a worker (for
        circuit breaking).
        """
        lost: List[int] = []
        self.last_expired = []
        for lease in list(self.leases.values()):
            if lease.active and lease.deadline <= now:
                self._deactivate(lease)
                if lease.index not in self.done:
                    lost.append(lease.index)
                    self.last_expired.append((lease.index, lease.conn_id))
                    self._record_loss(lease.index, "lease expired", now)
        return lost

    def drop_connection(self, conn_id: int, now: float = 0.0) -> List[int]:
        """A worker connection died: requeue its in-flight leases now."""
        lost: List[int] = []
        for lease in list(self.leases.values()):
            if lease.active and lease.conn_id == conn_id:
                self._deactivate(lease)
                if lease.index not in self.done:
                    lost.append(lease.index)
                    self._record_loss(lease.index, "worker connection lost", now)
        return lost

    # -- progress ------------------------------------------------------
    @property
    def finished(self) -> bool:
        return self.failed is not None or self.done >= self.todo


# ----------------------------------------------------------------------
# the coordinator (socket layer)
# ----------------------------------------------------------------------
class Coordinator:
    """Threaded TCP server feeding a :class:`_Batch` to remote workers.

    One handler thread per worker connection; completion/fatal/note
    events are delivered to the owning executor through ``events`` (a
    thread-safe queue), keeping cache writes and progress emission on
    the executor's thread.

    ``health`` enables the per-worker :class:`CircuitBreaker`;
    ``injector`` threads the deterministic fault-injection hook points
    (``coordinator.send``, ``coordinator.recv``) — both default to
    production no-ops.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        health: Optional[HealthPolicy] = None,
        injector: Optional[object] = None,
    ):
        self.events: Queue = Queue()
        self.breaker = CircuitBreaker(health if health is not None else HealthPolicy())
        self.injector = injector
        self._lock = threading.Lock()
        self._batch: Optional[_Batch] = None
        self._specs: Dict[int, object] = {}
        self._task_ref: str = ""
        self._closing = False
        self._closed = False
        self._conn_seq = 0
        self._threads: List[threading.Thread] = []
        self._conns: Dict[int, socket.socket] = {}
        self._worker_names: Dict[int, str] = {}
        self._server = socket.create_server((host, port))
        self._server.settimeout(0.2)
        self.address: Tuple[str, int] = self._server.getsockname()[:2]
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-coordinator-accept", daemon=True
        )
        self._accept_thread.start()

    # -- notes to the executor -----------------------------------------
    def _note(self, kind: str, detail: str) -> None:
        self.events.put(("note", kind, detail))

    # -- batch lifecycle (called by the executor) ----------------------
    def start_batch(
        self,
        indices: Sequence[int],
        specs: Dict[int, object],
        digests: Dict[int, str],
        task_ref: str,
        lease_s: float,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        with self._lock:
            if self._batch is not None:
                raise RuntimeError("a batch is already active")
            self._specs = dict(specs)
            self._task_ref = task_ref
            self._batch = _Batch(indices, digests, lease_s, retry)
        # drop events left over from an abandoned batch
        while True:
            try:
                self.events.get_nowait()
            except Empty:
                break

    def end_batch(self) -> None:
        with self._lock:
            self._batch = None
            self._specs = {}

    def sweep(self) -> None:
        """Expire overdue leases; emit fault/recovery notes; emit a
        fatal event if the batch died."""
        now = time.monotonic()
        expired: List[Tuple[int, str]] = []
        tripped: List[str] = []
        with self._lock:
            batch = self._batch
            if batch is None:
                return
            batch.expire(now)
            for index, conn_id in batch.last_expired:
                worker = self._worker_names.get(conn_id, f"conn{conn_id}")
                expired.append((index, worker))
                if self.breaker.record_failure(worker, now):
                    tripped.append(worker)
            failed = batch.failed
        for index, worker in expired:
            self._note("fault", f"lease expired for spec #{index} (worker {worker})")
            if not failed:
                self._note("recovery", f"spec #{index} requeued after lease expiry")
        for worker in tripped:
            self._note("fault", f"circuit opened: worker {worker} quarantined")
        if failed:
            self.events.put(("fatal", failed))

    def connected_workers(self) -> int:
        with self._lock:
            return len(self._conns)

    def healthy_workers(self) -> int:
        """Connected workers whose circuit breaker is not open."""
        now = time.monotonic()
        with self._lock:
            names = [
                self._worker_names.get(conn_id, f"conn{conn_id}")
                for conn_id in self._conns
            ]
        return sum(1 for name in names if not self.breaker.is_open(name, now))

    # -- server plumbing -----------------------------------------------
    def _accept_loop(self) -> None:
        while not self._closing:
            try:
                conn, _addr = self._server.accept()
            except socket.timeout:
                continue
            except OSError:
                return  # server socket closed
            self._conn_seq += 1
            conn_id = self._conn_seq
            with self._lock:
                if self._closing:
                    try:
                        conn.close()
                    except OSError:
                        pass
                    return
                self._conns[conn_id] = conn
            thread = threading.Thread(
                target=self._serve_conn,
                args=(conn, conn_id),
                name=f"repro-coordinator-conn{conn_id}",
                daemon=True,
            )
            with self._lock:
                # prune finished handler threads so the list stays bounded
                self._threads = [t for t in self._threads if t.is_alive()]
                self._threads.append(thread)
            thread.start()

    def _send(self, conn: socket.socket, msg: Dict[str, object]) -> None:
        """Send one message, passing through the fault-injection hook.

        An injected ``drop_frame``/``truncate_frame`` mangles the send
        and then abandons the connection (raising
        :class:`ProtocolError` so ``_serve_conn`` tears it down and
        the lease machinery requeues any in-flight work) — the same
        observable behaviour as a link dying mid-frame.
        """
        action = _fire(self.injector, "coordinator.send")
        kind = getattr(action, "kind", None)
        if kind in ("drop_frame", "truncate_frame"):
            self._note("fault", f"injected {kind} on coordinator send")
            try:
                send_msg(conn, msg, fault=kind)
            except OSError:
                pass
            raise ProtocolError(f"injected {kind}; abandoning connection")
        send_msg(conn, msg)

    def _serve_conn(self, conn: socket.socket, conn_id: int) -> None:
        try:
            msg = recv_msg(conn)
            if msg is None:
                return
            reply = handshake_reply(msg)
            send_msg(conn, reply)
            if reply["type"] != "welcome":
                return
            with self._lock:
                self._worker_names[conn_id] = str(msg.get("worker", f"conn{conn_id}"))
            while not self._closing:
                msg = recv_msg(conn)
                if msg is None:
                    return
                action = _fire(self.injector, "coordinator.recv")
                if getattr(action, "kind", None) in ("drop_frame", "truncate_frame"):
                    self._note(
                        "fault",
                        f"injected {action.kind} on coordinator receive",
                    )
                    raise ProtocolError(f"injected {action.kind} on receive")
                mtype = msg.get("type")
                if mtype == "get":
                    self._handle_get(conn, conn_id)
                elif mtype == "result":
                    self._handle_result(conn, conn_id, msg)
                elif mtype == "error":
                    self._handle_error(conn, conn_id, msg)
                else:
                    self._send(
                        conn,
                        {"type": "reject", "reason": f"unexpected {mtype!r}"},
                    )
        except (ProtocolError, OSError):
            pass  # dead/violating peer: leases requeued below
        finally:
            now = time.monotonic()
            with self._lock:
                self._conns.pop(conn_id, None)
                self._worker_names.pop(conn_id, None)
                batch = self._batch
                failed = None
                lost: List[int] = []
                if batch is not None:
                    lost = batch.drop_connection(conn_id, now)
                    failed = batch.failed
            for index in lost:
                self._note(
                    "recovery",
                    f"spec #{index} requeued after worker connection loss",
                )
            if failed:
                self.events.put(("fatal", failed))
            try:
                conn.close()
            except OSError:
                pass

    # -- message handlers ----------------------------------------------
    def _handle_get(self, conn: socket.socket, conn_id: int) -> None:
        now = time.monotonic()
        with self._lock:
            batch = self._batch
            if self._closing:
                self._send(conn, {"type": "shutdown"})
                return
            worker = self._worker_names.get(conn_id, f"conn{conn_id}")
            quarantined = not self.breaker.allow(worker, now)
            if batch is None or batch.finished or quarantined:
                lease = None
            else:
                lease = batch.next_task(now, conn_id)
            spec = self._specs.get(lease.index) if lease is not None else None
            digest = (
                batch.digests.get(lease.index, "")
                if (lease is not None and batch is not None)
                else ""
            )
            task_ref = self._task_ref
            lease_s = batch.lease_s if batch is not None else 0.0
        if lease is None:
            self._send(conn, {"type": "wait", "poll_s": _POLL_S})
            return
        self._send(
            conn,
            {
                "type": "task",
                "task_id": lease.lease_id,
                "digest": digest,
                "spec": spec,
                "task_ref": task_ref,
                "lease_s": lease_s,
                "stolen": lease.stolen,
            },
        )

    def _handle_result(
        self, conn: socket.socket, conn_id: int, msg: Dict[str, object]
    ) -> None:
        result = msg.get("result")
        now = time.monotonic()
        tripped = False
        with self._lock:
            batch = self._batch
            if batch is None:
                self._send(conn, {"type": "ack", "status": "stale"})
                return
            worker = self._worker_names.get(conn_id, f"conn{conn_id}")
            status, index, attempt = batch.complete(
                int(msg.get("task_id", -1)),
                str(msg.get("digest", "")),
                str(getattr(result, "spec_digest", "") or ""),
                now,
            )
            if status == "ok":
                self.breaker.record_success(worker)
            elif status == "mismatch":
                tripped = self.breaker.record_failure(worker, now)
            failed = batch.failed
        if status == "ok":
            self.events.put(
                (
                    "done",
                    index,
                    result,
                    float(msg.get("wall_s", 0.0)),
                    attempt,
                )
            )
        if status == "mismatch":
            self._note(
                "fault",
                f"digest mismatch on spec #{index} from worker {worker}; "
                "result discarded",
            )
            if not failed:
                self._note("recovery", f"spec #{index} requeued after mismatch")
            if tripped:
                self._note(
                    "fault", f"circuit opened: worker {worker} quarantined"
                )
        if failed:
            self.events.put(("fatal", failed))
        if status == "mismatch":
            self._send(
                conn,
                {"type": "reject", "reason": "digest mismatch; result discarded"},
            )
        else:
            self._send(conn, {"type": "ack", "status": status})

    def _handle_error(
        self, conn: socket.socket, conn_id: int, msg: Dict[str, object]
    ) -> None:
        now = time.monotonic()
        transient = False
        with self._lock:
            batch = self._batch
            if batch is not None:
                worker = self._worker_names.get(conn_id, f"conn{conn_id}")
                lease = batch.leases.get(int(msg.get("task_id", -1)))
                index = lease.index if lease is not None else None
                transient = batch.task_error(
                    int(msg.get("task_id", -1)),
                    str(msg.get("error", "unknown error")),
                    str(msg.get("traceback", "")),
                    error_type=str(msg.get("error_type", "")),
                    now=now,
                )
                if transient:
                    self.breaker.record_failure(worker, now)
                failed = batch.failed
            else:
                failed = None
        if transient:
            self._note(
                "fault",
                f"transient worker error on spec #{index}: {msg.get('error')}",
            )
            if not failed:
                self._note(
                    "recovery",
                    f"spec #{index} requeued under retry budget with backoff",
                )
        if failed:
            self.events.put(("fatal", failed))
        self._send(conn, {"type": "ack", "status": "error-recorded"})

    # -- shutdown ------------------------------------------------------
    def close(self) -> None:
        """Tear down the server, every connection, and every thread.

        Idempotent.  Connection sockets are closed on *this* path even
        when their handler threads are wedged (belt and braces with
        the per-connection ``finally`` close), so no file descriptors
        outlive the coordinator.
        """
        if self._closed:
            return
        self._closed = True
        self._closing = True
        try:
            self._server.close()
        except OSError:
            pass
        self._accept_thread.join(timeout=2.0)
        with self._lock:
            conns = list(self._conns.values())
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass
        with self._lock:
            threads = list(self._threads)
        for thread in threads:
            thread.join(timeout=2.0)
        # Final reap: anything a wedged handler did not release.
        with self._lock:
            leftover = list(self._conns.values())
            self._conns.clear()
            self._worker_names.clear()
            self._threads = [t for t in self._threads if t.is_alive()]
        for conn in leftover:
            try:
                conn.close()
            except OSError:
                pass


# ----------------------------------------------------------------------
# the executor
# ----------------------------------------------------------------------
class ClusterExecutor(_ExecutorBase):
    """Executor backed by a :class:`Coordinator` and remote workers.

    This base class spawns nothing: point external ``repro-worker``
    processes at :attr:`address` (printed by the CLI / available after
    ``start()``).  :class:`LocalClusterExecutor` adds local worker
    subprocesses for the single-machine case.

    Semantics match :class:`~repro.exec.executors.SerialExecutor`
    bit for bit: results come back in submission order, cache hits
    short-circuit execution, and equal specs produce equal results on
    any worker (verified by digest on receipt).

    Self-healing extras (all off unless configured in
    :class:`~repro.exec.api.ClusterOptions`): graceful degradation to
    the process backend below a healthy-worker floor (``health``) and
    a deterministic fault-injection plan (``fault_plan``).  A
    coordinator restart needs no extra state: construct a new executor
    over the same cache and re-run the batch.
    """

    def __init__(
        self,
        options: Optional[ClusterOptions] = None,
        task: Callable[[object], object] = measure_spec,
        cache: Optional[ResultCache] = None,
        **option_kwargs: object,
    ):
        super().__init__(task=task, cache=cache)
        if options is not None and option_kwargs:
            raise TypeError("pass ClusterOptions or option kwargs, not both")
        self.options = options if options is not None else ClusterOptions(**option_kwargs)
        if self.options.lease_s <= 0:
            raise ValueError("lease_s must be positive")
        if self.options.retry.max_attempts < 1:
            raise ValueError("retry.max_attempts must be >= 1")
        # Validate that the task survives the module:qualname round
        # trip *before* shipping work (workers import it by reference).
        self.task_ref = task_reference(task)
        if resolve_task(self.task_ref) is not task:
            raise ValueError(
                f"task {task!r} is not importable as {self.task_ref!r}; "
                "cluster tasks must be module-level callables"
            )
        self._coordinator: Optional[Coordinator] = None
        plan = self.options.fault_plan
        make = getattr(plan, "injector", None)
        self._injector = make() if callable(make) else None
        self.degraded = False

    # -- lifecycle -----------------------------------------------------
    @property
    def address(self) -> Optional[Tuple[str, int]]:
        """(host, port) the coordinator listens on, once started."""
        return self._coordinator.address if self._coordinator else None

    def start(self) -> Coordinator:
        """Bind the coordinator (idempotent); returns it."""
        if self._coordinator is None:
            self._coordinator = Coordinator(
                host=self.options.host,
                port=self.options.port,
                health=self.options.health,
                injector=self._injector,
            )
            if (
                self._injector is not None
                and self.cache is not None
                and getattr(self.cache, "injector", None) is None
            ):
                self.cache.injector = self._injector  # chaos-only wiring
            self._on_started()
        return self._coordinator

    def _on_started(self) -> None:
        """Subclass hook: called once after the coordinator binds."""

    def _maintain_workers(self) -> None:
        """Subclass hook: called every sweep while a batch is active."""

    def close(self) -> None:
        if self._coordinator is not None:
            self._coordinator.close()
            self._coordinator = None

    def capabilities(self) -> Capabilities:
        return Capabilities(
            backend="cluster",
            parallel=True,
            distributed=True,
            deterministic=True,
            workers=self.options.workers or None,
            supports_timeout=False,
            supports_retry=True,
        )

    # -- degradation ---------------------------------------------------
    def _fallback_executor(self) -> _ExecutorBase:
        """The local backend used when the cluster degrades."""
        workers = max(1, min(self.options.workers or 1, os.cpu_count() or 1))
        return ParallelExecutor(max_workers=workers, task=self.task, cache=self.cache)

    def _degrade(
        self,
        specs: List[object],
        remaining: List[int],
        results: List[object],
        progress: Optional[ProgressHook],
        total: int,
        completed: int,
    ) -> int:
        """Run the unfinished specs on the process backend; returns the
        updated completed count."""
        self.degraded = True
        if progress is not None:
            progress(
                RunEvent(
                    index=-1,
                    total=total,
                    kind="recovery",
                    detail=(
                        f"cluster below healthy-worker floor "
                        f"({self.options.health.min_healthy_workers}); "
                        f"degrading {len(remaining)} spec(s) to the "
                        "process backend"
                    ),
                )
            )
        with self._fallback_executor() as fallback:
            fallback_results = fallback.run([specs[i] for i in remaining])
        for i, result in zip(remaining, fallback_results):
            results[i] = result
            _emit(progress, completed, total, specs[i], result, cached=False)
            completed += 1
        return completed

    # -- execution -----------------------------------------------------
    def run(
        self,
        specs: Sequence[object],
        progress: Optional[ProgressHook] = None,
    ) -> List[object]:
        specs = list(specs)
        total = len(specs)
        results: List[object] = [None] * total
        completed = 0
        todo: List[int] = []
        for i, spec in enumerate(specs):
            hit = self._cache_get(spec)
            if hit is not None:
                results[i] = hit
                _emit(progress, completed, total, spec, hit, cached=True)
                completed += 1
            else:
                todo.append(i)
        if not todo:
            return results

        coordinator = self.start()
        digests = {i: digest_of(specs[i]) for i in todo}
        coordinator.start_batch(
            todo,
            {i: specs[i] for i in todo},
            digests,
            self.task_ref,
            lease_s=self.options.lease_s,
            retry=self.options.retry,
        )
        sweep_every = max(0.01, min(0.25, self.options.lease_s / 4.0))
        pending = len(todo)
        floor = self.options.health.min_healthy_workers
        below_floor_since: Optional[float] = None
        try:
            while pending:
                action = _fire(self._injector, "coordinator.loop")
                if getattr(action, "kind", None) == "coordinator_restart":
                    raise SimulatedCrash(
                        "injected coordinator_restart: the cache survives; "
                        "resume by re-running the batch"
                    )
                try:
                    event = coordinator.events.get(timeout=sweep_every)
                except Empty:
                    event = None
                if event is not None:
                    if event[0] == "fatal":
                        raise ExecError(event[1])
                    if event[0] == "note":
                        if progress is not None:
                            progress(
                                RunEvent(
                                    index=-1,
                                    total=total,
                                    kind=event[1],
                                    detail=event[2],
                                )
                            )
                    else:
                        _kind, index, result, _wall_s, attempt = event
                        if results[index] is None:
                            results[index] = result
                            self._cache_put(specs[index], result)
                            _emit(
                                progress,
                                completed,
                                total,
                                specs[index],
                                result,
                                cached=False,
                                attempt=attempt,
                            )
                            completed += 1
                            pending -= 1
                coordinator.sweep()
                self._maintain_workers()
                if pending and floor > 0:
                    healthy = self.healthy_workers()
                    now = time.monotonic()
                    if healthy < floor:
                        if below_floor_since is None:
                            below_floor_since = now
                        elif now - below_floor_since >= self.options.health.degrade_after_s:
                            remaining = [i for i in todo if results[i] is None]
                            coordinator.end_batch()
                            completed = self._degrade(
                                specs,
                                remaining,
                                results,
                                progress,
                                total,
                                completed,
                            )
                            pending = 0
                    else:
                        below_floor_since = None
        finally:
            coordinator.end_batch()
        return results

    def healthy_workers(self) -> int:
        """Connected, non-quarantined workers (0 before ``start``)."""
        if self._coordinator is None:
            return 0
        return self._coordinator.healthy_workers()


class LocalClusterExecutor(ClusterExecutor):
    """A cluster whose workers are local subprocesses.

    ``options.workers`` subprocesses run ``python -m repro.exec.worker``
    pointed at the coordinator.  A worker that dies mid-batch (crash,
    ``kill -9``) is detected two ways — connection drop (immediate
    requeue) and lease expiry (belt and braces) — and respawned while
    a batch is active, up to ``2 x workers`` respawns total.

    This is what ``repro run <artifact> --executor cluster --workers N``
    and ``make_executor("cluster", workers=N)`` construct.
    """

    def __init__(self, *args: object, **kwargs: object):
        super().__init__(*args, **kwargs)
        if self.options.workers < 1:
            raise ValueError("LocalClusterExecutor needs workers >= 1")
        self._procs: List[subprocess.Popen] = []
        self._respawns_left = 2 * self.options.workers

    # -- worker management ---------------------------------------------
    def _spawn_worker(self, name: str) -> subprocess.Popen:
        host, port = self.address
        args = ["--connect", f"{host}:{port}", "--name", name]
        plan = self.options.fault_plan
        plan = getattr(plan, "plan", plan)  # accept FaultInjector too
        to_json = getattr(plan, "to_json", None)
        if callable(to_json):
            args += ["--fault-plan", to_json()]
        return spawn_module("repro.exec.worker", *args)

    def _on_started(self) -> None:
        for i in range(self.options.workers):
            self._procs.append(self._spawn_worker(f"local-{i}"))

    def _maintain_workers(self) -> None:
        for i, proc in enumerate(self._procs):
            if proc.poll() is not None and self._respawns_left > 0:
                self._respawns_left -= 1
                self._procs[i] = self._spawn_worker(f"local-respawn-{self._respawns_left}")

    def alive_workers(self) -> int:
        return sum(1 for proc in self._procs if proc.poll() is None)

    def close(self) -> None:
        super().close()  # closes sockets: workers see EOF and exit
        reap(self._procs, grace_s=5.0)
        self._procs = []


# ----------------------------------------------------------------------
# registry hookup
# ----------------------------------------------------------------------
def _cluster_factory(
    options: object,
    task: Callable[[object], object],
    cache: Optional[ResultCache],
) -> ClusterExecutor:
    return LocalClusterExecutor(options=options, task=task, cache=cache)


register_backend(
    "cluster",
    _cluster_factory,
    ClusterOptions,
    summary="socket-based work-stealing cluster (local worker subprocesses)",
)
