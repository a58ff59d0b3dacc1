"""Discrete-event simulation kernel.

This module provides the virtual-time substrate for the whole
reproduction.  The paper drives real hardware with wall-clock
microsecond timing; we instead schedule every send, interrupt, context
switch, and completion as an event on a virtual clock measured in
microseconds.  Virtual time makes the load generator *perfectly*
precise, which is exactly the property the paper's open-loop controller
needs (Section II-A) and the property that is impossible to get from
pure Python against a wall clock.

The kernel is deliberately minimal and callback-oriented for speed:
a binary heap of ``(time, seq, Event)`` entries, a monotone sequence
number for deterministic FIFO tie-breaking, and O(1) cancellation via
tombstones.  A generator-based process API (:meth:`Simulator.spawn`) is
layered on top for the few places where sequential control flow is more
readable than callback chains.

Hot-path design notes (this kernel executes hundreds of thousands of
events per simulated second, so per-event overhead is the throughput
of the whole library):

* ``run`` / ``run_until`` are fused loops: heap access, tombstone
  skipping, clock advance, and dispatch all happen inline with hot
  attribute lookups bound into locals, instead of re-entering
  ``step()`` per event.
* Tombstone discarding is a single shared pop path
  (:meth:`Simulator._prune`) used by ``peek``, ``step``, and both run
  loops, so an event is never examined twice.  ``peek`` only discards
  already-dead tombstones — no live state changes on a read.
* Fired :class:`Event` objects are recycled through a small pool.
  Recycling is only safe when the kernel holds the *sole* remaining
  reference (``sys.getrefcount(ev) == 2``: the local plus the refcount
  probe itself); events still referenced by controllers or processes
  (which may cancel them late) are simply left to the garbage
  collector.
"""

from __future__ import annotations

import gc
import heapq
import sys
from contextlib import contextmanager
from typing import Any, Callable, Generator, Iterable, Iterator, List, Optional, Tuple

__all__ = ["Event", "Process", "Simulator", "SimulationError", "gc_paused"]

_heappush = heapq.heappush
_heappop = heapq.heappop
_getrefcount = sys.getrefcount

#: Upper bound on pooled Event objects per simulator (plenty for any
#: realistic number of simultaneously in-flight events between pops).
_POOL_MAX = 4096


@contextmanager
def gc_paused() -> Iterator[None]:
    """Disable the cyclic collector for one simulation run.

    The event loop allocates no reference cycles; cyclic-GC passes in
    the middle of a run are pure overhead.  The collector's prior state
    is restored even on error.
    """
    was_enabled = gc.isenabled()
    if was_enabled:
        gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


class SimulationError(RuntimeError):
    """Raised for kernel misuse (time travel, running a stopped sim)."""


class Event:
    """A scheduled callback.

    Instances are returned by :meth:`Simulator.schedule` /
    :meth:`Simulator.at` and can be cancelled.  Cancellation is O(1):
    the heap entry stays behind as a tombstone and is skipped when
    popped.
    """

    __slots__ = ("time", "fn", "args", "cancelled", "_sim")

    def __init__(
        self,
        time: float,
        fn: Callable[..., Any],
        args: Tuple[Any, ...],
        sim: Optional["Simulator"] = None,
    ):
        self.time = time
        self.fn = fn
        self.args = args
        self.cancelled = False
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the callback from firing.  Idempotent.

        Counts the tombstone left in the owning simulator's heap, which
        is what makes :attr:`Simulator.pending` O(1): live events are
        ``len(heap) - tombstones``, with no bookkeeping at all on the
        schedule/fire fast path.
        """
        if not self.cancelled:
            self.cancelled = True
            if self._sim is not None:
                self._sim._tombstones += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        name = getattr(self.fn, "__qualname__", repr(self.fn))
        return f"<Event t={self.time:.3f} fn={name} {state}>"


class Process:
    """A generator-driven sequential activity.

    The generator yields either a float delay (in simulated
    microseconds) or ``None`` (yield control and resume immediately at
    the same timestamp).  The process ends when the generator returns.
    """

    __slots__ = ("sim", "gen", "alive", "_event")

    def __init__(self, sim: "Simulator", gen: Generator[Optional[float], None, None]):
        self.sim = sim
        self.gen = gen
        self.alive = True
        self._event: Optional[Event] = None
        self._step()

    def _step(self) -> None:
        if not self.alive:
            return
        try:
            delay = next(self.gen)
        except StopIteration:
            self.alive = False
            self._event = None
            return
        if delay is None:
            delay = 0.0
        if delay < 0:
            raise SimulationError(f"process yielded negative delay {delay!r}")
        self._event = self.sim.schedule(delay, self._step)

    def kill(self) -> None:
        """Terminate the process; any pending resume event is cancelled."""
        self.alive = False
        if self._event is not None:
            self._event.cancel()
            self._event = None
        self.gen.close()


class Simulator:
    """Virtual-time event loop.

    Time is a float in **microseconds** — the natural unit of the
    paper's latency measurements.  Determinism guarantee: two events at
    the same timestamp fire in the order they were scheduled.
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: List[Tuple[float, int, Event]] = []
        self._seqn = 0
        self._stopped = False
        self._events_processed = 0
        #: Cancelled entries still sitting in the heap.  ``pending`` is
        #: ``len(heap) - tombstones`` — exact, O(1), and free on the
        #: schedule/fire fast path (only cancel() and tombstone pops,
        #: both rare, touch the counter).
        self._tombstones = 0
        #: Recycled Event objects (see module docstring).
        self._pool: List[Event] = []

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` microseconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay!r})")
        time = self.now + delay
        pool = self._pool
        if pool:
            event = pool.pop()
            if __debug__:
                # Stale-handle tripwire: a pooled Event must be a dead
                # tombstone owned by *this* kernel.  A live or foreign
                # event here means a handle crossed a partition boundary
                # and was cancelled/rescheduled after recycling — which
                # would silently retarget an unrelated future event.
                assert event.cancelled and event.fn is None, (
                    "pooled Event escaped with live state; a stale handle "
                    "was recycled while still scheduled"
                )
                assert event._sim is self, (
                    "Event recycled across a simulator/partition boundary"
                )
            event.time = time
            event.fn = fn
            event.args = args
            event.cancelled = False
        else:
            event = Event(time, fn, args, sim=self)
        self._seqn = seq = self._seqn + 1
        _heappush(self._heap, (time, seq, event))
        return event

    def at(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute virtual ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time!r} before now={self.now!r}"
            )
        pool = self._pool
        if pool:
            event = pool.pop()
            if __debug__:
                assert event.cancelled and event.fn is None, (
                    "pooled Event escaped with live state; a stale handle "
                    "was recycled while still scheduled"
                )
                assert event._sim is self, (
                    "Event recycled across a simulator/partition boundary"
                )
            event.time = time
            event.fn = fn
            event.args = args
            event.cancelled = False
        else:
            event = Event(time, fn, args, sim=self)
        self._seqn = seq = self._seqn + 1
        _heappush(self._heap, (time, seq, event))
        return event

    def spawn(self, gen: Generator[Optional[float], None, None]) -> Process:
        """Start a generator-based process (see :class:`Process`)."""
        return Process(self, gen)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued.  O(1):
        the heap length minus the tombstone count, never a heap scan
        (load testers poll this every request at high rates)."""
        return len(self._heap) - self._tombstones

    @property
    def events_processed(self) -> int:
        """Total events executed since construction."""
        return self._events_processed

    def _prune(self) -> None:
        """Discard dead tombstones from the heap top.

        The single shared pop path: ``peek``, ``step``, ``run``, and
        ``run_until`` all rely on the invariant that after pruning the
        heap top (if any) is a live event.  Dead entries may be pooled
        for reuse when nothing else references them.
        """
        heap = self._heap
        pool = self._pool
        while heap and heap[0][2].cancelled:
            event = _heappop(heap)[2]
            self._tombstones -= 1
            if _getrefcount(event) == 2 and len(pool) < _POOL_MAX:
                event.fn = None
                event.args = ()
                pool.append(event)

    def peek(self) -> Optional[float]:
        """Timestamp of the next live event, or ``None`` if drained.

        Logically read-only: the only mutation is discarding already
        dead tombstones (via the shared :meth:`_prune` path), which no
        observable state depends on.
        """
        self._prune()
        return self._heap[0][0] if self._heap else None

    def step(self) -> bool:
        """Execute the single next event.  Returns False when drained."""
        self._prune()
        heap = self._heap
        if not heap:
            return False
        time, _, event = _heappop(heap)
        self.now = time
        self._events_processed += 1
        event.cancelled = True  # fired; a late cancel() must be a no-op
        fn = event.fn
        args = event.args
        if _getrefcount(event) == 2 and len(self._pool) < _POOL_MAX:
            event.fn = None
            event.args = ()
            self._pool.append(event)
        del event
        fn(*args)
        return True

    def run(self, max_events: Optional[int] = None) -> int:
        """Run until the event heap drains (or ``max_events`` executed).

        Returns the number of events executed by this call, which lets
        slice-driving callers (e.g. ``TestBench.run_until``) detect a
        drained heap without a separate ``peek``.
        """
        self._stopped = False
        heap = self._heap
        pool = self._pool
        limit = float("inf") if max_events is None else max_events
        executed = 0
        while heap and executed < limit:
            if self._stopped:
                break
            time, _, event = _heappop(heap)
            if event.cancelled:
                # Tombstone: recycle when nothing else references it.
                self._tombstones -= 1
                if _getrefcount(event) == 2 and len(pool) < _POOL_MAX:
                    event.fn = None
                    event.args = ()
                    pool.append(event)
                continue
            self.now = time
            event.cancelled = True  # fired; late cancel() is a no-op
            executed += 1
            fn = event.fn
            args = event.args
            if _getrefcount(event) == 2 and len(pool) < _POOL_MAX:
                event.fn = None
                event.args = ()
                pool.append(event)
            del event
            fn(*args)
        self._events_processed += executed
        return executed

    def run_until(self, time: float) -> int:
        """Run all events with timestamp <= ``time`` and advance the clock.

        The clock lands exactly on ``time`` even if no event fires
        there, so back-to-back ``run_until`` calls observe a monotone
        clock.  Returns the number of events executed.

        A single fused batch loop: the old implementation alternated
        ``peek()`` (which popped tombstones and read the top) with
        ``step()`` (which re-examined the same top entry); here every
        heap entry is popped and examined exactly once.
        """
        if time < self.now:
            raise SimulationError(
                f"run_until({time!r}) is before now={self.now!r}"
            )
        self._stopped = False
        heap = self._heap
        pool = self._pool
        executed = 0
        while heap:
            if self._stopped:
                break
            head = heap[0]
            event = head[2]
            if event.cancelled:
                _heappop(heap)
                self._tombstones -= 1
                if _getrefcount(event) == 3 and len(pool) < _POOL_MAX:
                    # 3: `head`, `event`, and the refcount probe — the
                    # popped tuple is gone, nothing external remains.
                    del head
                    event.fn = None
                    event.args = ()
                    pool.append(event)
                continue
            t = head[0]
            if t > time:
                break
            _heappop(heap)
            del head
            self.now = t
            event.cancelled = True  # fired; late cancel() is a no-op
            executed += 1
            fn = event.fn
            args = event.args
            if _getrefcount(event) == 2 and len(pool) < _POOL_MAX:
                event.fn = None
                event.args = ()
                pool.append(event)
            del event
            fn(*args)
        self._events_processed += executed
        if not self._stopped and self.now < time:
            self.now = time
        return executed

    def run_window(self, limit: float) -> int:
        """Execute every event with timestamp strictly below ``limit``.

        The conservative-window primitive for partitioned execution
        (:mod:`repro.sim.partition`): a sub-kernel may safely run all
        events below the window barrier, because the partitioning
        lookahead guarantees no cross-partition event can arrive with a
        timestamp under the barrier.  Unlike :meth:`run_until` the
        clock is **not** advanced to ``limit`` — it stays on the last
        executed event, so the final merged clock equals the serial
        kernel's (``max`` over sub-kernels of the last event time).

        Returns the number of events executed.
        """
        heap = self._heap
        pool = self._pool
        executed = 0
        while heap:
            head = heap[0]
            event = head[2]
            if event.cancelled:
                _heappop(heap)
                self._tombstones -= 1
                if _getrefcount(event) == 3 and len(pool) < _POOL_MAX:
                    # 3: `head`, `event`, and the refcount probe.
                    del head
                    event.fn = None
                    event.args = ()
                    pool.append(event)
                continue
            t = head[0]
            if t >= limit:
                break
            _heappop(heap)
            del head
            self.now = t
            event.cancelled = True  # fired; late cancel() is a no-op
            executed += 1
            fn = event.fn
            args = event.args
            if _getrefcount(event) == 2 and len(pool) < _POOL_MAX:
                event.fn = None
                event.args = ()
                pool.append(event)
            del event
            fn(*args)
        self._events_processed += executed
        return executed

    def next_time(self) -> float:
        """Timestamp of the next live event, or ``inf`` when drained.

        The window-barrier variant of :meth:`peek`: partitioned
        coordinators take a ``min`` across sub-kernels, for which
        ``inf`` composes and ``None`` does not.
        """
        self._prune()
        return self._heap[0][0] if self._heap else float("inf")

    def sync_now(self, time: float) -> None:
        """Advance the idle clock to ``time`` without executing events.

        Used at partitioned finalization: every sub-kernel's clock is
        synchronized to the global last-event time so rate-style
        readings (utilizations divide by ``now``) match the serial
        kernel exactly.  Rewinding is refused.
        """
        if time < self.now:
            raise SimulationError(
                f"sync_now({time!r}) would rewind the clock (now={self.now!r})"
            )
        self.now = time

    def stop(self) -> None:
        """Stop the currently executing :meth:`run` / :meth:`run_until`."""
        self._stopped = True

    def drain(self, events: Iterable[Event]) -> None:
        """Cancel a batch of events (convenience for teardown)."""
        for event in events:
            event.cancel()
