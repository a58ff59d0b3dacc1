"""Conservative parallel DES: one simulation, many sub-kernels.

The serial kernel (:mod:`repro.sim.engine`) executes one global event
heap.  This module shards that heap: hosts are grouped into
**sub-kernels** (per rack when the partition count allows, splitting
within racks otherwise), each owning its own event queue, and all
sub-kernels advance in lockstep through **conservative time windows**.

Why this is exact, not approximate
----------------------------------

Every cross-host interaction travels the network model
(:mod:`repro.sim.network`), and every network edge imposes a minimum
propagation delay before a packet can be observed by another host.
The minimum over all edges — :meth:`Topology.lookahead_us` — is the
**lookahead** ``L``.  With ``gmin`` the earliest pending event across
all sub-kernels, every event below the barrier ``gmin + L`` is safe to
execute: any message it emits toward another partition carries a
timestamp ``>= its emit time + L >= gmin + L`` (float addition is
monotone), i.e. at or beyond the barrier.  So each window runs without
null messages, and cross-partition events are exchanged only at window
boundaries.

Exchanged events are inserted into the destination kernel in a
deterministic total order — ``(timestamp, source partition, per-window
sequence)`` — so two boundary events sharing a timestamp always enqueue
in the same order regardless of which partition reported first.
Events at equal timestamps in *different* kernels commute (they touch
disjoint hosts; cross-host effects only flow through the network,
which is itself an event), so the merged execution reproduces the
serial kernel's results bit for bit.  The one caveat: an *exact*
float-equal timestamp collision between a boundary event and an
unrelated local event has no serial-order witness; with continuous
stochastic delays such collisions have probability zero, and the
golden-digest gates would catch one if it ever mattered.

Event-count parity
------------------

``RunResult.events_processed`` is part of the bit-identical contract,
so a cut edge must cost exactly as many events as its serial
counterpart:

* same-rack cut: the source side uses :meth:`Link.transmit` (FIFO
  bookkeeping, **no event**) and exports the delivery time; the import
  fires the destination downlink at that time — 2 events, like the
  serial uplink→downlink chain.
* cross-rack cut: the uplink schedules a local *traverse* event that
  draws the spine delay from the source host's own stream and exports;
  the import fires the downlink — 3 events, like serial
  uplink→spine→downlink.

Where it runs
-------------

A sharded run is a build-time choice of the ordinary serial drivers:
:func:`partition_for` turns ``RunSpec.partitions`` into a
:class:`PartitionedSimulator` (or ``None``, which keeps the plain
kernel), the bench wires its hosts onto the sub-kernels, and the
bench's ``run_to_completion`` hands the instances to
:func:`drive_partitioned` instead of the serial drive loop.  Reports,
utilizations and event counts are then read off the same objects the
serial path reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .engine import SimulationError, Simulator

__all__ = [
    "SimError",
    "SubKernel",
    "assign_shards",
    "partition_for",
    "PartitionedSimulator",
    "CoordinatorStats",
    "LocalShardHandle",
    "run_windows",
    "drive_partitioned",
]

#: The ISSUE-facing alias: partition-protocol failures raise the
#: kernel's own :class:`SimulationError` — one error type for "the
#: simulation could not proceed", whether serial or sharded.
SimError = SimulationError


class SubKernel(Simulator):
    """One partition's event queue plus its boundary mailboxes."""

    def __init__(self, shard_id: int):
        super().__init__()
        self.shard_id = shard_id
        #: Boundary events produced this window: ``(time, cid, payload)``
        #: in emission order (the per-window sequence of the tiebreak).
        self.outbox: List[Tuple[float, int, object]] = []
        #: ``(time, instance name)`` completion records for this window.
        self.completions: List[Tuple[float, str]] = []


def assign_shards(
    hosts: Sequence[Tuple[str, str]], n_shards: int
) -> Dict[str, int]:
    """Deterministically map hosts to sub-kernels, rack-affine.

    ``hosts`` is ``(name, rack)`` in construction order.  When the
    partition count does not exceed the rack count, whole racks map to
    shards (per-rack sub-kernels, the primary grouping the network
    lookahead argument is built around); otherwise shards are split
    among racks in proportion to rack order and hosts round-robin
    within their rack's shard block.  Any deterministic map is
    *correct* (cross-host causality only flows through the network);
    this one just minimizes cut edges.
    """
    if n_shards < 1:
        raise ValueError("n_shards must be >= 1")
    rack_order: List[str] = []
    rack_hosts: Dict[str, List[str]] = {}
    for name, rack in hosts:
        if rack not in rack_hosts:
            rack_order.append(rack)
            rack_hosts[rack] = []
        rack_hosts[rack].append(name)
    mapping: Dict[str, int] = {}
    n_racks = len(rack_order)
    if n_racks == 0:
        return mapping
    if n_shards <= n_racks:
        for i, rack in enumerate(rack_order):
            shard = i % n_shards
            for name in rack_hosts[rack]:
                mapping[name] = shard
        return mapping
    # More shards than racks: rack i owns the contiguous shard block
    # [floor(i*K/R), floor((i+1)*K/R)); its hosts round-robin inside.
    for i, rack in enumerate(rack_order):
        lo = (i * n_shards) // n_racks
        hi = ((i + 1) * n_shards) // n_racks
        width = max(1, hi - lo)
        for j, name in enumerate(rack_hosts[rack]):
            mapping[name] = lo + (j % width)
    return mapping


def partition_for(
    hosts: Sequence[Tuple[str, str]], partitions: Optional[int]
) -> "Optional[PartitionedSimulator]":
    """The sub-kernel set a spec's ``partitions`` asks for, hosts assigned.

    ``None`` (and any count ``<= 1``) means the plain serial kernel: a
    single shard would only add window barriers to the same event
    order, so the drivers skip the window loop entirely.
    """
    if partitions is None or partitions <= 1:
        return None
    partition = PartitionedSimulator(partitions)
    partition.assign(assign_shards(hosts, partitions))
    return partition


# ----------------------------------------------------------------------
# channels: every cross-machine flow, cut-aware
# ----------------------------------------------------------------------
class _ThroughChannel:
    """A flow whose endpoints share a sub-kernel: plain path.send."""

    __slots__ = ("cid", "path", "deliver", "extra", "size_of")

    def __init__(self, cid, path, deliver, extra, size_of):
        self.cid = cid
        self.path = path
        self.deliver = deliver
        self.extra = extra
        self.size_of = size_of

    def send(self, payload) -> None:
        self.path.send(self.size_of(payload), self.deliver, payload, *self.extra)


class _CutChannel:
    """A flow crossing partitions: source-side export, barrier import."""

    __slots__ = (
        "cid",
        "src_kernel",
        "downlink",
        "uplink",
        "spine_port",
        "deliver",
        "extra",
        "size_of",
    )

    def __init__(self, cid, path, deliver, extra, size_of, src_kernel):
        self.cid = cid
        self.uplink = path.uplink
        self.downlink = path.downlink
        self.spine_port = path.spine
        self.deliver = deliver
        self.extra = extra
        self.size_of = size_of
        self.src_kernel = src_kernel

    def send(self, payload) -> None:
        if self.spine_port is None:
            # Same-rack cut: occupy the uplink now, no local event —
            # export the delivery-at-downlink time (>= now + link
            # propagation, the lookahead bound for this edge).
            t = self.uplink.transmit(self.size_of(payload))
            self.src_kernel.outbox.append((t, self.cid, payload))
        else:
            # Cross-rack cut: the traverse stays a *local* event (as in
            # serial), so the spine delay is drawn from the source
            # host's stream in local uplink-FIFO order.
            self.uplink.send(self.size_of(payload), self._traverse, payload)

    def _traverse(self, payload) -> None:
        t = self.src_kernel.now + self.spine_port.delay_us()
        self.src_kernel.outbox.append((t, self.cid, payload))

    def deliver_import(self, payload) -> None:
        """Runs in the destination kernel at the exported timestamp."""
        self.downlink.send(self.size_of(payload), self.deliver, payload, *self.extra)


class PartitionedSimulator:
    """K sub-kernels, a host→shard map, and the cut-aware channels.

    One instance represents one sharded simulation.  Benches build
    against it exactly as they build against a single
    :class:`Simulator` — hosts land on their owning kernels via
    :meth:`sim_for_host`, flows become channels via :meth:`channel` —
    and :func:`drive_partitioned` advances all kernels in conservative
    windows.
    """

    def __init__(self, n_shards: int):
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        self.n_shards = n_shards
        self.kernels = [SubKernel(i) for i in range(n_shards)]
        self.shard_map: Dict[str, int] = {}
        self.channels: List[object] = []
        self._import_fns: Dict[int, Callable[[object], None]] = {}
        #: ``cid -> (src_shard, dst_shard)`` — the coordinator's routing
        #: table for boundary events.
        self.routes: Dict[int, Tuple[int, int]] = {}
        self.lookahead_us: Optional[float] = None

    # -- construction --------------------------------------------------
    def assign(self, mapping: Dict[str, int]) -> None:
        for host, shard in mapping.items():
            if not 0 <= shard < self.n_shards:
                raise ValueError(f"host {host!r} assigned to bad shard {shard}")
        self.shard_map.update(mapping)

    def shard_of(self, host: str) -> int:
        return self.shard_map[host]

    def sim_for_host(self, host: str) -> Simulator:
        """Topology hook: each host's links live on its owning kernel."""
        return self.kernels[self.shard_map[host]]

    def set_lookahead(self, lookahead_us: float) -> None:
        """Validate and pin the window lookahead (must be positive)."""
        if lookahead_us <= 0.0:
            raise SimulationError(
                "partitioned execution requires positive network lookahead; "
                f"topology offers {lookahead_us!r}us (zero-propagation links "
                "leave no conservative window)"
            )
        self.lookahead_us = lookahead_us

    def channel(
        self,
        path,
        deliver: Callable[..., None],
        *extra: object,
        src: str,
        dst: str,
        size_attr: str,
    ) -> Callable[[object], None]:
        """Wrap one directed flow ``src -> dst``; returns its send callable.

        ``deliver(payload, *extra)`` fires on the destination host after
        its downlink, exactly like the serial continuation.  Channel ids
        are assigned in creation order, which is a pure function of the
        spec.
        """
        cid = len(self.channels)
        src_shard = self.shard_map[src]
        dst_shard = self.shard_map[dst]
        size_of = attrgetter(size_attr)
        if src_shard == dst_shard:
            ch: object = _ThroughChannel(cid, path, deliver, extra, size_of)
        else:
            ch = _CutChannel(
                cid, path, deliver, extra, size_of, self.kernels[src_shard]
            )
            self._import_fns[cid] = ch.deliver_import
        self.channels.append(ch)
        self.routes[cid] = (src_shard, dst_shard)
        return ch.send

    def import_fn(self, cid: int) -> Callable[[object], None]:
        return self._import_fns[cid]

    # -- introspection -------------------------------------------------
    @property
    def events_processed(self) -> int:
        return sum(k.events_processed for k in self.kernels)


# ----------------------------------------------------------------------
# the window-barrier loop
# ----------------------------------------------------------------------
@dataclass
class CoordinatorStats:
    """What one partitioned run did (bench evidence)."""

    windows: int = 0
    boundary_events: int = 0
    executed: int = 0
    global_now: float = 0.0
    completions: List[Tuple[float, str]] = field(default_factory=list)
    t_done: Optional[float] = None


class LocalShardHandle:
    """Drives one sub-kernel through the window protocol."""

    def __init__(self, partition: PartitionedSimulator, shard: int, antagonists):
        self._import_fn = partition.import_fn
        self.kernel = partition.kernels[shard]
        self._antagonists = antagonists

    def exchange(self, imports, controls) -> float:
        """Apply boundary imports and control events; report next time."""
        at = self.kernel.at
        import_fn = self._import_fn
        for t, cid, payload in imports:
            at(t, import_fn(cid), payload)
        for t, idx in controls:
            at(t, self._antagonists[idx].stop)
        return self.kernel.next_time()

    def advance(self, barrier: float):
        """Run the window; harvest exports and completions."""
        kernel = self.kernel
        executed = kernel.run_window(barrier)
        exports = kernel.outbox
        completions = kernel.completions
        if exports:
            kernel.outbox = []
        if completions:
            kernel.completions = []
        return exports, completions, executed, kernel.now

    def finalize(self, global_now: float) -> None:
        self.kernel.sync_now(global_now)


def run_windows(
    handles,
    *,
    lookahead_us: float,
    n_instances: int,
    antagonist_shards: Sequence[int],
    routes: Dict[int, Tuple[int, int]],
) -> CoordinatorStats:
    """Advance all shards to quiescence through conservative windows.

    Per window: (1) every shard applies the previous window's boundary
    imports (in ``(time, source partition, sequence)`` order) plus any
    control events and reports its earliest pending event; (2) the
    coordinator takes the global minimum ``gmin`` and sets the barrier
    ``gmin + L``; (3) every shard runs strictly below the barrier and
    returns its exports and instance completions.  When the final
    instance completes at ``T_done``, one stop control per antagonist
    is issued at ``T_done + L`` — at or beyond the next barrier by
    construction, and the same rule the serial bench applies inline, so
    both kernels shut background load down at the identical virtual
    instant.

    Raises :class:`SimulationError` if the heaps drain before every
    instance completed (a wiring bug or a lost boundary event).
    """
    stats = CoordinatorStats()
    n_shards = len(handles)
    pending_imports: List[List[Tuple[float, int, object]]] = [
        [] for _ in range(n_shards)
    ]
    pending_controls: List[List[Tuple[float, int]]] = [[] for _ in range(n_shards)]
    controls_issued = not antagonist_shards
    nows = [0.0] * n_shards
    while True:
        next_times = [
            handle.exchange(pending_imports[shard], pending_controls[shard])
            for shard, handle in enumerate(handles)
        ]
        pending_imports = [[] for _ in range(n_shards)]
        pending_controls = [[] for _ in range(n_shards)]
        gmin = min(next_times)
        if gmin == float("inf"):
            break
        barrier = gmin + lookahead_us
        exported: List[Tuple[float, int, int, int, object]] = []
        for shard, handle in enumerate(handles):
            exports, completions, executed, now = handle.advance(barrier)
            stats.executed += executed
            nows[shard] = now
            for seq, (t, cid, payload) in enumerate(exports):
                exported.append((t, shard, seq, cid, payload))
            stats.completions.extend(completions)
        stats.windows += 1
        if exported:
            # The deterministic total order of boundary events:
            # timestamp, then (partition, sequence) as the stable tiebreak.
            exported.sort(key=lambda r: (r[0], r[1], r[2]))
            for t, _shard, _seq, cid, payload in exported:
                pending_imports[routes[cid][1]].append((t, cid, payload))
            stats.boundary_events += len(exported)
        if not controls_issued and len(stats.completions) >= n_instances:
            stats.t_done = max(t for t, _ in stats.completions)
            stop_at = stats.t_done + lookahead_us
            for idx, shard in enumerate(antagonist_shards):
                pending_controls[shard].append((stop_at, idx))
            controls_issued = True
    if len(stats.completions) < n_instances:
        raise SimulationError(
            f"partitioned run drained after {stats.windows} windows with "
            f"{len(stats.completions)}/{n_instances} instances complete "
            "(lost boundary event or wiring bug)"
        )
    if stats.t_done is None:
        stats.t_done = max(t for t, _ in stats.completions)
    stats.global_now = max(nows)
    for handle in handles:
        handle.finalize(stats.global_now)
    return stats


def drive_partitioned(
    partition: PartitionedSimulator,
    instances: Sequence[object],
    antagonists: Sequence[object],
    lookahead_us: float,
) -> CoordinatorStats:
    """Run a wired, started sharded bench until every instance is done.

    The sharded twin of :func:`repro.core.bench.drive_to_completion`:
    each instance logs its completion into its client's sub-kernel,
    the antagonists stop at ``T_done + L``, and on return every kernel
    clock sits on the global last-event time — so reports,
    utilizations and event counts read exactly as after a serial run.
    """
    partition.set_lookahead(lookahead_us)
    for inst in instances:
        kernel = inst.client.sim

        def _note(inst, kernel=kernel) -> None:
            kernel.completions.append((kernel.now, inst.name))

        inst.on_done = _note
    handles = [
        LocalShardHandle(partition, shard, antagonists)
        for shard in range(partition.n_shards)
    ]
    return run_windows(
        handles,
        lookahead_us=lookahead_us,
        n_instances=len(instances),
        antagonist_shards=[proc.sim.shard_id for proc in antagonists],
        routes=partition.routes,
    )
