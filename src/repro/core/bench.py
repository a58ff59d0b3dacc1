"""Test-bench wiring: one server, a topology, and client machines.

A :class:`TestBench` assembles everything a load-testing experiment
needs inside a single virtual-time simulator:

* the :class:`~repro.sim.machine.ServerMachine` under test (booted
  fresh, so every bench carries new hidden placement state — one bench
  corresponds to one of the paper's independent *runs*),
* a rack :class:`~repro.sim.network.Topology` with the server and any
  number of client hosts, and
* per-client packet plumbing: request packets travel client NIC ->
  network -> server pipeline -> network -> client NIC, with a
  :class:`~repro.sim.tcpdump.PacketCapture` riding each client NIC for
  ground truth.

Load testers (Treadmill and the pitfall baselines alike) only deal in
:meth:`add_client` / :meth:`open_connections` and the returned
machines; all routing stays here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..sim.engine import Simulator
from ..sim.machine import ClientMachine, ClientSpec, HardwareSpec, ServerMachine
from ..sim.network import LinkConfig, SpineConfig, Topology
from ..sim.partition import drive_partitioned
from ..sim.rng import RngRegistry
from ..sim.tcpdump import PacketCapture
from ..workloads.base import Request, Workload

__all__ = ["BenchConfig", "TestBench", "drive_until", "drive_to_completion"]


def drive_until(sim: Simulator, predicate: Callable[[], bool], check_every: int = 256) -> None:
    """Run ``sim`` until ``predicate()`` is true.

    The predicate is polled every ``check_every`` events to keep the
    loop overhead negligible; raises if the event heap drains while
    the predicate is still false (a wiring bug: nothing left to wait
    for).  Events are executed in batches of ``check_every`` via the
    kernel's fused ``run`` loop rather than one ``step()`` call per
    event — same predicate cadence, a fraction of the dispatch
    overhead.  Shared by :class:`TestBench` and the scenario bench
    (:mod:`repro.scenarios.bench`): one drive loop, one semantics.
    """
    if check_every < 1:
        raise ValueError("check_every must be >= 1")
    while True:
        if predicate():
            return
        executed = sim.run(max_events=check_every)
        if executed < check_every and sim.peek() is None:
            if predicate():
                return
            raise RuntimeError(
                "simulation drained before the run condition was met "
                "(no pending events; check load-tester wiring)"
            )


def drive_to_completion(sim: Simulator, instances) -> None:
    """Run until every instance reports done, then drain in-flight work."""
    pending = list(instances)
    drive_until(sim, lambda: all(inst.done for inst in pending))
    for inst in pending:
        inst.stop()
    # Let in-flight requests and responses finish.
    sim.run()


@dataclass
class BenchConfig:
    """Everything needed to stand up one experiment run."""

    workload: Workload
    hardware: HardwareSpec = field(default_factory=HardwareSpec)
    seed: int = 0
    server_name: str = "server"
    server_rack: str = "rack0"
    spine: SpineConfig = field(default_factory=SpineConfig)
    #: Access-link configuration for the server host.
    server_link: LinkConfig = field(default_factory=LinkConfig)


class TestBench:
    """One wired experiment run (server + network + clients)."""

    #: Not a pytest test class, despite the name.
    __test__ = False

    def __init__(self, config: BenchConfig, run_index: int = 0, partition=None):
        self.config = config
        self.run_index = run_index
        #: Optional :class:`~repro.sim.partition.PartitionedSimulator`
        #: with every host already assigned to a shard.  When set, each
        #: host's machine and links land on its owning sub-kernel and
        #: cross-shard flows become boundary channels; ``bench.sim`` is
        #: then the *server's* kernel.
        self._partition = partition
        if partition is None:
            self.sim = Simulator()
        else:
            self.sim = partition.sim_for_host(config.server_name)
        # Each run derives an independent seed so repeated runs are
        # independent experiments (the hysteresis procedure needs this).
        self.rng = RngRegistry(hash((config.seed, run_index)) & 0x7FFFFFFF)
        # Spine delays draw from a per-source-host stream, so the draw
        # order is a local property of each host's uplink FIFO — the
        # property that lets sub-kernels replay the identical draws no
        # matter how the simulation is sharded.
        self.topology = Topology(
            self.sim,
            spine_config=config.spine,
            spine_streams=lambda host: self.rng.stream(f"spine/{host}"),
            sim_for_host=None if partition is None else partition.sim_for_host,
        )
        self.topology.add_host(
            config.server_name, config.server_rack, link_config=config.server_link
        )
        self.server = ServerMachine(
            self.sim,
            config.hardware,
            config.workload,
            self.rng.child("server"),
            name=config.server_name,
        )
        self.server.boot()
        self.clients: Dict[str, ClientMachine] = {}
        self.captures: Dict[str, PacketCapture] = {}
        self._conn_counter = 0
        self._done_waiters: List[Callable[[], bool]] = []

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_client(
        self,
        name: str,
        rack: Optional[str] = None,
        client_spec: Optional[ClientSpec] = None,
        link_config: Optional[LinkConfig] = None,
        capture: bool = True,
    ) -> ClientMachine:
        """Stand up a load-tester host and wire its packet paths."""
        if name in self.clients:
            raise ValueError(f"duplicate client {name!r}")
        rack = rack if rack is not None else self.config.server_rack
        self.topology.add_host(name, rack, link_config=link_config)
        cap = PacketCapture(name) if capture else None
        fwd = self.topology.path(name, self.config.server_name)
        rev = self.topology.path(self.config.server_name, name)

        partition = self._partition
        host_sim = self.sim if partition is None else partition.sim_for_host(name)
        client = ClientMachine(
            host_sim,
            client_spec or ClientSpec(),
            name,
            send_packet=lambda request: None,  # replaced below
            capture=cap,
        )

        server_receive = self.server.receive
        deliver = client.deliver
        server_name = self.config.server_name

        if partition is None:

            def respond(request: Request) -> None:
                rev.send(request.response_bytes, deliver, request)

            def send_packet(request: Request) -> None:
                fwd.send(request.request_bytes, server_receive, request, respond)

        else:
            # Identical flows, cut-aware: a channel whose endpoints
            # share a shard degenerates to the closures above; a cut
            # channel exports at the boundary.  Creation order (reverse
            # path first — it is the forward continuation) is fixed, so
            # channel ids are a pure function of the spec.
            respond = partition.channel(
                rev, deliver, src=server_name, dst=name,
                size_attr="response_bytes",
            )
            send_packet = partition.channel(
                fwd, server_receive, respond, src=name, dst=server_name,
                size_attr="request_bytes",
            )

        client._send_packet = send_packet
        self.clients[name] = client
        if cap is not None:
            self.captures[name] = cap
        return client

    def open_connections(self, count: int) -> List[int]:
        """Accept ``count`` new connections on the server; returns ids."""
        if count < 1:
            raise ValueError("count must be >= 1")
        ids = []
        for _ in range(count):
            conn_id = self._conn_counter
            self._conn_counter += 1
            self.server.accept(conn_id)
            ids.append(conn_id)
        return ids

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run_until(self, predicate: Callable[[], bool], check_every: int = 256) -> None:
        """Run the simulation until ``predicate()`` is true.

        Delegates to the module-level :func:`drive_until` (shared with
        the scenario bench) — see its docstring for semantics.
        """
        drive_until(self.sim, predicate, check_every)

    def run_to_completion(self, instances):
        """Run until every instance reports done, then drain in-flight work.

        A partitioned bench advances its sub-kernels in conservative
        windows instead and returns the window
        :class:`~repro.sim.partition.CoordinatorStats`; the serial
        kernel returns ``None``.
        """
        if self._partition is not None:
            return drive_partitioned(
                self._partition, instances, (), self.topology.lookahead_us()
            )
        drive_to_completion(self.sim, instances)
        return None

    @property
    def events_processed(self) -> int:
        """Events executed so far, summed over sub-kernels when sharded."""
        if self._partition is not None:
            return self._partition.events_processed
        return self.sim.events_processed
