"""The multi-pool scenario bench: N client fleets x M server pools.

:class:`ScenarioBench` is the scenario-shaped sibling of
:class:`~repro.core.bench.TestBench`: one virtual-time simulator
holding every pool's servers (each booted fresh with its own hidden
placement state), the rack topology with cross-rack spine, optional
colocated antagonists, and all fleet clients — with per-*connection*
routing, because a fleet's connections round-robin across its pool's
servers.

Treadmill instances are reused completely unchanged: they drive an
abstract bench protocol (``sim`` / ``rng`` / ``config.workload`` /
``add_client`` / ``open_connections``), which :meth:`fleet_view`
satisfies per fleet.  A view pins the fleet's rack and target pool and
shares the parent's simulator, RNG registry, and global connection
counter, so host wiring order — and therefore every RNG stream — is a
pure function of the scenario.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..core.bench import drive_until
from ..core.config import hardware_from_json, workload_from_json
from ..sim.engine import Simulator
from ..sim.machine import (
    AntagonistConfig,
    AntagonistProcess,
    ClientMachine,
    ClientSpec,
    HardwareSpec,
    ServerMachine,
)
from ..sim.network import LinkConfig, SpineConfig, Topology
from ..sim.partition import drive_partitioned
from ..sim.rng import RngRegistry
from ..sim.tcpdump import PacketCapture
from ..workloads.base import Request
from .config import link_from_json, spine_from_json
from .schema import ClientFleetSpec, ScenarioSpec

__all__ = ["ScenarioBench"]


class _FleetConfig:
    """The minimal ``bench.config`` surface TreadmillInstance reads."""

    __slots__ = ("workload",)

    def __init__(self, workload):
        self.workload = workload


class _FleetView:
    """One fleet's bench-protocol adapter (duck-typed TestBench)."""

    def __init__(
        self,
        parent: "ScenarioBench",
        fleet: ClientFleetSpec,
        servers: List[ServerMachine],
        rack: str,
    ):
        self._parent = parent
        self._fleet = fleet
        self._servers = servers
        self._rack = rack
        self._current_client: Optional[ClientMachine] = None
        # Round-robin cursor across the pool's servers; per fleet, so
        # every fleet spreads its connections evenly regardless of how
        # other fleets share the pool.
        self._rr = 0
        self.sim = parent.sim
        self.rng = parent.rng
        self.config = _FleetConfig(parent.pool_workloads[fleet.target])

    # -- TestBench protocol -------------------------------------------
    def add_client(
        self,
        name: str,
        rack: Optional[str] = None,
        client_spec: Optional[ClientSpec] = None,
        link_config: Optional[LinkConfig] = None,
        capture: bool = True,
    ) -> ClientMachine:
        parent = self._parent
        if name in parent.clients:
            raise ValueError(f"duplicate client {name!r}")
        rack = rack if rack is not None else self._rack
        parent.topology.add_host(name, rack, link_config=link_config)
        cap = PacketCapture(name) if capture else None
        routes = parent._routes

        if parent._partition is None:

            def send_packet(request: Request) -> None:
                fwd, receive, respond = routes[request.conn_id]
                fwd.send(request.request_bytes, receive, request, respond)

        else:
            # Partitioned: each route entry is the connection's
            # cut-aware forward channel (see open_connections).
            def send_packet(request: Request) -> None:
                routes[request.conn_id](request)

        client = ClientMachine(
            parent._sim_for(name),
            client_spec or ClientSpec(),
            name,
            send_packet=send_packet,
            capture=cap,
        )
        parent.clients[name] = client
        if cap is not None:
            parent.captures[name] = cap
        self._current_client = client
        return client

    def open_connections(self, count: int) -> List[int]:
        """Accept ``count`` connections, round-robin across the pool.

        Connection ids are global across the whole scenario (matching
        the TestBench counter semantics); each id is routed to one
        server of the fleet's target pool at accept time and the
        forward/reverse network paths are resolved once, here, not per
        packet.
        """
        if count < 1:
            raise ValueError("count must be >= 1")
        parent = self._parent
        client = self._current_client
        if client is None:
            raise RuntimeError("open_connections before add_client")
        ids = []
        partition = parent._partition
        for _ in range(count):
            conn_id = parent._conn_counter
            parent._conn_counter += 1
            server = self._servers[self._rr % len(self._servers)]
            self._rr += 1
            server.accept(conn_id)
            fwd = parent.topology.path(client.name, server.name)
            rev = parent.topology.path(server.name, client.name)
            deliver = client.deliver

            if partition is None:

                def respond(request: Request, _rev=rev, _deliver=deliver) -> None:
                    _rev.send(request.response_bytes, _deliver, request)

                parent._routes[conn_id] = (fwd, server.receive, respond)
            else:
                # Same flows as the serial closures, cut-aware; the
                # reverse path first (it is the forward continuation),
                # so channel ids are a pure function of the scenario.
                respond = partition.channel(
                    rev, deliver, src=server.name, dst=client.name,
                    size_attr="response_bytes",
                )
                parent._routes[conn_id] = partition.channel(
                    fwd, server.receive, respond,
                    src=client.name, dst=server.name,
                    size_attr="request_bytes",
                )
            ids.append(conn_id)
        return ids


class ScenarioBench:
    """One wired scenario run (pools + topology + antagonists)."""

    def __init__(self, scenario: ScenarioSpec, run_index: int = 0, partition=None):
        self.scenario = scenario
        self.run_index = run_index
        #: Optional :class:`~repro.sim.partition.PartitionedSimulator`
        #: (every scenario host pre-assigned to a shard).  When set,
        #: machines and links land on their owning sub-kernels and
        #: per-connection routes become cut-aware channels.
        self._partition = partition
        if partition is None:
            self.sim = Simulator()
        else:
            # Nominal base kernel; every host resolves its own via
            # sim_for_host below.
            self.sim = partition.kernels[0]
        # Same per-run seed derivation as TestBench: equal (seed,
        # run_index) means the same random universe either way.
        self.rng = RngRegistry(hash((scenario.seed, run_index)) & 0x7FFFFFFF)
        spine_cfg = (
            spine_from_json(dict(scenario.spine))
            if scenario.spine is not None
            else SpineConfig()
        )
        # Per-source-host spine streams: the draw order is local to
        # each host's uplink FIFO, so sharded execution replays the
        # identical delays (see repro.sim.partition).
        self.topology = Topology(
            self.sim,
            spine_config=spine_cfg,
            spine_streams=lambda host: self.rng.stream(f"spine/{host}"),
            sim_for_host=None if partition is None else partition.sim_for_host,
        )
        #: pool name -> that pool's booted servers, in index order.
        self.pools: Dict[str, List[ServerMachine]] = {}
        #: pool name -> the pool's (shared) workload model instance.
        self.pool_workloads: Dict[str, object] = {}
        for pool in scenario.pools:
            workload = workload_from_json(dict(pool.workload))
            hardware = (
                hardware_from_json(dict(pool.hardware))
                if pool.hardware is not None
                else HardwareSpec()
            )
            link = (
                link_from_json(dict(pool.link)) if pool.link is not None else None
            )
            servers = []
            for i in range(pool.count):
                server_name = f"{pool.name}{i}"
                self.topology.add_host(server_name, pool.rack, link_config=link)
                server = ServerMachine(
                    self._sim_for(server_name),
                    hardware,
                    workload,
                    self.rng.child(server_name),
                    name=server_name,
                )
                server.boot()
                servers.append(server)
            self.pools[pool.name] = servers
            self.pool_workloads[pool.name] = workload
        #: Antagonist processes, in scenario order then server order.
        self.antagonists: List[AntagonistProcess] = []
        for spec in scenario.antagonists:
            servers = self.pools[spec.pool]
            targets = servers if spec.server is None else [servers[spec.server]]
            for server in targets:
                cfg = AntagonistConfig(
                    rate_rps=spec.rate_rps,
                    work_us=spec.work_us,
                    fixed_us=spec.fixed_us,
                    socket=spec.socket,
                )
                self.antagonists.append(
                    AntagonistProcess(
                        server.sim,
                        server,
                        cfg,
                        self.rng.stream(f"antagonist/{spec.name}/{server.name}"),
                        name=f"{spec.name}@{server.name}",
                    )
                )
        self.clients: Dict[str, ClientMachine] = {}
        self.captures: Dict[str, PacketCapture] = {}
        self._conn_counter = 0
        self._routes: Dict[int, object] = {}
        # Deterministic antagonist shutdown: when the final instance
        # completes at T_done, every antagonist gets a stop event at
        # T_done + lookahead.  Same rule the partitioned window loop
        # applies at its barriers, so both kernels silence background
        # load at the identical virtual instant.
        self._expected: Optional[int] = None
        self._completed = 0

    def _sim_for(self, host: str) -> Simulator:
        if self._partition is None:
            return self.sim
        return self._partition.sim_for_host(host)

    def _note_done(self, inst) -> None:
        self._completed += 1
        if self._completed >= (self._expected or 0) and self.antagonists:
            stop_at = self.sim.now + self.topology.lookahead_us()
            for proc in self.antagonists:
                proc.sim.at(stop_at, proc.stop)

    def fleet_view(self, fleet_name: str) -> _FleetView:
        """The bench adapter a fleet's Treadmill instances drive."""
        fleet = self.scenario.fleet(fleet_name)
        pool = self.scenario.pool(fleet.target)
        rack = fleet.rack if fleet.rack is not None else pool.rack
        return _FleetView(self, fleet, self.pools[fleet.target], rack)

    def fleet_total_rate(self, fleet_name: str) -> float:
        """The fleet's total offered load in requests per second."""
        fleet = self.scenario.fleet(fleet_name)
        if fleet.rate_rps is not None:
            return fleet.rate_rps
        servers = self.pools[fleet.target]
        # target_utilization is the per-server utilization this fleet's
        # load alone would induce; all servers of a pool are identical,
        # so one calibration call covers the pool.
        per_us = servers[0].arrival_rate_for_utilization(fleet.target_utilization)
        return per_us * 1e6 * len(servers)

    def start_antagonists(self) -> None:
        for proc in self.antagonists:
            proc.start()

    def stop_antagonists(self) -> None:
        for proc in self.antagonists:
            proc.stop()

    def run_until(self, predicate: Callable[[], bool], check_every: int = 256) -> None:
        drive_until(self.sim, predicate, check_every)

    def run_to_completion(self, instances):
        """Run until every instance is done, then drain in-flight work.

        Instances stop their own controllers at the final counted
        sample; completion callbacks wired here schedule one stop
        event per antagonist at ``T_done + lookahead`` (they reschedule
        themselves forever, so draining without a stop would never
        terminate).  Both the completion instant and the stop instant
        are properties of the event stream, never of the drive loop's
        polling cadence — a partitioned bench reproduces them exactly
        through its window loop, whose
        :class:`~repro.sim.partition.CoordinatorStats` it returns (the
        serial kernel returns ``None``).
        """
        if self._partition is not None:
            return drive_partitioned(
                self._partition,
                instances,
                self.antagonists,
                self.topology.lookahead_us(),
            )
        pending = list(instances)
        self._expected = len(pending)
        self._completed = 0
        for inst in pending:
            inst.on_done = self._note_done
        self.run_until(lambda: all(inst.done for inst in pending))
        for inst in pending:
            inst.stop()
        self.sim.run()
        return None

    @property
    def events_processed(self) -> int:
        """Events executed so far, summed over sub-kernels when sharded."""
        if self._partition is not None:
            return self._partition.events_processed
        return self.sim.events_processed
