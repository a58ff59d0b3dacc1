"""A deterministic local reference server for validating the live backend.

The server answers the :mod:`repro.live.protocol` wire formats (echo
lines, minimal HTTP, PING/PONG) with a **seeded, configurable
service-time distribution**: every accepted request is completed after
a delay drawn from the configured distribution — either one of the
:mod:`repro.workloads.generators` specs (``{"type": "lognormal",
...}``) or an :class:`EmpiricalDistribution` replaying latencies
recorded from a simulated run (the sim-vs-live identity test feeds it
exactly that).  Same seed ⇒ same service-time sequence, which is as
deterministic as a wall-clock target can be; the *measured* latencies
on top still include real scheduling and network-stack jitter, which
is the point.

**Injectable stalls** reuse the duck-typed hook protocol of
:mod:`repro.faults` (an ``injector`` with ``fire(site) -> action`` and
an optional ``seconds`` on the action — the exact shape of
:class:`repro.faults.plan.FaultInjector`; this module never imports
``repro.faults``, mirroring how ``repro.exec`` never does).  The
server consults ``fire("server.request")`` on every accepted request;
a returned action freezes *global* request completion for
``action.seconds`` — the antagonist-stall signature the
coordinated-omission guard test injects.  Tests may also call
:meth:`ReferenceServer.stall` directly.

**Misbehavior modes** (for exercising the self-healing driver and the
validity guards, individually attributable): ``drop_after=N`` closes
every connection after its Nth request with the last response unsent
(reconnect/salvage path), ``accept_delay_s`` serves each connection
only after a fixed delay (slow accept), and ``drift_us_per_request``
ramps the service time over the run (a live non-stationarity source).

Run standalone::

    python -m repro.live.refserver --port 7799 \\
        --service '{"type": "lognormal", "mean": 500.0, "sigma": 0.8}'
"""

from __future__ import annotations

import argparse
import asyncio
import json
import select
import selectors
import threading
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

import numpy as np

from ..workloads.generators import Distribution, distribution_from_spec
from .protocol import (
    PONG,
    decode_request,
    encode_http_response,
    encode_response,
    http_request_seq,
)

__all__ = [
    "EmpiricalDistribution",
    "RefServerConfig",
    "ReferenceServer",
    "ServerThread",
    "serve_in_thread",
    "main",
]

#: Hook site consulted once per accepted request (duck-typed
#: ``injector.fire(site)``, same protocol as ``repro.faults``).
STALL_SITE = "server.request"

#: Hook site consulted once per accepted request *before* servicing:
#: a matching action (``endpoint_reset``) closes the connection
#: abruptly with the request unanswered — the driver's reconnect path
#: under chaos.
RESET_SITE = "server.connection"


if hasattr(selectors, "EpollSelector"):

    class _PreciseEpollSelector(selectors.EpollSelector):
        """epoll with microsecond wait timeouts.

        ``epoll_wait`` counts whole milliseconds, so asyncio rounds every
        timer wait up to the next one: a 150 us and a 900 us service
        time would both complete after about 1 ms.  Waiting on the epoll
        descriptor itself with ``select()``, whose timeout has microsecond
        resolution, and then collecting the events without blocking keeps
        sub-millisecond service times honest.
        """

        def select(self, timeout=None):
            if timeout is not None and timeout > 0:
                try:
                    select.select([self.fileno()], [], [], timeout)
                except ValueError:  # descriptor beyond FD_SETSIZE
                    return super().select(timeout)
                timeout = 0
            return super().select(timeout)

    def _new_event_loop() -> asyncio.AbstractEventLoop:
        return asyncio.SelectorEventLoop(_PreciseEpollSelector())

else:
    _new_event_loop = asyncio.new_event_loop


class EmpiricalDistribution(Distribution):
    """Replay a recorded sample set (e.g. simulated latencies).

    Draws uniformly (seeded) from ``values``; ``scale`` multiplies
    every draw, letting microsecond-scale simulated latencies be
    stretched into the milliseconds where wall-clock timers are
    meaningful, then divided back out by the consumer.
    """

    def __init__(self, values: Sequence[float], scale: float = 1.0):
        arr = np.asarray(values, dtype=float)
        if arr.size == 0:
            raise ValueError("EmpiricalDistribution needs at least one value")
        if np.any(arr < 0):
            raise ValueError("values must be non-negative")
        if scale <= 0:
            raise ValueError("scale must be positive")
        self.values = arr
        self.scale = float(scale)

    def sample(self, rng: np.random.Generator) -> float:
        return float(self.values[rng.integers(0, self.values.size)]) * self.scale

    def sample_block(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if n < 1:
            raise ValueError("n must be >= 1")
        return self.values[rng.integers(0, self.values.size, n)] * self.scale

    def mean(self) -> float:
        return float(self.values.mean()) * self.scale

    def spec(self) -> Dict:
        return {
            "type": "empirical",
            "values": self.values.tolist(),
            "scale": self.scale,
        }


def _service_distribution(service: object) -> Distribution:
    if isinstance(service, Distribution):
        return service
    if isinstance(service, dict):
        if service.get("type") == "empirical":
            return EmpiricalDistribution(
                service["values"], service.get("scale", 1.0)
            )
        return distribution_from_spec(service)
    raise TypeError(
        "service must be a Distribution or a JSON-style spec dict, "
        f"got {type(service).__name__}"
    )


@dataclass
class RefServerConfig:
    """Configuration of one reference server."""

    host: str = "127.0.0.1"
    #: 0 lets the OS pick a free port (read it back from ``.port``).
    port: int = 0
    #: Service-time distribution in **microseconds** (a
    #: :class:`~repro.workloads.generators.Distribution`, a generator
    #: spec dict, or ``{"type": "empirical", "values": [...]}``).
    service: object = field(
        default_factory=lambda: {"type": "constant", "value": 200.0}
    )
    #: Seed of the service-time stream (same seed ⇒ same sequence).
    seed: int = 0
    #: ``"parallel"`` completes each request service_us after receipt
    #: (a perfectly scalable server: no queueing, responses may
    #: reorder).  ``"serial"`` services one request at a time per
    #: connection in FIFO order (queueing becomes visible).
    mode: str = "parallel"
    #: Optional duck-typed fault injector; ``fire("server.request")``
    #: is consulted per request and an action's ``seconds`` stalls all
    #: completions globally.
    injector: object = None
    #: Misbehavior: drop each connection after it has carried this
    #: many requests (the last one goes unanswered — its response is
    #: in flight when the socket closes).  0 disables.  Exercises the
    #: driver's reconnect/salvage path.
    drop_after: int = 0
    #: Misbehavior: sleep this long at the top of every accepted
    #: connection before serving it (slow accept — e.g. an overloaded
    #: listener backlog).  Exercises connect timeouts and the stall
    #: ladder.
    accept_delay_s: float = 0.0
    #: Misbehavior: ramp the service time by this many microseconds
    #: per request seen (a server that degrades under sustained load).
    #: Exercises the non-stationarity guard on a live run.
    drift_us_per_request: float = 0.0

    def __post_init__(self) -> None:
        if self.mode not in ("parallel", "serial"):
            raise ValueError("mode must be 'parallel' or 'serial'")
        if self.drop_after < 0:
            raise ValueError("drop_after must be >= 0")
        if self.accept_delay_s < 0:
            raise ValueError("accept_delay_s must be >= 0")
        if self.drift_us_per_request < 0:
            raise ValueError("drift_us_per_request must be >= 0")


class ReferenceServer:
    """The asyncio server; create, ``await start()``, ``await stop()``."""

    def __init__(self, config: Optional[RefServerConfig] = None):
        self.config = config or RefServerConfig()
        self.service = _service_distribution(self.config.service)
        self._rng = np.random.default_rng(self.config.seed)
        self._server: Optional[asyncio.base_events.Server] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        #: Wall-clock (loop-time) point before which no response may
        #: complete; stalls push it forward.
        self._stalled_until = 0.0
        self.requests_seen = 0
        self.port: int = self.config.port

    # -- lifecycle -----------------------------------------------------
    async def start(self) -> "ReferenceServer":
        self._loop = asyncio.get_running_loop()
        self._server = await asyncio.start_server(
            self._handle, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # -- stalls --------------------------------------------------------
    def stall(self, seconds: float) -> None:
        """Freeze all request completions for ``seconds`` from now.

        Thread-safe: tests running the server in a background thread
        may call this from the main thread.
        """
        if self._loop is None:
            raise RuntimeError("server not started")
        # May be called from a foreign thread; route through the loop.
        self._loop.call_soon_threadsafe(self._stall_now, seconds)

    def _stall_now(self, seconds: float) -> None:
        now = self._loop.time()
        self._stalled_until = max(self._stalled_until, now + float(seconds))

    # -- request handling ----------------------------------------------
    def _service_delay_s(self) -> float:
        return self.service.sample(self._rng) * 1e-6

    def _completion_time(self, now: float) -> float:
        """Loop time at which the request just received may complete."""
        self.requests_seen += 1
        injector = self.config.injector
        if injector is not None:
            action = injector.fire(STALL_SITE)
            if action is not None:
                self._stall_now(float(getattr(action, "seconds", 0.0)))
        delay_s = self._service_delay_s()
        if self.config.drift_us_per_request:
            # Ramped misbehavior: the server slows (or speeds up) with
            # every request it has ever seen — a moving distribution.
            delay_s = max(
                0.0,
                delay_s
                + self.config.drift_us_per_request * self.requests_seen * 1e-6,
            )
        done_at = now + delay_s
        return max(done_at, self._stalled_until)

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        loop = self._loop
        tasks = []
        served = 0
        if self.config.accept_delay_s > 0:
            # Slow-accept misbehavior: the connection exists but the
            # server takes its time before answering anything on it.
            await asyncio.sleep(self.config.accept_delay_s)
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                if line.startswith(b"PING"):
                    writer.write(PONG)
                    continue
                if line.startswith(b"GET "):
                    # Minimal HTTP: drain headers, answer with X-Seq.
                    while True:
                        header = await reader.readline()
                        if header in (b"\r\n", b"\n", b""):
                            break
                    seq = http_request_seq(line)
                    if seq is None:
                        break
                    payload = encode_http_response(seq)
                else:
                    seq = decode_request(line)
                    if seq is None:
                        break
                    payload = encode_response(seq)
                served += 1
                if self.config.drop_after and served >= self.config.drop_after:
                    # drop_after misbehavior: the Nth request never
                    # gets its answer — the socket just goes away,
                    # taking any in-flight responses with it.
                    break
                injector = self.config.injector
                if injector is not None:
                    action = injector.fire(RESET_SITE)
                    if action is not None and getattr(
                        action, "kind", ""
                    ) == "endpoint_reset":
                        # Chaos: reset this connection with the request
                        # unanswered (same observable as drop_after).
                        break
                done_at = self._completion_time(loop.time())
                if self.config.mode == "serial":
                    delay = done_at - loop.time()
                    if delay > 0:
                        await asyncio.sleep(delay)
                    writer.write(payload)
                else:
                    tasks.append(
                        loop.create_task(
                            self._respond_at(writer, payload, done_at)
                        )
                    )
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            for t in tasks:
                t.cancel()
            writer.close()

    async def _respond_at(
        self, writer: asyncio.StreamWriter, payload: bytes, done_at: float
    ) -> None:
        # Re-check the stall clock after sleeping: a stall injected
        # while this response was pending must still delay it.
        loop = self._loop
        while True:
            target = max(done_at, self._stalled_until)
            delay = target - loop.time()
            if delay <= 0:
                break
            await asyncio.sleep(delay)
        if not writer.is_closing():
            writer.write(payload)


# ----------------------------------------------------------------------
# background-thread harness (tests, CI smoke)
# ----------------------------------------------------------------------
class ServerThread:
    """A :class:`ReferenceServer` running its own event loop in a
    daemon thread; exposes ``port``, ``stall()`` and ``stop()``."""

    def __init__(self, config: Optional[RefServerConfig] = None):
        self.server = ReferenceServer(config)
        self._loop = _new_event_loop()
        self._started = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        asyncio.set_event_loop(self._loop)

        async def boot():
            await self.server.start()
            self._started.set()

        self._loop.create_task(boot())
        self._loop.run_forever()
        # Drain callbacks scheduled during shutdown, then close.
        self._loop.run_until_complete(asyncio.sleep(0))
        self._loop.close()

    def start(self, timeout_s: float = 5.0) -> "ServerThread":
        self._thread.start()
        if not self._started.wait(timeout_s):
            raise RuntimeError("reference server failed to start")
        return self

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def target(self) -> str:
        return f"tcp://{self.server.config.host}:{self.port}"

    def stall(self, seconds: float) -> None:
        self.server.stall(seconds)

    def stop(self) -> None:
        if not self._thread.is_alive():
            return

        async def shutdown():
            await self.server.stop()
            self._loop.stop()

        asyncio.run_coroutine_threadsafe(shutdown(), self._loop)
        self._thread.join(timeout=5.0)


def serve_in_thread(
    config: Optional[RefServerConfig] = None,
) -> ServerThread:
    """Start a reference server on a background thread; returns the
    running :class:`ServerThread` (``.target`` is ready to measure)."""
    return ServerThread(config).start()


# ----------------------------------------------------------------------
# CLI: python -m repro.live.refserver
# ----------------------------------------------------------------------
def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.live.refserver",
        description="Deterministic reference server for live measurement",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7799)
    parser.add_argument(
        "--service",
        default='{"type": "constant", "value": 200.0}',
        help="service-time distribution spec (JSON, microseconds)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--mode", choices=("parallel", "serial"), default="parallel")
    parser.add_argument(
        "--drop-after",
        type=int,
        default=0,
        help="misbehavior: drop each connection after N requests (0 = off)",
    )
    parser.add_argument(
        "--accept-delay-s",
        type=float,
        default=0.0,
        help="misbehavior: sleep this long before serving each connection",
    )
    parser.add_argument(
        "--drift-us-per-request",
        type=float,
        default=0.0,
        help="misbehavior: ramp service time by this many us per request",
    )
    args = parser.parse_args(argv)
    config = RefServerConfig(
        host=args.host,
        port=args.port,
        service=json.loads(args.service),
        seed=args.seed,
        mode=args.mode,
        drop_after=args.drop_after,
        accept_delay_s=args.accept_delay_s,
        drift_us_per_request=args.drift_us_per_request,
    )

    async def serve() -> None:
        server = ReferenceServer(config)
        await server.start()
        print(f"refserver listening on tcp://{config.host}:{server.port}", flush=True)
        try:
            await asyncio.Event().wait()
        finally:
            await server.stop()

    loop = _new_event_loop()
    try:
        loop.run_until_complete(serve())
    except KeyboardInterrupt:
        pass
    finally:
        # As asyncio.run does: cancel what is left, let it unwind, close.
        pending = asyncio.all_tasks(loop)
        for task in pending:
            task.cancel()
        if pending:
            loop.run_until_complete(
                asyncio.gather(*pending, return_exceptions=True)
            )
        loop.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
