"""Per-layer ledger of one or more traced rounds.

Two instruments, both installed by the benchmark from outside the program
and removed again when the traced round ends:

* wrappers around a few public entry points count work that the result
  objects do not carry: result-cache hits, misses and bytes, partition
  windows and boundary events, and the RNG block streams' refills;
* ``cProfile`` over the traced round gives each function's self time,
  collapsed through :data:`MODULE_LAYERS` into layers.  Builtins,
  the standard library and third-party code (numpy, scipy, asyncio) are
  charged to the program code that called them, in proportion to the
  time each caller spent in them.

Time the profile sees outside every layer (the benchmark's own frames,
program modules the map leaves out) is reported as ``unattributed``.
Worker processes forked while a round is traced stop profiling at once,
so only the coordinating process is split into layers.
"""

from __future__ import annotations

import cProfile
import functools
import os
import pstats
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

import repro
import repro.exec.cache
import repro.sim.partition
import repro.workloads.sampling

#: Layers in ledger order.  Every one is reported on every workload.
LAYERS = (
    "sim.engine",
    "sim.cpu",
    "sim.machine",
    "sim.network",
    "sim.memory",
    "sim.partition",
    "workloads",
    "core.loadgen",
    "core.recording",
    "scenarios",
    "stats.fit",
    "exec.cache",
    "exec.dispatch",
    "guards",
    "live.driver",
)

#: Program module (path inside the ``repro`` package) -> layer.  An entry
#: ending in ``/`` covers a whole directory; the longest match wins.
MODULE_LAYERS = {
    "sim/engine.py": "sim.engine",
    "sim/kernel.py": "sim.engine",
    "sim/backends.py": "sim.engine",
    "sim/telemetry.py": "sim.engine",
    "sim/cpu.py": "sim.cpu",
    "sim/machine.py": "sim.machine",
    "sim/network.py": "sim.network",
    "sim/nic.py": "sim.network",
    "sim/tcpdump.py": "sim.network",
    "sim/memory.py": "sim.memory",
    "sim/partition.py": "sim.partition",
    "measure/partitionproc.py": "sim.partition",
    "workloads/": "workloads",
    "core/arrival.py": "workloads",
    "sim/rng.py": "workloads",
    "core/treadmill.py": "core.loadgen",
    "core/controllers.py": "core.loadgen",
    "core/bench.py": "core.loadgen",
    "core/fanout.py": "core.loadgen",
    "core/procedure.py": "core.loadgen",
    "measure/simbackend.py": "core.loadgen",
    "core/phases.py": "core.recording",
    "core/aggregation.py": "core.recording",
    "stats/histogram.py": "core.recording",
    "stats/buffer.py": "core.recording",
    "stats/quantile.py": "core.recording",
    "scenarios/": "scenarios",
    "core/config.py": "scenarios",
    "stats/quantreg.py": "stats.fit",
    "stats/inference.py": "stats.fit",
    "stats/design.py": "stats.fit",
    "core/attribution.py": "stats.fit",
    "experiments/": "stats.fit",
    "exec/cache.py": "exec.cache",
    "exec/": "exec.dispatch",
    "measure/api.py": "exec.dispatch",
    "guards/": "guards",
    "live/": "live.driver",
}

UNATTRIBUTED = "unattributed"

#: Program functions whose call counts are ledger counters:
#: counter -> (module path inside ``repro``, function name).
CALL_COUNTERS = {
    "stats.fit.fits": ("stats/quantreg.py", "fit_quantile_regression"),
    "stats.fit.lp_fits": ("stats/quantreg.py", "_fit_lp"),
    "guards.evaluations": ("guards/api.py", "evaluate_run"),
    "scenarios.compiles": ("scenarios/compiler.py", "compile_scenario"),
}

_REPRO_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep


def layer_of(path: str) -> Optional[str]:
    """The layer of a module given by its path inside ``repro``."""
    best = None
    for key, layer in MODULE_LAYERS.items():
        if path == key or (key.endswith("/") and path.startswith(key)):
            if best is None or len(key) > len(best[0]):
                best = (key, layer)
    return best[1] if best else None


def _owner(filename: str) -> Optional[str]:
    """Layer charged for a function's own time; None for foreign code
    (builtins, stdlib, third-party), which its callers pay for."""
    path = os.path.abspath(filename) if filename not in ("~", "") else filename
    if path.startswith(_REPRO_DIR):
        rel = path[len(_REPRO_DIR):].replace(os.sep, "/")
        return layer_of(rel) or UNATTRIBUTED
    if path.startswith(os.path.dirname(os.path.abspath(__file__)) + os.sep):
        return UNATTRIBUTED  # the benchmark's own frames
    return None


class IOCounter:
    """Bytes this process reads and writes through syscalls between
    :meth:`start` and :meth:`stop` (``rchar``/``wchar`` of
    ``/proc/self/io``, less the counter's own read of that file); zeros
    where the file does not exist."""

    @staticmethod
    def _sample() -> Tuple[int, int, int]:
        try:
            with open("/proc/self/io", "rb") as f:
                data = f.read()
            fields = dict(line.split(b":", 1) for line in data.splitlines())
            return int(fields[b"rchar"]), int(fields[b"wchar"]), len(data)
        except (OSError, KeyError, ValueError):
            return 0, 0, 0

    def start(self) -> "IOCounter":
        self._start = self._sample()
        return self

    def stop(self) -> Tuple[int, int]:
        """(bytes read, bytes written) since :meth:`start`."""
        r0, w0, own = self._start
        r1, w1, _ = self._sample()
        return max(0, r1 - r0 - own), w1 - w0


class Tracer:
    """Counts and profiles the rounds run inside ``with tracer:``.

    Re-entering accumulates: the ledger covers every traced round.  The
    wrappers are installed on entry and the originals restored on exit,
    even when the round raises.
    """

    def __init__(self) -> None:
        self.counters: Dict[str, float] = defaultdict(float)
        self.wall_s = 0.0
        self.rounds = 0
        self._profile = cProfile.Profile()
        self._profiling = False
        self._saved: List[Tuple[object, str, object]] = []
        self._streams: List[object] = []
        os.register_at_fork(after_in_child=self._after_fork_in_child)

    # -- probes -----------------------------------------------------------
    def _patches(self) -> List[Tuple[object, str, Callable]]:
        return [
            (repro.exec.cache.ResultCache, "get", self._wrap_cache_get),
            (repro.exec.cache.ResultCache, "put", self._wrap_cache_put),
            (repro.sim.partition, "run_windows", self._wrap_run_windows),
            (repro.workloads.sampling.BlockStream, "__init__", self._wrap_stream_init),
        ]

    def _wrap_cache_get(self, orig):
        @functools.wraps(orig)
        def get(cache, spec):
            io = IOCounter().start()
            result = orig(cache, spec)
            self.counters["exec.cache.bytes_read"] += io.stop()[0]
            self.counters["exec.cache.hits" if result is not None else "exec.cache.misses"] += 1
            return result

        return get

    def _wrap_cache_put(self, orig):
        @functools.wraps(orig)
        def put(cache, spec, outcome):
            io = IOCounter().start()
            entry = orig(cache, spec, outcome)
            self.counters["exec.cache.bytes_written"] += io.stop()[1]
            return entry

        return put

    def _wrap_run_windows(self, orig):
        @functools.wraps(orig)
        def run_windows(*args, **kwargs):
            stats = orig(*args, **kwargs)
            self.counters["sim.partition.windows"] += stats.windows
            self.counters["sim.partition.boundary_events"] += stats.boundary_events
            return stats

        return run_windows

    def _wrap_stream_init(self, orig):
        @functools.wraps(orig)
        def __init__(stream, *args, **kwargs):
            orig(stream, *args, **kwargs)
            self._streams.append(stream)

        return __init__

    def install(self) -> None:
        for owner, name, wrap in self._patches():
            orig = vars(owner)[name]
            self._saved.append((owner, name, orig))
            setattr(owner, name, wrap(orig))

    def remove(self) -> None:
        while self._saved:
            owner, name, orig = self._saved.pop()
            setattr(owner, name, orig)

    def _after_fork_in_child(self) -> None:
        if self._profiling:
            self._profile.disable()
            self._profiling = False

    # -- context ------------------------------------------------------------
    def __enter__(self) -> "Tracer":
        self.install()
        self._t0 = time.perf_counter()
        self._profiling = True
        self._profile.enable()
        return self

    def __exit__(self, *exc: object) -> None:
        self._profile.disable()
        self._profiling = False
        self.wall_s += time.perf_counter() - self._t0
        self.rounds += 1
        self.remove()
        draws = sum(s.draws for s in self._streams)
        refills = sum(s.refills for s in self._streams)
        self.counters["workloads.rng_draws"] += draws
        self.counters["workloads.rng_refills"] += refills
        self._streams.clear()

    # -- collapse -------------------------------------------------------------
    def ledger(self) -> Dict[str, object]:
        """Self time, share and call count per layer, plus counters."""
        stats = pstats.Stats(self._profile).stats
        owners = {func: _owner(func[0]) for func in stats}
        self_s: Dict[str, float] = defaultdict(float)
        calls: Dict[str, int] = defaultdict(int)
        memo: Dict[tuple, Dict[str, float]] = {}
        in_progress = set()

        def split(func) -> Dict[str, float]:
            """How one second spent in ``func`` divides among layers:
            program code keeps it, foreign code passes it to its callers
            in proportion to the time each spent in it.  A cycle among
            foreign callers is cut and its share left unattributed."""
            owner = owners.get(func)
            if owner is not None:
                return {owner: 1.0}
            if func in memo:
                return memo[func]
            if func in in_progress:
                return {UNATTRIBUTED: 1.0}
            in_progress.add(func)
            callers = {c: v for c, v in stats[func][4].items() if c != func}
            weights = {c: v[3] for c, v in callers.items()}
            if sum(weights.values()) <= 0:
                weights = {c: float(v[0]) for c, v in callers.items()}
            total = sum(weights.values())
            out: Dict[str, float] = defaultdict(float)
            if total <= 0:
                out[UNATTRIBUTED] = 1.0
            for caller, weight in weights.items():
                if weight > 0:
                    for layer, frac in split(caller).items():
                        out[layer] += frac * weight / total
            in_progress.discard(func)
            memo[func] = dict(out)
            return memo[func]

        profiled = 0.0
        for func, (_cc, nc, tt, _ct, callers) in stats.items():
            profiled += tt
            owner = owners[func]
            if owner is not None:
                self_s[owner] += tt
                if owner != UNATTRIBUTED:
                    calls[owner] += nc
                continue
            # Foreign code: each caller pays for the self time it caused.
            charged = 0.0
            for caller, (_nc, _cc2, caller_tt, _ct2) in callers.items():
                for layer, frac in split(caller).items():
                    self_s[layer] += caller_tt * frac
                charged += caller_tt
            self_s[UNATTRIBUTED] += tt - charged

        counters = dict(self.counters)
        by_name = {
            (os.path.abspath(f[0]), f[2]): s[1] for f, s in stats.items() if f[0] != "~"
        }
        for counter, (path, name) in CALL_COUNTERS.items():
            counters[counter] = by_name.get((os.path.join(_REPRO_DIR, path), name), 0)
        wall = self.wall_s
        layers = {
            layer: {
                "self_s": self_s.get(layer, 0.0),
                "share": self_s.get(layer, 0.0) / wall if wall else 0.0,
                "calls": calls.get(layer, 0),
            }
            for layer in LAYERS
        }
        return {
            "rounds": self.rounds,
            "wall_s": wall,
            "profiled_s": profiled,
            "layers": layers,
            "unattributed_s": self_s.get(UNATTRIBUTED, 0.0),
            "counters": counters,
        }
