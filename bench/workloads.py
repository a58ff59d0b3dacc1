"""The benchmark's workloads, seen from outside the program.

Each workload builds its inputs from the seed in :meth:`setup`, then runs
one fixed unit of work per :meth:`round` through the program's public
API.  :meth:`finish` checks a round's outputs after it has been timed and
returns what it attempted, what failed, its output digest and its
counters.  Why each workload exists is recorded in ``BENCHMARK.json`` and
``bench/README.md``.

Sizes are fixed here.  ``tiny=True`` shrinks every workload for the
self-tests; the command line cannot select it.
"""

from __future__ import annotations

import hashlib
import json
import os
import select
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

import repro
from repro.core.attribution import AttributionConfig, AttributionStudy
from repro.exec import ParallelExecutor, ResultCache, RunSpec, SerialExecutor
from repro.exec.spec import result_fingerprint
from repro.experiments.common import HIGH_LOAD, LOW_LOAD
from repro.experiments.estimates import PERCENTILES, EstimatesResult, render_impacts
from repro.live import ping
from repro.measure import backend_defaults, measure_spec
from repro.scenarios import (
    compile_scenario,
    list_scenarios,
    load_scenario,
    scenario_from_json,
    scenario_to_jsonable,
)
from repro.workloads.memcached import MemcachedWorkload

from ledger import IOCounter

#: Process-executor workers: never more than the host's CPUs, so the
#: benchmark does not measure its own oversubscription.
WORKERS = max(1, min(2, os.cpu_count() or 1))

#: The refserver's constant service time: the ground truth the live
#: measurement is checked against.
SERVICE_US = 300.0
LIVE_RATE_RPS = 4000.0
#: Offered rates probed for the live driver's ceiling (traced runs only).
CEILING_LADDER_RPS = (4000.0, 6000.0, 8000.0, 12000.0)


@dataclass
class Checked:
    """A round's outputs after checking."""

    attempted: int
    failed: int
    digest: Optional[str]
    counters: Dict[str, float] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)


def proc_cpu_s(pid: int) -> float:
    """User plus system CPU seconds of another process, from ``/proc``."""
    with open(f"/proc/{pid}/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _digest(fingerprints: List[str], text: str = "") -> str:
    h = hashlib.sha256()
    for fp in fingerprints:
        h.update(fp.encode())
    h.update(text.encode())
    return h.hexdigest()


def _warm_up_interpreter(seed: int) -> None:
    """One small simulation, so first-call costs land in set-up, not in
    the first timed round."""
    measure_spec(
        RunSpec(
            workload=MemcachedWorkload(),
            target_utilization=HIGH_LOAD,
            num_instances=1,
            warmup_samples=20,
            measurement_samples_per_instance=50,
            seed=seed,
        )
    )


class Capture:
    """Stands in for an executor and records what the real one returns.

    The program calls ``run(specs, progress)`` on it exactly as on any
    executor; the benchmark keeps the results for checking and the
    timings for the dispatch-overhead counter.
    """

    def __init__(self, executor):
        self.executor = executor
        self.workers = executor.capabilities().workers or 1
        self.results: List[object] = []
        self.retries = 0
        self.worker_s = 0.0  # workers x wall of every batch
        self.read_bytes = 0  # bytes read by this process during batches

    def run(self, specs, progress=None):
        def on_event(event):
            if event.kind == "run":
                self.retries += event.attempt - 1
            if progress is not None:
                progress(event)

        io = IOCounter().start()
        t0 = time.perf_counter()
        results = self.executor.run(specs, progress=on_event)
        self.worker_s += (time.perf_counter() - t0) * self.workers
        self.read_bytes += io.stop()[0]
        self.results.extend(results)
        return results

    def counters(self) -> Dict[str, float]:
        fresh = [r for r in self.results if not r.from_cache]
        busy_s = sum(r.wall_s for r in fresh)
        events = sum(r.events_processed for r in fresh)
        requests = sum(rep.requests_sent for r in fresh for rep in r.reports)
        return {
            "sim.events": events,
            "sim.requests": requests,
            "exec.cached": len(self.results) - len(fresh),
            "exec.dispatch.overhead_s": self.worker_s - busy_s,
            "exec.dispatch.worker_s": self.worker_s,
            "exec.dispatch.retries": self.retries,
            "exec.dispatch.result_bytes": self.read_bytes if self.workers > 1 else 0,
            "guards.fail_verdicts": sum(
                len(r.guards.failures()) for r in self.results if r.guards is not None
            ),
        }


class Workload:
    """Interface of every workload (see the module docstring)."""

    name = ""

    def setup(self) -> None:
        raise NotImplementedError

    def reference(self) -> Optional[object]:
        """An untimed round run before the timed ones, whose digest every
        timed round must reproduce; None when rounds only agree among
        themselves."""
        return None

    def round(self) -> object:
        raise NotImplementedError

    def finish(self, payload: object) -> Checked:
        raise NotImplementedError

    def ops_per_round(self) -> int:
        """Operations a round attempts, counted as failed if it raises."""
        raise NotImplementedError

    def extra_pids(self) -> List[int]:
        """Other processes whose CPU belongs to a round."""
        return []

    def trace_extras(self) -> Dict[str, float]:
        """Per-layer measurements made once per traced run."""
        return {}

    def close(self) -> None:
        pass


@dataclass(frozen=True)
class Fig08Sizes:
    replications: int
    instances: int
    samples: int
    warmup: int
    n_boot: int


FIG08_SIZES = Fig08Sizes(replications=1, instances=2, samples=500, warmup=100, n_boot=25)
FIG08_TINY = Fig08Sizes(replications=1, instances=2, samples=60, warmup=20, n_boot=3)


class Fig08(Workload):
    """The Fig. 8 factorial attribution: specs -> runs -> quantile
    regression -> per-factor impact table, at low and high load.

    ``executor`` is ``"serial"`` or ``"process"``; ``warm`` runs every
    timed round against a cache the reference round filled, otherwise
    each round starts from an empty cache.
    """

    def __init__(self, name: str, seed: int, executor: str, warm: bool, tiny: bool):
        self.name = name
        self.seed = seed
        self.executor = executor
        self.warm = warm
        self.sizes = FIG08_TINY if tiny else FIG08_SIZES
        self.root = tempfile.mkdtemp(prefix=f"bench-{name}-")
        self.shared_cache = os.path.join(self.root, "shared")
        self._filled = False

    def setup(self) -> None:
        s = self.sizes
        self.configs = [
            AttributionConfig(
                workload=MemcachedWorkload(),
                target_utilization=util,
                replications=s.replications,
                num_instances=s.instances,
                measurement_samples_per_instance=s.samples,
                warmup_samples=s.warmup,
                n_boot=s.n_boot,
                taus=PERCENTILES,
                seed=self.seed,
            )
            for util in (LOW_LOAD, HIGH_LOAD)
        ]
        _warm_up_interpreter(self.seed)

    def ops_per_round(self) -> int:
        return 2 * 16 * self.sizes.replications

    def _run(self, cache_dir: str, executor: str) -> object:
        cache = ResultCache(cache_dir)
        if executor == "serial":
            real = SerialExecutor(cache=cache)
        else:
            real = ParallelExecutor(max_workers=WORKERS, cache=cache)
        capture = Capture(real)
        with real:
            reports = {}
            for label, config in zip(("low", "high"), self.configs):
                study = AttributionStudy(config, executor=capture)
                reports[label] = study.analyze(study.run_experiments())
        table = render_impacts(EstimatesResult("memcached", reports), "Fig. 8")
        return capture, table, cache_dir

    def reference(self) -> Optional[object]:
        if self.warm:
            return self._run(self.shared_cache, "serial")
        if self.executor == "process":
            return self._run(tempfile.mkdtemp(dir=self.root), "serial")
        return None

    def round(self) -> object:
        if self.warm:
            return self._run(self.shared_cache, self.executor)
        return self._run(tempfile.mkdtemp(dir=self.root), self.executor)

    def finish(self, payload: object) -> Checked:
        capture, table, cache_dir = payload
        n = len(capture.results)
        counters = capture.counters()
        problems = []
        if cache_dir == self.shared_cache:
            # The reference round fills the cache; every later round must
            # be served from it entirely.
            expected = n if self._filled else 0
            if counters["exec.cached"] != expected:
                problems.append(f"{counters['exec.cached']} of {n} specs came from the cache, expected {expected}")
            self._filled = True
        else:
            shutil.rmtree(cache_dir, ignore_errors=True)
        digest = _digest([result_fingerprint(r) for r in capture.results], table)
        return Checked(n, n if problems else 0, digest, counters, problems)

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)


@dataclass(frozen=True)
class ScenarioSizes:
    replications: int
    #: Per-fleet sample budgets; None keeps the library's own.
    samples: Optional[int]
    warmup: Optional[int]


SCENARIO_SIZES = ScenarioSizes(replications=2, samples=None, warmup=None)
SCENARIO_TINY = ScenarioSizes(replications=1, samples=60, warmup=20)


class Scenarios(Workload):
    """Every curated library scenario, compiled and run serially with no
    cache: multi-pool runtime, antagonists, spine, mcrouter fan-out,
    diurnal arrivals and partitioned sub-kernels."""

    name = "scenarios"

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        self.sizes = SCENARIO_TINY if tiny else SCENARIO_SIZES

    def setup(self) -> None:
        self.scenarios = []
        for name in list_scenarios():
            doc = scenario_to_jsonable(load_scenario(name))
            doc["seed"] = self.seed * 1000 + int(doc["seed"])
            doc["replications"] = self.sizes.replications
            for fleet in doc["fleets"]:
                if self.sizes.samples is not None:
                    fleet["measurement_samples_per_instance"] = self.sizes.samples
                    fleet["warmup_samples"] = self.sizes.warmup
            self.scenarios.append(scenario_from_json(doc))
        self.n_specs = sum(
            (2 ** len(sc.factors)) * sc.replications for sc in self.scenarios
        )
        _warm_up_interpreter(self.seed)

    def ops_per_round(self) -> int:
        return self.n_specs

    def round(self) -> object:
        capture = Capture(SerialExecutor())
        with capture.executor:
            for scenario in self.scenarios:
                capture.run(compile_scenario(scenario))
        return capture

    def finish(self, payload: object) -> Checked:
        capture = payload
        digest = _digest([result_fingerprint(r) for r in capture.results])
        return Checked(len(capture.results), 0, digest, capture.counters())


@dataclass(frozen=True)
class LiveSizes:
    warmup: int
    samples: int
    ladder_samples: int


LIVE_SIZES = LiveSizes(warmup=300, samples=2500, ladder_samples=1000)
LIVE_TINY = LiveSizes(warmup=50, samples=200, ladder_samples=100)


class LiveRefserver(Workload):
    """The live driver (one process, 2 instances x 1 connection, open-loop
    Poisson at 4000 rps) against the reference server in its own process,
    whose constant service time is the ground truth."""

    name = "live_refserver"

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        self.sizes = LIVE_TINY if tiny else LIVE_SIZES
        self.server: Optional[subprocess.Popen] = None
        self.root: Optional[str] = None

    def setup(self) -> None:
        self.root = tempfile.mkdtemp(prefix="bench-live-")
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        with open(os.path.join(self.root, "refserver.log"), "wb") as log:
            self.server = subprocess.Popen(
                [
                    sys.executable,
                    "-m",
                    "repro.live.refserver",
                    "--port",
                    "0",
                    "--seed",
                    str(self.seed),
                    "--service",
                    json.dumps({"type": "constant", "value": SERVICE_US}),
                ],
                stdout=subprocess.PIPE,
                stderr=log,
                env=env,
            )
        ready, _, _ = select.select([self.server.stdout], [], [], 60.0)
        line = self.server.stdout.readline().decode() if ready else ""
        if "listening on" not in line:
            raise RuntimeError(f"refserver did not start (said {line!r}); see its log")
        self.target = line.split()[-1]
        ping(self.target)
        self.spec = RunSpec(
            workload=MemcachedWorkload(),
            backend="live",
            total_rate_rps=LIVE_RATE_RPS,
            num_instances=2,
            connections_per_instance=1,
            warmup_samples=self.sizes.warmup,
            measurement_samples_per_instance=self.sizes.samples,
            seed=self.seed,
        )
        self._measure(replace(self.spec, measurement_samples_per_instance=100, warmup_samples=20))

    def _measure(self, spec: RunSpec):
        with backend_defaults("live", target=self.target):
            return measure_spec(spec)

    def ops_per_round(self) -> int:
        return self.spec.num_instances * (self.spec.warmup_samples + self.spec.measurement_samples_per_instance)

    def extra_pids(self) -> List[int]:
        return [self.server.pid]

    def round(self) -> object:
        server_cpu0 = proc_cpu_s(self.server.pid)
        t0 = time.perf_counter()
        result = self._measure(self.spec)
        wall = time.perf_counter() - t0
        return result, wall, proc_cpu_s(self.server.pid) - server_cpu0

    def finish(self, payload: object) -> Checked:
        result, wall, server_cpu = payload
        health = result.live_health
        expected = self.spec.measurement_samples_per_instance
        unanswered = sum(max(0, expected - rep.responses_recorded) for rep in result.reports)
        lost = int(health["lost_sends"]) + int(health["lost_pending"])
        sent = sum(rep.requests_sent for rep in result.reports)
        attempted = sent + int(health["lost_sends"])
        problems = []
        verdicts = {v.detector: v.status for v in result.guards.verdicts}
        for detector in ("coordinated_omission", "client_saturation"):
            if verdicts.get(detector) == "fail":
                problems.append(f"{detector} guard failed")
        p50, p95 = result.metrics[0.5], result.metrics[0.95]
        if not p50 >= SERVICE_US:
            problems.append(f"p50 {p50:.0f} us is below the {SERVICE_US:.0f} us service time")
        rate = LIVE_RATE_RPS / self.spec.num_instances
        counters = {
            "live.p50_err_ratio": (p50 - SERVICE_US) / SERVICE_US,
            "live.p95_err_ratio": (p95 - SERVICE_US) / SERVICE_US,
            "live.p99_err_ratio": (result.metrics[0.99] - SERVICE_US) / SERVICE_US,
            "live.send_lag_p99_gaps": max(s["p99_lag_s"] for s in result.send_lag.values()) * rate,
            "live.driver.loop_lag_p99_gaps": result.client_probe["loop_lag_p99_s"] * LIVE_RATE_RPS,
            "live.driver.cpu_fraction": result.client_probe["cpu_fraction"],
            "live.driver.lost_requests": lost + unanswered,
            "live.driver.reconnects": int(health["reconnects"]),
            "live.refserver.cpu_fraction": server_cpu / wall,
            "guards.fail_verdicts": len(result.guards.failures()),
        }
        failed = attempted if problems else min(attempted, lost + unanswered)
        return Checked(attempted, failed, None, counters, problems)

    def trace_extras(self) -> Dict[str, float]:
        ceiling = 0.0
        for rate in CEILING_LADDER_RPS:
            result = self._measure(
                replace(
                    self.spec,
                    total_rate_rps=rate,
                    warmup_samples=self.sizes.warmup,
                    measurement_samples_per_instance=self.sizes.ladder_samples,
                )
            )
            statuses = {v.detector: v.status for v in result.guards.verdicts}
            if "fail" not in (statuses.get("coordinated_omission"), statuses.get("client_saturation")):
                ceiling = rate
        return {"live.driver.ceiling_rps": ceiling}

    def close(self) -> None:
        if self.server is not None:
            self.server.kill()
            self.server.wait()
            self.server.stdout.close()
        if self.root is not None:
            shutil.rmtree(self.root, ignore_errors=True)


def make(name: str, seed: int, tiny: bool = False) -> Workload:
    """The workload called ``name`` (the names of ``BENCHMARK.json``)."""
    if name == "fig08_serial":
        return Fig08(name, seed, "serial", warm=False, tiny=tiny)
    if name == "fig08_warm":
        return Fig08(name, seed, "serial", warm=True, tiny=tiny)
    if name == "fig08_process":
        return Fig08(name, seed, "process", warm=False, tiny=tiny)
    if name == "scenarios":
        return Scenarios(seed, tiny)
    if name == "live_refserver":
        return LiveRefserver(seed, tiny)
    raise ValueError(f"unknown workload {name!r}")
