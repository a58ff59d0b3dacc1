"""Command-line entry point: regenerate paper artifacts.

Usage::

    repro list                     # artifact ids and titles
    repro run fig7 --scale default # regenerate one artifact
    repro run tab4 --workers 4     # factorial sweep on 4 cores
    repro run fig12 --cache-dir ~/.cache/repro   # reuse shared runs
    repro all --scale quick        # regenerate everything
    repro hardware                 # show the simulated Table II spec
    repro backends                 # execution + measurement backends
    repro live ping tcp://h:7799   # smoke-check a live endpoint
    repro live serve --port 7799   # deterministic reference server
    repro live measure tcp://h:7799 --rate 2000   # one live measurement
    repro guards list              # the validity-detector catalogue
    repro guards run               # self-test every detector fixture

Exit codes: 0 success / converged; 1 generic failure (invalid input,
self-test miss, identity-gate violation); 3 clean live-measurement
error (endpoint dead, wedged, or refusing connections — never a
hang); 4 validity-guard failure under ``--strict-guards``.

Validity guards: every measurement is audited by the detectors in
``repro.guards`` and carries the verdicts on ``result.guards``.
``--strict-guards`` (on ``run``, ``all``, ``scenario run``, ``live
measure``, and ``guards run``) escalates a *failed* audit to exit
code 4; warnings always stay advisory.

Scales: ``quick`` (seconds, smoke), ``default`` (tens of seconds, what
the benchmark suite uses), ``paper`` (the paper's replication counts;
expect a long run).

Execution flags (``run``, ``all`` and ``scenario run``):

* ``--workers N`` — ``N > 1`` runs on a local process pool of ``N``
  workers; ``N = 1`` (or no value) runs serially.  Both are
  byte-identical for equal seeds; see ``repro backends``.
* ``--cache-dir PATH`` — content-addressed result cache; identical
  experiment specs are simulated once per machine, ever.  An
  interrupted run resumes from it: re-running the same command
  re-runs only the specs that had not finished.
* ``--retries N`` — the process pool's per-spec budget for crashed
  or timed-out workers (the serial backend ignores it).

``repro chaos --live --seed N`` runs one seeded fault-injection
experiment against a local reference server and a multi-process live
fleet, and checks the live chaos invariant.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time
from typing import List, Optional

from .exec.executors import EXECUTORS, execution
from .experiments.common import SCALES
from .experiments.runner import EXPERIMENTS, experiment_ids, run_experiment
from .sim.machine import HardwareSpec

__all__ = ["main", "build_parser"]


def _int_at_least(floor: int):
    """An argparse ``type=`` accepting integers >= ``floor``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected an integer, got {text!r}"
            ) from None
        if value < floor:
            raise argparse.ArgumentTypeError(f"must be >= {floor}, got {value}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Treadmill: Attributing the Source of Tail "
            "Latency through Precise Load Testing and Statistical "
            "Inference' (ISCA 2016)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the paper artifacts this tool regenerates")

    def add_exec_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--workers",
            type=_int_at_least(1),
            default=None,
            metavar="N",
            help=(
                "N > 1 runs on a local process pool of N workers "
                "(default: serial; see `repro backends`)"
            ),
        )
        p.add_argument(
            "--cache-dir",
            default=None,
            metavar="PATH",
            help="content-addressed result cache directory (default: no cache)",
        )
        p.add_argument(
            "--retries",
            type=_int_at_least(0),
            default=None,
            metavar="N",
            help=(
                "per-spec retry budget for crashed or timed-out pool "
                "workers; the serial backend ignores it"
            ),
        )

    def add_guard_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--strict-guards",
            action="store_true",
            help=(
                "escalate a failed validity audit to exit code 4 "
                "(guards are advisory otherwise)"
            ),
        )

    run_p = sub.add_parser("run", help="regenerate one artifact")
    run_p.add_argument("artifact", choices=experiment_ids())
    run_p.add_argument(
        "--scale", choices=sorted(SCALES), default="default", help="experiment size"
    )
    run_p.add_argument(
        "--out", default=None, help="also write the rendered report to this file"
    )
    add_exec_flags(run_p)
    add_guard_flags(run_p)

    all_p = sub.add_parser("all", help="regenerate every artifact in order")
    all_p.add_argument(
        "--scale", choices=sorted(SCALES), default="default", help="experiment size"
    )
    add_exec_flags(all_p)
    add_guard_flags(all_p)

    sub.add_parser("hardware", help="print the simulated hardware spec (Table II)")
    sub.add_parser(
        "backends",
        help="list the execution and measurement backends",
    )

    live_p = sub.add_parser(
        "live",
        help="live-endpoint measurement (ping / serve / measure)",
    )
    live_sub = live_p.add_subparsers(dest="live_command", required=True)
    ping_p = live_sub.add_parser(
        "ping", help="round-trip connectivity check of a live endpoint"
    )
    ping_p.add_argument(
        "target", metavar="URL", help="tcp://host:port or http://host:port"
    )
    ping_p.add_argument(
        "--timeout", type=float, default=5.0, metavar="S", help="seconds to wait"
    )
    serve_p = live_sub.add_parser(
        "serve", help="run the deterministic local reference server"
    )
    serve_p.add_argument("--host", default="127.0.0.1")
    serve_p.add_argument("--port", type=int, default=7799)
    serve_p.add_argument(
        "--service",
        default='{"type": "constant", "value": 200.0}',
        metavar="JSON",
        help="service-time distribution spec (microseconds)",
    )
    serve_p.add_argument("--seed", type=int, default=0)
    serve_p.add_argument(
        "--mode", choices=("parallel", "serial"), default="parallel"
    )
    serve_p.add_argument(
        "--drop-after",
        type=int,
        default=0,
        metavar="N",
        help="misbehave: drop each connection after N requests (0 = off)",
    )
    serve_p.add_argument(
        "--accept-delay-s",
        type=float,
        default=0.0,
        metavar="S",
        help="misbehave: serve each new connection only after S seconds",
    )
    serve_p.add_argument(
        "--drift-us-per-request",
        type=float,
        default=0.0,
        metavar="US",
        help="misbehave: ramp service time by US microseconds per request",
    )
    meas_p = live_sub.add_parser(
        "measure",
        help=(
            "one open-loop measurement against a live endpoint "
            "(exit 0 on success, 3 on a clean measurement error, "
            "4 on guard failure under --strict-guards)"
        ),
    )
    meas_p.add_argument(
        "target", metavar="URL", help="tcp://host:port or http://host:port"
    )
    meas_p.add_argument(
        "--rate", type=float, default=2000.0, metavar="RPS", help="offered load"
    )
    meas_p.add_argument("--instances", type=int, default=1, metavar="N")
    meas_p.add_argument("--connections", type=int, default=4, metavar="N")
    meas_p.add_argument("--warmup", type=int, default=50, metavar="N")
    meas_p.add_argument(
        "--samples", type=int, default=500, metavar="N",
        help="measurement samples per instance",
    )
    meas_p.add_argument("--seed", type=int, default=0)
    meas_p.add_argument(
        "--progress-timeout", type=float, default=10.0, metavar="S",
        help="stall ladder rung 3: abort cleanly after this long without progress",
    )
    meas_p.add_argument(
        "--stall-warn", type=float, default=1.0, metavar="S",
        help="stall ladder rung 1: record a stall warning after this long",
    )
    meas_p.add_argument(
        "--stall-probe", type=float, default=5.0, metavar="S",
        help="stall ladder rung 2: actively re-probe the endpoint after this long",
    )
    meas_p.add_argument(
        "--max-lost-fraction", type=float, default=0.25, metavar="F",
        help=(
            "salvage bound: complete degraded while at most this fraction "
            "of connections is permanently lost"
        ),
    )
    meas_p.add_argument(
        "--processes", type=int, default=1, metavar="N",
        help=(
            "shard the load across a supervised fleet of N client OS "
            "processes (crash-safe: heartbeats, seeded respawns, a "
            "fleet salvage bound)"
        ),
    )
    meas_p.add_argument(
        "--respawns", type=int, default=2, metavar="N",
        help="fleet: respawn budget per crashed client process",
    )
    meas_p.add_argument(
        "--max-lost-clients", type=float, default=0.34, metavar="F",
        help=(
            "fleet salvage bound: complete degraded while at most this "
            "fraction of client processes is permanently lost"
        ),
    )
    meas_p.add_argument(
        "--heartbeat-interval", type=float, default=0.25, metavar="S",
        help="fleet: client heartbeat cadence",
    )
    meas_p.add_argument(
        "--heartbeat-timeout", type=float, default=2.0, metavar="S",
        help="fleet: silence past this declares a client process dead",
    )
    meas_p.add_argument(
        "--json",
        action="store_true",
        help="machine-readable report (metrics, guards, health) on stdout",
    )
    add_guard_flags(meas_p)

    scen_p = sub.add_parser(
        "scenario",
        help="declarative N-fleet x M-pool scenarios (list / validate / run)",
    )
    scen_sub = scen_p.add_subparsers(dest="scenario_command", required=True)
    scen_sub.add_parser("list", help="list the library scenarios")
    val_p = scen_sub.add_parser(
        "validate",
        help="load, validate, and compile scenarios without running them",
    )
    val_p.add_argument(
        "scenario",
        nargs="*",
        metavar="NAME|PATH",
        help="library scenario names or JSON file paths (default: whole library)",
    )
    scen_run_p = scen_sub.add_parser(
        "run", help="compile a scenario and execute every RunSpec"
    )
    scen_run_p.add_argument(
        "scenario", metavar="NAME|PATH", help="library scenario name or JSON file path"
    )
    scen_run_p.add_argument(
        "--verify-identical",
        action="store_true",
        help=(
            "run each compiled spec through both the serial and the "
            "process executor and gate on outputs_identical"
        ),
    )
    scen_run_p.add_argument(
        "--backend",
        default="sim",
        metavar="NAME",
        help=(
            "measurement backend for the compiled specs (default sim; "
            "'live' routes the fleets to real endpoints — set "
            "--pool-target per pool)"
        ),
    )
    scen_run_p.add_argument(
        "--pool-target",
        action="append",
        default=[],
        metavar="POOL=URL",
        help=(
            "live backend: endpoint for one scenario pool "
            "(repeatable, e.g. --pool-target web=tcp://127.0.0.1:7799)"
        ),
    )
    scen_run_p.add_argument(
        "--processes", type=int, default=1, metavar="N",
        help="live backend: client processes per measurement (fleet mode)",
    )
    scen_run_p.add_argument(
        "--partitions",
        type=int,
        default=None,
        metavar="N",
        help=(
            "sim backend: shard each measurement across N in-process "
            "sub-kernels (bit-identical to serial by construction; "
            "default and 0 or 1 run the serial kernel)"
        ),
    )
    add_exec_flags(scen_run_p)
    add_guard_flags(scen_run_p)

    guards_p = sub.add_parser(
        "guards",
        help="measurement-validity guards (list the detectors / self-test)",
    )
    guards_sub = guards_p.add_subparsers(dest="guards_command", required=True)
    guards_sub.add_parser(
        "list", help="the detector catalogue and the pitfall each audits"
    )
    gr_p = guards_sub.add_parser(
        "run",
        help=(
            "run detector fixtures and check each fires (exit 1 on a "
            "self-test miss, 4 if --strict-guards and an audit fails)"
        ),
    )
    gr_p.add_argument(
        "fixtures",
        nargs="*",
        metavar="FIXTURE",
        help="fixture names (default: the whole catalogue; see `guards list`)",
    )
    gr_p.add_argument(
        "--json",
        action="store_true",
        help="machine-readable verdicts on stdout",
    )
    gr_p.add_argument(
        "--verbose",
        action="store_true",
        help="print each fired detector's one-line finding",
    )
    add_guard_flags(gr_p)

    chaos_p = sub.add_parser(
        "chaos",
        help=(
            "run one seeded live-fleet fault-injection experiment and "
            "check its invariant (converged, or a clean attributed "
            "failure — never a hang)"
        ),
    )
    chaos_p.add_argument(
        "--seed", type=int, default=0, metavar="N", help="fault-plan seed"
    )
    chaos_p.add_argument(
        "--live",
        action="store_true",
        required=True,
        help=(
            "chaos the live fleet: refserver + multi-process fleet under "
            "the live fault kinds (client crash/hang, heartbeat drop, "
            "endpoint reset); the invariant is degraded-converged or "
            "clean error, never a hang"
        ),
    )
    chaos_p.add_argument(
        "--processes", type=int, default=3, metavar="N",
        help="--live: client processes in the fleet",
    )
    return parser


def _cmd_list() -> int:
    width = max(len(i) for i in experiment_ids())
    for exp_id in experiment_ids():
        print(f"{exp_id.ljust(width)}  {EXPERIMENTS[exp_id].title}")
    return 0


def _cmd_run(artifact: str, scale: str, out: Optional[str] = None) -> int:
    start = time.time()
    report = run_experiment(artifact, scale=scale)
    print(report)
    if out:
        with open(out, "w") as f:
            f.write(report + "\n")
        print(f"[report written to {out}]")
    print(f"\n[{artifact} regenerated at scale={scale} in {time.time() - start:.1f}s]")
    return 0


def _cmd_all(scale: str) -> int:
    for exp_id in experiment_ids():
        print(f"=== {exp_id}: {EXPERIMENTS[exp_id].title} ===")
        _cmd_run(exp_id, scale)
        print()
    return 0


def _cmd_hardware() -> int:
    for key, value in HardwareSpec().describe().items():
        print(f"{key:>10}: {value}")
    return 0


def _cmd_backends() -> int:
    from .measure.api import available_measurement_backends, measurement_backend_info

    meas_names = available_measurement_backends()
    width = max(len(n) for n in (*EXECUTORS, *meas_names))

    print("execution backends (how runs are scheduled):")
    for name in EXECUTORS:
        print(f"  {name}")

    print()
    print("measurement backends (what each run measures):")
    for name in meas_names:
        info = measurement_backend_info(name)
        caps = info.factory(info.options()).capabilities()
        flags = ", ".join(
            f.name
            for f in dataclasses.fields(caps)
            if f.name != "backend" and getattr(caps, f.name)
        )
        options = ", ".join(f.name for f in dataclasses.fields(info.options))
        print(f"  {name.ljust(width)}  {info.summary}")
        print(f"  {' ' * width}  capabilities: {flags or '(none)'}")
        if options:
            print(f"  {' ' * width}  options: {options}")
    return 0


def _cmd_live_ping(target: str, timeout_s: float) -> int:
    from .live import LiveMeasurementError, ping

    try:
        rtt_s = ping(target, timeout_s=timeout_s)
    except (LiveMeasurementError, ValueError, OSError) as exc:
        # OSError covers the raw socket family (ConnectionRefusedError,
        # unreachable host, DNS failure) — one line and exit 3, never a
        # traceback.
        print(f"ping {target}: FAILED — {exc}", file=sys.stderr)
        return 3
    print(f"ping {target}: {rtt_s * 1e3:.3f} ms")
    return 0


def _cmd_live_measure(args: argparse.Namespace) -> int:
    import json as _json

    from .exec.spec import RunSpec
    from .live import LiveMeasurementError
    from .measure import backend_defaults, measure_spec
    from .workloads import MemcachedWorkload

    spec = RunSpec(
        workload=MemcachedWorkload(),
        total_rate_rps=args.rate,
        num_instances=args.instances,
        connections_per_instance=args.connections,
        warmup_samples=args.warmup,
        measurement_samples_per_instance=args.samples,
        seed=args.seed,
        backend="live",
        tag=f"live:{args.target}",
    )
    start = time.time()
    try:
        with backend_defaults(
            "live",
            target=args.target,
            progress_timeout_s=args.progress_timeout,
            stall_warn_s=args.stall_warn,
            stall_probe_s=args.stall_probe,
            max_lost_connection_fraction=args.max_lost_fraction,
            processes=args.processes,
            respawn_attempts=args.respawns,
            max_lost_client_fraction=args.max_lost_clients,
            heartbeat_interval_s=args.heartbeat_interval,
            heartbeat_timeout_s=args.heartbeat_timeout,
        ):
            result = measure_spec(spec)
    except (LiveMeasurementError, ValueError, OSError) as exc:
        # The CI smoke contract: a clean attributed failure, never a
        # hang — distinguishable from success by exit code 3.
        if args.json:
            print(_json.dumps({"target": args.target, "error": str(exc)}, indent=1))
        print(f"live measure {args.target}: FAILED — {exc}", file=sys.stderr)
        return 3
    guards = getattr(result, "guards", None)
    sent = sum(r.requests_sent for r in result.reports)
    if args.json:
        payload = {
            "target": args.target,
            "metrics_us": {f"p{q * 100:g}": v for q, v in sorted(result.metrics.items())},
            "requests_sent": int(sent),
            "instances": len(result.reports),
            "wall_s": time.time() - start,
            "guards": guards.to_jsonable() if guards is not None else None,
            "live_health": getattr(result, "live_health", None),
            "send_lag": getattr(result, "send_lag", None),
            "client_probe": getattr(result, "client_probe", None),
        }
        print(_json.dumps(payload, indent=1, default=str))
    else:
        metrics = ", ".join(
            f"p{q * 100:g}={v:.1f}us" for q, v in sorted(result.metrics.items())
        )
        print(f"live measure {args.target}: {metrics}")
        print(
            f"[{sent} requests over {len(result.reports)} instance(s) "
            f"in {time.time() - start:.1f}s]"
        )
        if guards is not None:
            print(guards.format())
    if args.strict_guards and guards is not None and not guards.ok:
        print(
            "live measure: validity guards FAILED (strict mode)", file=sys.stderr
        )
        return 4
    return 0


def _cmd_live_serve(args: argparse.Namespace) -> int:
    from .live import refserver

    return refserver.main(
        [
            "--host", args.host,
            "--port", str(args.port),
            "--service", args.service,
            "--seed", str(args.seed),
            "--mode", args.mode,
            "--drop-after", str(args.drop_after),
            "--accept-delay-s", str(args.accept_delay_s),
            "--drift-us-per-request", str(args.drift_us_per_request),
        ]
    )


def _resolve_scenario(ref: str):
    """A scenario by library name or JSON file path."""
    import os

    from .scenarios import load_scenario, scenario_from_json

    if os.path.exists(ref) or ref.endswith(".json"):
        return scenario_from_json(ref)
    return load_scenario(ref)


def _cmd_scenario_list() -> int:
    from .scenarios import list_scenarios, load_scenario

    names = list_scenarios()
    width = max(len(n) for n in names)
    for name in names:
        spec = load_scenario(name)
        shape = f"{len(spec.fleets)}x{len(spec.pools)}"
        print(f"{name.ljust(width)}  [{shape}]  {spec.description}")
    return 0


def _cmd_scenario_validate(refs: List[str]) -> int:
    from .scenarios import compile_scenario, list_scenarios

    refs = list(refs) or list_scenarios()
    failures = 0
    for ref in refs:
        try:
            spec = _resolve_scenario(ref)
            specs = compile_scenario(spec)
        except (ValueError, KeyError, FileNotFoundError) as exc:
            print(f"{ref}: INVALID — {exc}")
            failures += 1
            continue
        print(
            f"{ref}: ok ({len(specs)} run spec(s), "
            f"first digest {specs[0].digest()[:12]})"
        )
    return 1 if failures else 0


def _result_fingerprint(result) -> str:
    """Content hash of everything a run reports (identity checks)."""
    import hashlib

    import numpy as np

    h = hashlib.sha256()
    h.update(repr(sorted(result.metrics.items())).encode())
    h.update(
        repr(
            sorted((g, sorted(m.items())) for g, m in result.group_metrics.items())
        ).encode()
    )
    for report in result.reports:
        h.update(np.ascontiguousarray(report.raw_samples, dtype=float).tobytes())
        h.update(
            np.ascontiguousarray(report.ground_truth_samples, dtype=float).tobytes()
        )
    return h.hexdigest()


def _cmd_scenario_run(scenario, args: argparse.Namespace) -> int:
    from .exec.executors import execute_specs, make_executor
    from .scenarios import compile_scenario

    specs = compile_scenario(scenario)
    if getattr(args, "partitions", None) is not None:
        # Digest-neutral execution choice: 0 is the serial kernel,
        # N shards each measurement across N sub-kernels.
        n = args.partitions if args.partitions > 0 else None
        specs = [s.replace(partitions=n) for s in specs]
    print(
        f"[scenario {scenario.name}] {len(scenario.fleets)} fleet(s) x "
        f"{len(scenario.pools)} pool(s) -> {len(specs)} run spec(s)"
    )
    start = time.time()
    if args.backend != "sim":
        if args.verify_identical:
            print(
                "scenario run: --verify-identical needs a deterministic "
                "backend; drop it or use --backend sim",
                file=sys.stderr,
            )
            return 1
        return _scenario_run_live(scenario, specs, args, start)
    if args.verify_identical:
        # Two independent lanes, compared result by result: the same
        # gate the perf harness applies (identity, never wall-clock).
        serial = execute_specs(specs, make_executor("serial"))
        process = execute_specs(specs, make_executor("process"))
        identical = all(
            _result_fingerprint(a) == _result_fingerprint(b)
            for a, b in zip(serial, process)
        )
        results = serial
        print(f"outputs_identical: {identical}")
    else:
        identical = None
        results = execute_specs(specs)
    strict_failed = False
    for spec, result in zip(specs, results):
        metrics = ", ".join(
            f"p{q * 100:g}={v:.1f}us" for q, v in sorted(result.metrics.items())
        )
        print(f"{spec.tag}: {metrics} (peak server util {result.server_utilization:.2f})")
        for (fleet, pool), gm in sorted((result.group_metrics or {}).items()):
            gmetrics = ", ".join(
                f"p{q * 100:g}={v:.1f}us" for q, v in sorted(gm.items())
            )
            print(f"  ({fleet}, {pool}): {gmetrics}")
        guards = getattr(result, "guards", None)
        if guards is not None and guards.status != "pass":
            for line in guards.format().splitlines():
                print(f"  {line}")
            if args.strict_guards and not guards.ok:
                strict_failed = True
    print(f"[{scenario.name} completed in {time.time() - start:.1f}s]")
    if strict_failed:
        print(
            f"scenario {scenario.name}: validity guards FAILED (strict mode)",
            file=sys.stderr,
        )
        return 4
    return 0 if identical in (None, True) else 1


def _scenario_run_live(scenario, specs, args: argparse.Namespace, start: float) -> int:
    """Run compiled scenario specs on a non-sim (live) backend.

    Sequential on purpose: a live measurement is wall-clock and may
    already be a multi-process fleet; racing several against the same
    endpoints would let them distort each other's tails.
    """
    import dataclasses

    from .live import LiveMeasurementError
    from .measure import backend_defaults, measure_spec

    strict_failed = False
    try:
        with backend_defaults(
            args.backend,
            pool_targets=tuple(args.pool_target),
            processes=args.processes,
        ):
            for spec in specs:
                spec = dataclasses.replace(spec, backend=args.backend)
                result = measure_spec(spec)
                metrics = ", ".join(
                    f"p{q * 100:g}={v:.1f}us"
                    for q, v in sorted(result.metrics.items())
                )
                print(f"{spec.tag}: {metrics}")
                for (fleet, pool), gm in sorted(
                    (result.group_metrics or {}).items()
                ):
                    gmetrics = ", ".join(
                        f"p{q * 100:g}={v:.1f}us" for q, v in sorted(gm.items())
                    )
                    print(f"  ({fleet}, {pool}): {gmetrics}")
                health = getattr(result, "live_health", None)
                if health is not None and health.get("degraded"):
                    print(f"  [degraded] {dict(health)}")
                guards = getattr(result, "guards", None)
                if guards is not None and guards.status != "pass":
                    for line in guards.format().splitlines():
                        print(f"  {line}")
                    if args.strict_guards and not guards.ok:
                        strict_failed = True
    except (LiveMeasurementError, ValueError, OSError) as exc:
        print(
            f"scenario {scenario.name}: FAILED — {exc}", file=sys.stderr
        )
        return 3
    print(f"[{scenario.name} completed in {time.time() - start:.1f}s]")
    if strict_failed:
        print(
            f"scenario {scenario.name}: validity guards FAILED (strict mode)",
            file=sys.stderr,
        )
        return 4
    return 0


def _execution_scope(args: argparse.Namespace):
    """The scoped execution defaults implied by the CLI flags."""
    return execution(
        cache_dir=args.cache_dir, workers=args.workers, retries=args.retries
    )


def _cmd_chaos(args: argparse.Namespace) -> int:
    import json as _json

    from .faults.harness import run_live_chaos  # local import: chaos only

    report = run_live_chaos(seed=args.seed, processes=args.processes)
    print(_json.dumps(report.summary(), indent=2))
    if not report.invariant_holds:
        print("[chaos] INVARIANT VIOLATED", file=sys.stderr)
        return 1
    return 0


def _cmd_guards_list() -> int:
    from .guards import available_detectors, detector_info

    names = available_detectors()
    width = max(len(n) for n in names)
    print(f"{len(names)} validity detector(s) audit every measurement:")
    for name in names:
        info = detector_info(name)
        print(f"  {name:<{width}}  [{info.pitfall}]")
        print(f"  {'':<{width}}  {info.summary}")
    return 0


def _cmd_guards_run(args: argparse.Namespace) -> int:
    import json as _json

    from .guards.fixtures import available_fixtures, run_fixture

    names = list(args.fixtures) if args.fixtures else available_fixtures()
    known = set(available_fixtures())
    unknown = [n for n in names if n not in known]
    if unknown:
        print(
            f"unknown fixture(s): {', '.join(unknown)} "
            f"(known: {', '.join(sorted(known))})",
            file=sys.stderr,
        )
        return 1
    rows = []
    misses = 0
    for name in names:
        fx, result = run_fixture(name)
        report = result.guards
        if fx.detector:
            verdict = report.verdict(fx.detector)
            got = verdict.status if verdict is not None else "missing"
        else:
            # Clean fixture: every detector must stay quiet, so the
            # judged status is the whole report's worst verdict.
            verdict = None
            got = report.status
        fired = _guard_at_least(got, fx.expect_at_least)
        if not fired:
            misses += 1
        rows.append(
            {
                "fixture": name,
                "detector": fx.detector,
                "expect_at_least": fx.expect_at_least,
                "got": got,
                "ok": fired,
                "evidence": dict(verdict.evidence) if verdict is not None else {},
                "report": report.to_jsonable(),
            }
        )
        if not args.json:
            mark = "ok " if fired else "MISS"
            what = fx.detector or "all detectors"
            print(
                f"[{mark}] {name}: {what} expected >= "
                f"{fx.expect_at_least}, got {got}"
            )
            if args.verbose and verdict is not None:
                print(f"       {verdict.summary}")
    if args.json:
        print(_json.dumps({"fixtures": rows, "misses": misses}, indent=1, default=str))
    elif misses:
        print(f"guards self-test: {misses}/{len(names)} fixture(s) MISSED", file=sys.stderr)
    return 1 if misses else 0


def _guard_at_least(got: str, floor: str) -> bool:
    """True when verdict ``got`` is at least as severe as ``floor``."""
    order = {"pass": 0, "skip": 0, "warn": 1, "fail": 2}
    if floor == "pass":
        # A clean fixture must stay clean: nothing above pass.
        return order.get(got, 0) == 0
    return order.get(got, 0) >= order[floor]


def _guard_scope(args: argparse.Namespace):
    """Enforcement scope implied by ``--strict-guards``."""
    from .guards import guard_enforcement

    strict = bool(getattr(args, "strict_guards", False))
    return guard_enforcement("strict" if strict else "advisory")


def main(argv: Optional[List[str]] = None) -> int:
    from .guards import GuardFailureError

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except GuardFailureError as exc:
        # Strict mode: a failed validity audit is its own exit code so
        # CI can tell "bad measurement" (4) from "broken run" (1/3).
        print(f"validity guards FAILED: {exc}", file=sys.stderr)
        return 4
    except KeyboardInterrupt:
        # The conventional 128+SIGINT code, one line, no traceback —
        # an interrupted live measurement is a user decision, not a bug.
        print("interrupted", file=sys.stderr)
        return 130


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "list":
        return _cmd_list()
    if args.command == "run":
        with _execution_scope(args), _guard_scope(args):
            return _cmd_run(args.artifact, args.scale, args.out)
    if args.command == "all":
        with _execution_scope(args), _guard_scope(args):
            return _cmd_all(args.scale)
    if args.command == "hardware":
        return _cmd_hardware()
    if args.command == "backends":
        return _cmd_backends()
    if args.command == "guards":
        if args.guards_command == "list":
            return _cmd_guards_list()
        if args.guards_command == "run":
            with _guard_scope(args):
                return _cmd_guards_run(args)
    if args.command == "live":
        if args.live_command == "ping":
            return _cmd_live_ping(args.target, args.timeout)
        if args.live_command == "serve":
            return _cmd_live_serve(args)
        if args.live_command == "measure":
            with _guard_scope(args):
                return _cmd_live_measure(args)
    if args.command == "chaos":
        return _cmd_chaos(args)
    if args.command == "scenario":
        if args.scenario_command == "list":
            return _cmd_scenario_list()
        if args.scenario_command == "validate":
            return _cmd_scenario_validate(args.scenario)
        if args.scenario_command == "run":
            scenario = _resolve_scenario(args.scenario)
            with _execution_scope(args), _guard_scope(args):
                return _cmd_scenario_run(scenario, args)
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
