"""One benchmark run of one workload, in a process of its own.

``bench/run.py`` starts this file with its own arguments and reads two
lines from its standard output: ``READY`` when set-up is done (imports,
inputs built from the seed, for the live workload the refserver started
and pinged), and ``RESULT <json>`` at the end.  With ``--setup-only`` it
stops after ``READY``; ``run.py`` times several set-ups that way.

The run: an optional untimed reference round, then timed rounds until
``--seconds`` have passed.  With ``--trace 1`` each timed round is
followed by the same round traced, so the ledger and the tracing
overhead come from one process.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from typing import Dict, List, Optional

import workloads
from ledger import LAYERS, Tracer

READY = "READY"
RESULT = "RESULT "


def tree_cpu_s(pids: List[int]) -> float:
    """CPU seconds of this process, its reaped children and ``pids``."""
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    own = time.process_time() + ru.ru_utime + ru.ru_stime
    return own + sum(workloads.proc_cpu_s(pid) for pid in pids)


def _round(workload: workloads.Workload, tracer: Optional[Tracer]) -> Dict[str, object]:
    pids = workload.extra_pids()
    cpu0 = tree_cpu_s(pids)
    t0 = time.perf_counter()
    try:
        if tracer is None:
            payload = workload.round()
        else:
            with tracer:
                payload = workload.round()
        wall = time.perf_counter() - t0
        cpu = tree_cpu_s(pids) - cpu0
        checked = workload.finish(payload)
    except Exception:  # a failed round is a measurement, not a crash
        ops = workload.ops_per_round()
        return {
            "traced": tracer is not None,
            "wall_s": time.perf_counter() - t0,
            "cpu_s": tree_cpu_s(pids) - cpu0,
            "attempted": ops,
            "failed": ops,
            "digest": None,
            "counters": {},
            "problems": [traceback.format_exc().strip().splitlines()[-1]],
        }
    return {
        "traced": tracer is not None,
        "wall_s": wall,
        "cpu_s": cpu,
        "attempted": checked.attempted,
        "failed": checked.failed,
        "digest": checked.digest,
        "counters": checked.counters,
        "problems": checked.problems,
    }


def measure(workload: workloads.Workload, seconds: float, trace: bool) -> Dict[str, object]:
    """Run ``workload`` (already set up) and return its result document."""
    reference = None
    payload = workload.reference()
    if payload is not None:
        checked = workload.finish(payload)
        reference = {
            "attempted": checked.attempted,
            "failed": checked.failed,
            "digest": checked.digest,
            "problems": checked.problems,
        }
    tracer = Tracer() if trace else None
    rounds = []
    stop = time.perf_counter() + seconds
    while True:
        rounds.append(_round(workload, None))
        if tracer is not None:
            rounds.append(_round(workload, tracer))
        if time.perf_counter() >= stop:
            break

    # Every round must reproduce the reference (or the first round).
    expected = reference["digest"] if reference else None
    if expected is None:
        expected = next((r["digest"] for r in rounds if r["digest"]), None)
    for r in rounds:
        if r["digest"] is not None and r["digest"] != expected:
            r["failed"] = r["attempted"]
            r["problems"].append(f"output digest {r['digest'][:12]} != {expected[:12]}")
    parts = rounds + ([reference] if reference else [])
    doc: Dict[str, object] = {
        "rounds": rounds,
        "reference": reference,
        "digest": expected,
        "attempted": sum(p["attempted"] for p in parts),
        "failed": sum(p["failed"] for p in parts),
        "problems": sorted({msg for p in parts for msg in p["problems"]}),
    }
    doc["values"] = round_values(rounds)
    if tracer is not None:
        doc["ledger"] = tracer.ledger()
        doc["values"].update(layer_values(rounds, doc["ledger"], workload.trace_extras()))
    return doc


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def round_values(rounds: List[Dict[str, object]]) -> Dict[str, float]:
    """End-to-end values measured by the rounds themselves: the fastest
    of the run's identical rounds.  Other tenants of a shared host only
    ever add time, in bursts that can cover half of a 10 s run, so the
    fastest round is the steadiest estimate of what the work itself
    costs (on the baseline host it cut the worst run-to-run spread from
    28% to 18% of the median).  Failed rounds are left out unless all
    failed."""
    untraced = [r for r in rounds if not r["traced"]]
    timed = [r for r in untraced if not r["failed"]] or untraced
    return {
        "wall_s": min(r["wall_s"] for r in timed),
        "cpu_s": min(r["cpu_s"] for r in timed),
    }


def layer_values(
    rounds: List[Dict[str, object]], ledger: Dict[str, object], extras: Dict[str, float]
) -> Dict[str, float]:
    """Per-layer values: the ledger of the traced rounds, plus counters
    the untraced rounds carry (medians over rounds)."""
    timed = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]

    def counter(name: str) -> float:
        return _median([float(r["counters"].get(name, 0.0)) for r in timed])

    n = ledger["rounds"]
    wall = ledger["wall_s"]
    counters = ledger["counters"]
    out: Dict[str, float] = {}
    for layer in LAYERS:
        entry = ledger["layers"][layer]
        out[f"{layer}.share"] = entry["share"]
        out[f"{layer}.calls"] = entry["calls"] / n
    out["unattributed.share"] = ledger["unattributed_s"] / wall
    out["trace.wall_s"] = _median([r["wall_s"] for r in traced])
    out["trace.overhead_ratio"] = out["trace.wall_s"] / _median([r["wall_s"] for r in timed])
    out["trace.closure"] = ledger["profiled_s"] / wall
    for name in (
        "sim.partition.windows",
        "sim.partition.boundary_events",
        "scenarios.compiles",
        "stats.fit.fits",
        "stats.fit.lp_fits",
        "exec.cache.hits",
        "exec.cache.misses",
        "exec.cache.bytes_read",
        "exec.cache.bytes_written",
        "guards.evaluations",
    ):
        out[name] = counters.get(name, 0.0) / n
    draws = counters.get("workloads.rng_draws", 0.0)
    out["workloads.rng_hit_rate"] = 1.0 - counters["workloads.rng_refills"] / draws if draws else 0.0
    events, requests = counter("sim.events"), counter("sim.requests")
    out["sim.events"] = events
    out["sim.events_per_request"] = events / requests if requests else 0.0
    out["sim.events_per_s"] = _median(
        [r["counters"].get("sim.events", 0.0) / r["wall_s"] for r in timed]
    )
    worker_s = counter("exec.dispatch.worker_s")
    out["exec.dispatch.overhead_share"] = (
        counter("exec.dispatch.overhead_s") / worker_s if worker_s else 0.0
    )
    for name in (
        "exec.dispatch.result_bytes",
        "exec.dispatch.retries",
        "guards.fail_verdicts",
        "live.p50_err_ratio",
        "live.p95_err_ratio",
        "live.p99_err_ratio",
        "live.send_lag_p99_gaps",
        "live.driver.loop_lag_p99_gaps",
        "live.driver.cpu_fraction",
        "live.driver.lost_requests",
        "live.driver.reconnects",
        "live.refserver.cpu_fraction",
    ):
        out[name] = counter(name)
    out["live.driver.ceiling_rps"] = 0.0
    out.update(extras)
    return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    from repro.hostinfo import host_info

    workload = workloads.make(args.workload, args.seed)
    try:
        workload.setup()
        print(READY, flush=True)
        if args.setup_only:
            return 0
        doc = measure(workload, args.seconds, bool(args.trace))
    finally:
        workload.close()
    doc["host"] = host_info()
    print(RESULT + json.dumps(doc), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
