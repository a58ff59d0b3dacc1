#!/usr/bin/env python
"""Benchmark the simulation hot path itself.

Boots one Treadmill-vs-memcached bench (the same shape ``run_spec``
builds) and drives the event loop in timed slices, reporting

* sustained **events/s** and **requests/s** of the kernel,
* the **p50/p99 per-event step cost** in nanoseconds, measured over
  fixed-size slices (each slice's wall time divided by the events it
  executed — the distribution exposes warm-up, GC, and host jitter
  that a single average would hide), and
* the **RNG-batch hit rate**: the fraction of hot-path variate draws
  (inter-arrival gaps, connection picks, request parameters) served
  from pre-sampled blocks without touching a numpy Generator.

Results go to ``BENCH_sim.json`` so the perf trajectory is tracked
across PRs.  ``--profile`` additionally runs the measured portion
under cProfile and prints the top-N functions by internal time.

Usage::

    PYTHONPATH=src python scripts/bench_sim.py [--quick]
        [--samples 3000] [--instances 2] [--utilization 0.7]
        [--slice-events 2048] [--profile [N]] [--out BENCH_sim.json]
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import __version__  # noqa: E402
from repro.core.bench import BenchConfig, TestBench  # noqa: E402
from repro.core.treadmill import TreadmillConfig, TreadmillInstance  # noqa: E402
from repro.workloads.memcached import MemcachedWorkload  # noqa: E402


def build_bench(args):
    """One server + N Treadmill instances, same wiring as run_spec."""
    bench = TestBench(
        BenchConfig(workload=MemcachedWorkload(), seed=args.seed), run_index=0
    )
    per_us = bench.server.arrival_rate_for_utilization(args.utilization)
    rate_per_instance = per_us * 1e6 / args.instances
    instances = [
        TreadmillInstance(
            bench,
            f"client{i}",
            TreadmillConfig(
                rate_rps=rate_per_instance,
                connections=4,
                warmup_samples=args.warmup,
                measurement_samples=args.samples,
            ),
        )
        for i in range(args.instances)
    ]
    for inst in instances:
        inst.start()
    return bench, instances


def drive(bench, instances, slice_events):
    """Run to completion in fixed-size slices; return per-slice costs.

    Mirrors ``TestBench.run_to_completion`` (run until every instance
    is done, stop, drain) but executes through ``sim.run(max_events=
    slice_events)`` so each slice can be timed individually.
    """
    sim = bench.sim
    step_ns = []  # mean ns/event of each slice
    perf = time.perf_counter_ns
    while not all(inst.done for inst in instances):
        t0 = perf()
        executed = sim.run(max_events=slice_events)
        dt = perf() - t0
        if executed:
            step_ns.append(dt / executed)
        if executed < slice_events and sim.peek() is None:
            # Instances stop their own controllers at the final counted
            # sample, so a drained queue with every instance done is the
            # normal end of the run — anything else is a stall.
            if all(inst.done for inst in instances):
                break
            raise RuntimeError("simulation drained before instances finished")
    for inst in instances:
        inst.stop()
    sim.run()  # drain in-flight requests
    return step_ns


def percentile(sorted_vals, q):
    """Nearest-rank percentile of an ascending list."""
    if not sorted_vals:
        return 0.0
    rank = max(0, math.ceil(q * len(sorted_vals)) - 1)
    return sorted_vals[rank]


def batch_hit_rate(instances):
    """Pooled hit rate across every hot-path BlockStream."""
    draws = sum(s.draws for inst in instances for s in inst.streams)
    refills = sum(s.refills for inst in instances for s in inst.streams)
    if draws == 0:
        return 0.0, 0, 0
    return 1.0 - refills / draws, draws, refills


def run_measurement(args):
    bench, instances = build_bench(args)
    gc_was_enabled = gc.isenabled()
    if gc_was_enabled:
        gc.disable()
    t0 = time.perf_counter()
    try:
        step_ns = drive(bench, instances, args.slice_events)
    finally:
        if gc_was_enabled:
            gc.enable()
    wall_s = time.perf_counter() - t0
    return bench, instances, step_ns, wall_s


def bench_run_spec(args):
    """The bench workload as a RunSpec (the partitioned lane's unit).

    Same shape as ``build_bench`` — one memcached server, N Treadmill
    instances at a target utilization — expressed declaratively so the
    serial and partitioned kernels measure the *same* experiment and
    their ``RunResult``s can be fingerprint-compared.
    """
    from repro.exec.spec import RunSpec  # noqa: E402

    return RunSpec(
        workload=MemcachedWorkload(),
        target_utilization=args.utilization,
        num_instances=args.instances,
        connections_per_instance=4,
        warmup_samples=args.warmup,
        measurement_samples_per_instance=args.samples,
        keep_raw=True,
        seed=args.seed,
    )


def run_partitioned_lane(args, partition_counts):
    """Events/s of the sharded kernel vs the serial reference.

    For each partition count: build the bench as N sub-kernels, drive
    it through the conservative window protocol, and fingerprint the
    ``RunResult`` against the serial kernel's.  A count of 1 runs the
    plain kernel (no windows).  The gate is ``outputs_identical`` —
    bit-identity, never wall-clock.
    """
    from repro.exec.spec import result_fingerprint  # noqa: E402
    from repro.measure.simbackend import (  # noqa: E402
        _drive_single_server,
        build_single_server,
        single_server_result,
    )
    from repro.sim.engine import gc_paused  # noqa: E402

    spec = bench_run_spec(args)
    reference = result_fingerprint(_drive_single_server(spec))
    lanes = []
    all_identical = True
    for n in partition_counts:
        sharded = spec.replace(partitions=n)
        t0 = time.perf_counter()
        with gc_paused():
            bench, instances = build_single_server(sharded)
            stats = bench.run_to_completion(instances)
        wall_s = time.perf_counter() - t0
        result = single_server_result(sharded, bench, instances, wall_s)
        identical = result_fingerprint(result) == reference
        all_identical = all_identical and identical
        windows = stats.windows if stats is not None else 0
        boundary_events = stats.boundary_events if stats is not None else 0
        events = result.events_processed
        boundary_fraction = boundary_events / events if events else 0.0
        lanes.append(
            {
                "partitions": n,
                "wall_s": round(wall_s, 3),
                "events": events,
                "events_per_s": round(events / wall_s, 1),
                "windows": windows,
                "boundary_events": boundary_events,
                "boundary_event_fraction": round(boundary_fraction, 6),
                "outputs_identical": identical,
            }
        )
        print(
            f"[bench_sim] partitioned n={n}: "
            f"{events / wall_s:,.0f} events/s over "
            f"{windows:,} windows "
            f"({boundary_fraction:.2%} boundary events), "
            f"outputs_identical={identical}"
        )
    return lanes, all_identical


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", type=int, default=3000,
                        help="measurement samples per instance")
    parser.add_argument("--warmup", type=int, default=200)
    parser.add_argument("--instances", type=int, default=2)
    parser.add_argument("--utilization", type=float, default=0.7)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--slice-events", type=int, default=2048,
                        help="events per timed kernel slice")
    parser.add_argument("--partitions", default="1,2,4", metavar="LIST",
                        help=("partition counts for the sharded-kernel lane "
                              "(comma-separated, default 1,2,4; empty "
                              "string skips the lane)"))
    parser.add_argument("--quick", action="store_true",
                        help="small CI-sized run (fewer samples)")
    parser.add_argument("--profile", nargs="?", type=int, const=25,
                        default=None, metavar="N",
                        help="also profile a run and print the top N functions")
    parser.add_argument("--out", default="BENCH_sim.json")
    args = parser.parse_args()
    if args.quick:
        args.samples = min(args.samples, 800)
        args.warmup = min(args.warmup, 150)

    # One discarded warm-up pass: the first run through the kernel pays
    # interpreter cold-start (code-object caches, allocator arenas) that
    # a steady-state measurement should not include.
    run_measurement(args)
    bench, instances, step_ns, wall_s = run_measurement(args)

    events = bench.sim.events_processed
    requests = sum(inst.controller.sent for inst in instances)
    hit_rate, draws, refills = batch_hit_rate(instances)
    step_sorted = sorted(step_ns)
    p50 = percentile(step_sorted, 0.50)
    p99 = percentile(step_sorted, 0.99)

    print(
        f"[bench_sim] {events:,} events / {requests:,} requests "
        f"in {wall_s:.2f}s"
    )
    print(
        f"[bench_sim] {events / wall_s:,.0f} events/s, "
        f"{requests / wall_s:,.0f} requests/s "
        f"({events / requests:.1f} events/request)"
    )
    print(
        f"[bench_sim] step cost over {len(step_ns)} slices of "
        f"{args.slice_events} events: p50={p50:.0f} ns, p99={p99:.0f} ns"
    )
    print(
        f"[bench_sim] RNG-batch hit rate: {hit_rate:.4f} "
        f"({draws:,} draws, {refills:,} block refills)"
    )

    partition_counts = [
        int(tok) for tok in args.partitions.split(",") if tok.strip()
    ]
    if partition_counts:
        lanes, outputs_identical = run_partitioned_lane(args, partition_counts)
    else:
        lanes, outputs_identical = [], None

    from repro.hostinfo import host_info, parallel_meaningful  # noqa: E402

    payload = {
        "bench": "sim_hot_path",
        "library_version": __version__,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        #: Host provenance: trajectory points are only comparable
        #: between hosts with the same fingerprint.
        "host": host_info(),
        "quick": args.quick,
        "samples_per_instance": args.samples,
        "instances": args.instances,
        "utilization": args.utilization,
        "slice_events": args.slice_events,
        "wall_s": round(wall_s, 3),
        "events": events,
        "requests": requests,
        "events_per_s": round(events / wall_s, 1),
        "requests_per_s": round(requests / wall_s, 1),
        "step_ns_p50": round(p50, 1),
        "step_ns_p99": round(p99, 1),
        "rng_batch_hit_rate": round(hit_rate, 6),
        "rng_draws": draws,
        "rng_block_refills": refills,
        #: Host provenance for the executor lanes: wall-clock speed-ups
        #: only mean anything with real cores.
        "parallel_meaningful": parallel_meaningful(),
        "partitioned": lanes,
        #: The acceptance gate: every partition count reproduced the
        #: serial kernel's RunResult bit for bit (None = lane skipped).
        "outputs_identical": outputs_identical,
    }
    with open(args.out, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"[bench_sim] wrote {args.out}")

    if args.profile is not None:
        import cProfile
        import pstats

        profiler = cProfile.Profile()
        profiler.enable()
        run_measurement(args)
        profiler.disable()
        print(f"[bench_sim] top {args.profile} functions by internal time:")
        pstats.Stats(profiler).sort_stats("tottime").print_stats(args.profile)
    if outputs_identical is False:
        print(
            "[bench_sim] FAIL: partitioned kernel diverged from the "
            "serial reference (outputs_identical: false)",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
