"""Shared experiment machinery: scale presets, study caching, rendering.

Every experiment module exposes ``run(scale="default") -> result`` and
``render(result) -> str``.  The *scale* controls sample counts and
replication so the same code serves three purposes:

* ``quick`` — seconds; used by the integration tests.
* ``default`` — tens of seconds; used by the benchmark harness.
* ``paper`` — the paper's own scale (30+ replications, 20k samples per
  experiment); minutes to hours, run explicitly via the CLI.

Attribution studies (the factorial sweeps feeding Table IV and
Figs. 7-12) are cached per (workload, utilization, scale, seed) within
the process, because five artifacts share the same sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from ..core.attribution import AttributionConfig, AttributionReport, AttributionStudy
from ..workloads.base import Workload
from ..workloads.mcrouter import McrouterWorkload
from ..workloads.memcached import MemcachedWorkload

__all__ = [
    "Scale",
    "SCALES",
    "get_scale",
    "make_workload",
    "attribution_report",
    "LOW_LOAD",
    "HIGH_LOAD",
    "format_table",
]

#: Utilization levels used throughout the evaluation ("low load" /
#: "high load" in Figs. 7-10; the paper runs memcached at 70% for
#: Table IV).
LOW_LOAD = 0.2
HIGH_LOAD = 0.7


@dataclass(frozen=True)
class Scale:
    """Size knobs for one experiment run."""

    name: str
    #: Factorial replications per configuration (paper: >= 30).
    replications: int
    #: Treadmill instances per experiment.
    instances: int
    #: Measured samples per instance per run.
    samples_per_instance: int
    #: Warm-up samples per instance.
    warmup: int
    #: Bootstrap resamples for Table IV inference.
    n_boot: int
    #: Runs for the before/after improvement study (paper: 100).
    improvement_runs: int
    #: Independent runs for the hysteresis figure.
    hysteresis_runs: int
    #: Samples for one-off distribution comparisons (Figs. 5/6).
    comparison_samples: int


SCALES: Dict[str, Scale] = {
    "quick": Scale(
        name="quick",
        replications=4,
        instances=2,
        samples_per_instance=1000,
        warmup=200,
        n_boot=25,
        improvement_runs=8,
        hysteresis_runs=3,
        comparison_samples=3000,
    ),
    "default": Scale(
        name="default",
        replications=6,
        instances=4,
        samples_per_instance=2500,
        warmup=500,
        n_boot=120,
        improvement_runs=20,
        hysteresis_runs=4,
        comparison_samples=12_000,
    ),
    "paper": Scale(
        name="paper",
        replications=30,
        instances=8,
        samples_per_instance=2500,
        warmup=500,
        n_boot=300,
        improvement_runs=100,
        hysteresis_runs=4,
        comparison_samples=40_000,
    ),
}


def get_scale(scale: str) -> Scale:
    try:
        return SCALES[scale]
    except KeyError:
        raise ValueError(f"unknown scale {scale!r} (have {sorted(SCALES)})") from None


def make_workload(name: str) -> Workload:
    if name == "memcached":
        return MemcachedWorkload()
    if name == "mcrouter":
        return McrouterWorkload()
    raise ValueError(f"unknown workload {name!r}")


_STUDY_CACHE: Dict[
    Tuple[str, float, str, int, Tuple[float, ...]], AttributionReport
] = {}


def attribution_report(
    workload: str,
    utilization: float,
    scale: str = "default",
    seed: int = 11,
    taus: Sequence[float] = (0.5, 0.9, 0.95, 0.99),
) -> AttributionReport:
    """The factorial sweep + fits for one (workload, load) pair, cached.

    Five artifacts (Table IV, Figs. 7-12) derive from the same sweeps;
    caching keeps the benchmark suite's runtime linear in the number of
    distinct sweeps rather than artifacts.  The key includes ``taus``:
    a call asking for other quantiles gets fits at those quantiles.
    """
    key = (workload, round(utilization, 4), scale, seed, tuple(map(float, taus)))
    if key not in _STUDY_CACHE:
        sc = get_scale(scale)
        config = AttributionConfig(
            workload=make_workload(workload),
            target_utilization=utilization,
            replications=sc.replications,
            num_instances=sc.instances,
            measurement_samples_per_instance=sc.samples_per_instance,
            warmup_samples=sc.warmup,
            n_boot=sc.n_boot,
            taus=tuple(taus),
            seed=seed,
        )
        _STUDY_CACHE[key] = AttributionStudy(config).analyze()
    return _STUDY_CACHE[key]


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: Optional[str] = None,
) -> str:
    """Plain-text table rendering shared by all experiment reports."""
    cells = [[str(h) for h in headers]] + [[_fmt(c) for c in row] for row in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(cells[0], widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells[1:]:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        if value != value:  # NaN
            return "nan"
        if abs(value) >= 100:
            return f"{value:.0f}"
        if abs(value) >= 1:
            return f"{value:.1f}"
        return f"{value:.3g}"
    return str(value)
