"""Shared logic for Figs. 7-10: per-configuration latency estimates and
average per-factor impacts, at low and high load."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..core.attribution import AttributionReport
from ..stats.design import FactorialDesign
from .common import HIGH_LOAD, LOW_LOAD, attribution_report, format_table

__all__ = ["EstimatesResult", "run_estimates", "render_estimates", "render_impacts"]

PERCENTILES = (0.5, 0.9, 0.95, 0.99)
LOADS = {"low": LOW_LOAD, "high": HIGH_LOAD}


@dataclass
class EstimatesResult:
    """Figs. 7/9 (config estimates) and 8/10 (factor impacts) data."""

    workload: str
    reports: Dict[str, AttributionReport]  # "low" / "high"

    def config_estimates(
        self, load: str, tau: float
    ) -> Dict[Tuple[int, ...], float]:
        return self.reports[load].all_config_estimates(tau)

    def factor_impacts(self, load: str, tau: float) -> Dict[str, float]:
        report = self.reports[load]
        return {
            f.name: report.factor_average_impact(f.name, tau)
            for f in report.factors
        }

    def best_config(self, load: str, tau: float = 0.99) -> Tuple[int, ...]:
        return self.reports[load].best_config(tau)

    def config_label(self, coded: Tuple[int, ...]) -> str:
        return FactorialDesign(self.reports["high"].factors).config_label(coded)


def run_estimates(
    workload: str, scale: str = "default", seed: int = 11
) -> EstimatesResult:
    reports = {
        name: attribution_report(
            workload, load, scale=scale, seed=seed, taus=PERCENTILES
        )
        for name, load in LOADS.items()
    }
    return EstimatesResult(workload=workload, reports=reports)


def render_estimates(result: EstimatesResult, figure: str) -> str:
    """Figs. 7/9: one row per configuration, estimated latency at each
    (load, percentile) pair."""
    design = FactorialDesign(result.reports["high"].factors)
    headers = ["configuration"]
    for tau in PERCENTILES:
        for load in ("low", "high"):
            headers.append(f"p{int(tau * 100)} {load}")
    rows: List[List[object]] = []
    estimates = {
        (load, tau): result.config_estimates(load, tau)
        for load in LOADS
        for tau in PERCENTILES
    }
    for coded in design.configs():
        row: List[object] = [design.config_label(coded)]
        for tau in PERCENTILES:
            for load in ("low", "high"):
                row.append(round(estimates[(load, tau)][coded], 1))
        rows.append(row)
    return format_table(
        headers,
        rows,
        title=(
            f"{figure} — estimated latency (us) of {result.workload} per "
            "configuration"
        ),
    )


def render_impacts(result: EstimatesResult, figure: str) -> str:
    """Figs. 8/10: average impact of turning each factor high."""
    impacts = {
        (load, tau): result.factor_impacts(load, tau)
        for tau in PERCENTILES
        for load in ("low", "high")
    }
    rows: List[List[object]] = []
    for factor in result.reports["high"].names:
        row: List[object] = [factor]
        for tau in PERCENTILES:
            for load in ("low", "high"):
                row.append(round(impacts[(load, tau)][factor], 1))
        rows.append(row)
    headers = ["factor"]
    for tau in PERCENTILES:
        for load in ("low", "high"):
            headers.append(f"p{int(tau * 100)} {load}")
    return format_table(
        headers,
        rows,
        title=(
            f"{figure} — average latency impact (us) of each factor for "
            f"{result.workload} (negative = reduction)"
        ),
    )
