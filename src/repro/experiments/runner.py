"""Experiment registry and runner (used by the CLI and the benches).

Each entry maps a paper artifact id to its module's ``run``/``render``
pair; ``run_experiment`` executes one and returns the rendered report.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple

from . import (
    fig01_outstanding,
    findings,
    fig02_client_bias,
    fig03_queueing_bias,
    fig04_hysteresis,
    fig05_low_util,
    fig06_high_util,
    fig07_memcached_estimates,
    fig08_factor_impact,
    fig09_mcrouter_estimates,
    fig10_mcrouter_impact,
    fig11_goodness,
    fig12_improvement,
    tab01_features,
    tab04_regression,
)

__all__ = ["EXPERIMENTS", "Experiment", "run_experiment", "experiment_ids"]


class Experiment(NamedTuple):
    id: str
    title: str
    run: Callable[..., object]
    render: Callable[[object], str]


EXPERIMENTS: Dict[str, Experiment] = {
    exp.id: exp
    for exp in [
        Experiment(
            "tab1",
            "Table I/II: load-tester features + hardware spec",
            tab01_features.run,
            tab01_features.render,
        ),
        Experiment(
            "fig1",
            "Figure 1: outstanding requests, open vs closed loop",
            fig01_outstanding.run,
            fig01_outstanding.render,
        ),
        Experiment(
            "fig2",
            "Figure 2: cross-client aggregation bias",
            fig02_client_bias.run,
            fig02_client_bias.render,
        ),
        Experiment(
            "fig3",
            "Figure 3: client-side queueing bias vs utilization",
            fig03_queueing_bias.run,
            fig03_queueing_bias.render,
        ),
        Experiment(
            "fig4",
            "Figure 4: performance hysteresis across restarts",
            fig04_hysteresis.run,
            fig04_hysteresis.render,
        ),
        Experiment(
            "fig5",
            "Figure 5: tool accuracy at 10% utilization",
            fig05_low_util.run,
            fig05_low_util.render,
        ),
        Experiment(
            "fig6",
            "Figure 6: tool accuracy at 80% utilization",
            fig06_high_util.run,
            fig06_high_util.render,
        ),
        Experiment(
            "tab4",
            "Table IV: quantile-regression coefficients (memcached)",
            tab04_regression.run,
            tab04_regression.render,
        ),
        Experiment(
            "fig7",
            "Figure 7: memcached per-configuration estimates",
            fig07_memcached_estimates.run,
            fig07_memcached_estimates.render,
        ),
        Experiment(
            "fig8",
            "Figure 8: memcached average factor impacts",
            fig08_factor_impact.run,
            fig08_factor_impact.render,
        ),
        Experiment(
            "fig9",
            "Figure 9: mcrouter per-configuration estimates",
            fig09_mcrouter_estimates.run,
            fig09_mcrouter_estimates.render,
        ),
        Experiment(
            "fig10",
            "Figure 10: mcrouter average factor impacts",
            fig10_mcrouter_impact.run,
            fig10_mcrouter_impact.render,
        ),
        Experiment(
            "fig11",
            "Figure 11: pseudo-R² of the regression models",
            fig11_goodness.run,
            fig11_goodness.render,
        ),
        Experiment(
            "fig12",
            "Figure 12: before/after tuning improvement",
            fig12_improvement.run,
            fig12_improvement.render,
        ),
        Experiment(
            "findings",
            "Section V: programmatic check of the eight findings",
            findings.run,
            findings.render,
        ),
    ]
}


def experiment_ids() -> List[str]:
    return list(EXPERIMENTS)


def run_experiment(exp_id: str, scale: str = "default") -> str:
    """Run one experiment and return its rendered text report.

    Its independent runs go through the process-wide execution defaults
    (:func:`repro.exec.execution`), which the CLI sets from its flags.
    """
    exp = EXPERIMENTS.get(exp_id)
    if exp is None:
        raise KeyError(f"unknown experiment {exp_id!r} (have {experiment_ids()})")
    return exp.render(exp.run(scale=scale))
