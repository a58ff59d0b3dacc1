"""Tail-latency attribution: factorial sweep + quantile regression.

This is the paper's Section IV/V pipeline, end to end:

1. Define the factor space (Table III: ``numa``, ``turbo``, ``dvfs``,
   ``nic``, each at two levels).
2. Run a randomized, replicated 2^4 full-factorial sweep, each
   experiment being an independent server boot measured by lightly
   utilized Treadmill instances; sub-sample each experiment's raw
   latencies (the paper keeps 20k per experiment).
3. Fit quantile regression with all interaction terms at each quantile
   of interest, with bootstrap standard errors and p-values
   (Table IV) and pseudo-R-squared (Fig. 11).
4. Derive the downstream artifacts: estimated latency for every
   configuration (Figs. 7/9), average per-factor impacts (Figs. 8/10),
   and the recommended configuration whose adoption gives the paper's
   "43% lower p99, 93% lower variance" result (Fig. 12).
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..exec.executors import _ExecutorBase, execute_specs
from ..exec.progress import ProgressHook
from ..exec.spec import RunResult, RunSpec
from ..sim.cpu import GOVERNOR_ONDEMAND, GOVERNOR_PERFORMANCE
from ..sim.machine import HardwareSpec
from ..sim.memory import POLICY_INTERLEAVE, POLICY_SAME_NODE
from ..sim.nic import AFFINITY_ALL_NODES, AFFINITY_SAME_NODE
from ..stats.design import Factor, FactorialDesign, model_matrix
from ..stats.inference import (
    ExperimentSample,
    check_n_boot,
    fit_with_inference,
    screen_factor,
)
from ..stats.quantreg import QuantRegResult
from ..workloads.base import Workload

__all__ = [
    "TREADMILL_FACTORS",
    "apply_factors",
    "subsample_latencies",
    "fit_report",
    "fit_grouped_experiments",
    "AttributionConfig",
    "AttributionReport",
    "AttributionStudy",
]


def subsample_latencies(
    raw: np.ndarray, limit: int, seed: int, run_index: int
) -> np.ndarray:
    """Cap one experiment's raw latencies at ``limit`` samples.

    The paper keeps 20k raw latencies per experiment.  Index through a
    permutation of positions rather than ``rng.choice(raw,
    replace=False)``: choice materializes a shuffled copy of the full
    value array, while a position permutation costs O(n) small
    integers and one fancy-index.  The RNG is keyed on (seed,
    run_index) so the same experiment always keeps the same subsample.
    """
    if raw.size > limit:
        rng = np.random.default_rng((seed, run_index, 0x5EED))
        idx = rng.permutation(raw.size)[:limit]
        raw = raw[idx]
    return raw

#: The paper's Table III.
TREADMILL_FACTORS: List[Factor] = [
    Factor("numa", low=POLICY_SAME_NODE, high=POLICY_INTERLEAVE),
    Factor("turbo", low="off", high="on"),
    Factor("dvfs", low=GOVERNOR_ONDEMAND, high=GOVERNOR_PERFORMANCE),
    Factor("nic", low=AFFINITY_SAME_NODE, high=AFFINITY_ALL_NODES),
]


def apply_factors(base: HardwareSpec, coded: Sequence[int]) -> HardwareSpec:
    """Return a copy of ``base`` with the coded factor levels applied.

    Coded order follows :data:`TREADMILL_FACTORS`:
    ``(numa, turbo, dvfs, nic)`` with 0 = low level, 1 = high level.
    """
    if len(coded) != 4:
        raise ValueError(f"expected 4 coded levels, got {len(coded)}")
    numa_c, turbo_c, dvfs_c, nic_c = (int(c) for c in coded)
    for c in (numa_c, turbo_c, dvfs_c, nic_c):
        if c not in (0, 1):
            raise ValueError("coded levels must be 0 or 1")
    cpu = dataclasses.replace(
        base.cpu,
        turbo_enabled=bool(turbo_c),
        governor=GOVERNOR_PERFORMANCE if dvfs_c else GOVERNOR_ONDEMAND,
    )
    numa = dataclasses.replace(
        base.numa,
        policy=POLICY_INTERLEAVE if numa_c else POLICY_SAME_NODE,
    )
    nic = dataclasses.replace(
        base.nic,
        affinity=AFFINITY_ALL_NODES if nic_c else AFFINITY_SAME_NODE,
    )
    return dataclasses.replace(base, cpu=cpu, numa=numa, nic=nic)


@dataclass
class AttributionConfig:
    """Configuration of one attribution study (one workload, one load)."""

    workload: Workload
    base_hardware: HardwareSpec = field(default_factory=HardwareSpec)
    target_utilization: float = 0.7
    #: Independent experiments per factor configuration (the paper
    #: uses >= 30; scale down for quick studies).
    replications: int = 8
    #: Raw latency samples retained per experiment (paper: 20k).  The
    #: run's quantile responses are computed from this subsample, so it
    #: must stay large enough for a precise p99 (the paper validated
    #: 20k against larger sets).
    samples_per_experiment: int = 20_000
    taus: Sequence[float] = (0.5, 0.95, 0.99)
    #: Treadmill instances and per-instance samples for each experiment.
    num_instances: int = 4
    measurement_samples_per_instance: int = 3000
    warmup_samples: int = 500
    n_boot: int = 120
    perturb_sd: float = 0.01
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.target_utilization < 1.0:
            raise ValueError("target_utilization must be in (0, 1)")
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        check_n_boot(self.n_boot)


@dataclass
class AttributionReport:
    """Everything the paper derives from one study."""

    factors: List[Factor]
    taus: Tuple[float, ...]
    experiments: List[ExperimentSample]
    fits: Dict[float, QuantRegResult]
    pseudo_r2: Dict[float, float]

    @property
    def names(self) -> List[str]:
        return [f.name for f in self.factors]

    def estimated_latency(self, coded: Sequence[int], tau: float) -> float:
        """Model-estimated tau-quantile latency for one configuration
        (summing the qualified coefficients plus the intercept, as the
        paper's Table IV walk-through demonstrates)."""
        X, _ = model_matrix([list(coded)], self.names)
        return float(self.fits[tau].predict(X)[0])

    def all_config_estimates(self, tau: float) -> Dict[Tuple[int, ...], float]:
        """Figs. 7/9: estimated latency for every configuration.

        One design matrix serves every configuration; each is predicted
        from its own one-row slice, the same product
        :meth:`estimated_latency` computes.
        """
        configs, X = _config_design(tuple(self.factors))
        fit = self.fits[tau]
        return {
            cfg: float(fit.predict(X[i : i + 1])[0]) for i, cfg in enumerate(configs)
        }

    def factor_average_impact(self, factor: str, tau: float) -> float:
        """Figs. 8/10: average latency change from turning ``factor``
        high, with every other factor equally likely low or high."""
        if factor not in self.names:
            raise KeyError(f"unknown factor {factor!r}")
        idx = self.names.index(factor)
        estimates = self.all_config_estimates(tau)
        hi = [v for cfg, v in estimates.items() if cfg[idx] == 1]
        lo = [v for cfg, v in estimates.items() if cfg[idx] == 0]
        return float(np.mean(hi) - np.mean(lo))

    def best_config(self, tau: float) -> Tuple[int, ...]:
        """Configuration minimizing the estimated tau-quantile latency
        (the recommendation behind Fig. 12)."""
        estimates = self.all_config_estimates(tau)
        return min(estimates, key=estimates.get)

    def table_rows(self, tau: float) -> List[Dict[str, float]]:
        """Table IV rows for one quantile: term, Est., Std.Err, p."""
        fit = self.fits[tau]
        rows = []
        for i, term in enumerate(fit.columns):
            rows.append(
                {
                    "term": term,
                    "estimate_us": float(fit.coefficients[i]),
                    "stderr_us": (
                        float(fit.stderr[i]) if fit.stderr is not None else float("nan")
                    ),
                    "p_value": (
                        float(fit.p_values[i])
                        if fit.p_values is not None
                        else float("nan")
                    ),
                }
            )
        return rows


@functools.lru_cache(maxsize=None)
def _config_design(
    factors: Tuple[Factor, ...]
) -> Tuple[List[Tuple[int, ...]], np.ndarray]:
    """Every configuration of the full factorial over ``factors`` and
    its full-interaction design matrix (read-only: shared by reports)."""
    configs = FactorialDesign(factors).configs()
    X, _ = model_matrix(configs, [f.name for f in factors])
    X.flags.writeable = False
    return configs, X


class AttributionStudy:
    """Runs the factorial sweep and fits the attribution model.

    The randomized replicated schedule is built up front and submitted
    to the execution layer *as one batch* — at paper scale that is 480
    independent server boots with no ordering constraints, which a
    parallel executor spreads across every core (and the result cache
    deduplicates across the five artifacts sharing one sweep).
    """

    def __init__(
        self,
        config: AttributionConfig,
        factors: Optional[List[Factor]] = None,
        executor: Optional[_ExecutorBase] = None,
    ):
        self.config = config
        self.factors = factors or list(TREADMILL_FACTORS)
        self.design = FactorialDesign(self.factors)
        self.executor = executor

    def spec_for(self, coded: Sequence[int], run_index: int) -> RunSpec:
        """The :class:`RunSpec` of one experiment at one configuration."""
        cfg = self.config
        return RunSpec(
            workload=cfg.workload,
            hardware=apply_factors(cfg.base_hardware, tuple(coded)),
            target_utilization=cfg.target_utilization,
            num_instances=cfg.num_instances,
            warmup_samples=cfg.warmup_samples,
            measurement_samples_per_instance=cfg.measurement_samples_per_instance,
            keep_raw=True,
            seed=cfg.seed,
            run_index=run_index,
            tag=f"cfg={tuple(coded)} run={run_index}",
        )

    def _subsample(self, run: RunResult, run_index: int) -> np.ndarray:
        cfg = self.config
        return subsample_latencies(
            run.raw_samples(), cfg.samples_per_experiment, cfg.seed, run_index
        )

    def _experiment(self, coded: Tuple[int, ...], run_index: int) -> ExperimentSample:
        """One independent experiment at one configuration."""
        run = execute_specs([self.spec_for(coded, run_index)], self.executor)[0]
        return ExperimentSample(
            coded=tuple(coded), samples=self._subsample(run, run_index)
        )

    def run_experiments(
        self, progress: Optional[ProgressHook] = None
    ) -> List[ExperimentSample]:
        """The randomized replicated sweep (480 experiments at paper
        scale: 2^4 configurations x 30 replications), submitted to the
        execution layer as a single batch."""
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        schedule = [tuple(coded) for coded in self.design.schedule(cfg.replications, rng)]
        specs = [
            self.spec_for(coded, run_index)
            for run_index, coded in enumerate(schedule)
        ]
        runs = execute_specs(specs, self.executor, progress=progress)
        return [
            ExperimentSample(coded=coded, samples=self._subsample(run, run_index))
            for run_index, (coded, run) in enumerate(zip(schedule, runs))
        ]

    def screen_factors(
        self,
        experiments: List[ExperimentSample],
        tau: float = 0.99,
        n_perm: int = 300,
    ) -> Dict[str, float]:
        """Section IV-B's factor selection: permutation-test p-values
        for each candidate factor's effect on the tau-quantile.

        Factors with large p-values did not move the quantile in the
        sweep and can be dropped from the model."""
        rng = np.random.default_rng(self.config.seed + 2)
        return {
            factor.name: screen_factor(
                experiments, idx, tau, n_perm=n_perm, rng=rng
            )
            for idx, factor in enumerate(self.factors)
        }

    def analyze(
        self, experiments: Optional[List[ExperimentSample]] = None
    ) -> AttributionReport:
        """Fit the full-interaction model at every quantile of interest."""
        cfg = self.config
        if experiments is None:
            experiments = self.run_experiments()
        return fit_report(
            experiments,
            self.factors,
            cfg.taus,
            n_boot=cfg.n_boot,
            perturb_sd=cfg.perturb_sd,
            seed=cfg.seed,
        )


def fit_report(
    experiments: List[ExperimentSample],
    factors: List[Factor],
    taus: Sequence[float],
    n_boot: int = 120,
    perturb_sd: float = 0.01,
    seed: int = 0,
) -> AttributionReport:
    """Fit the full-interaction model over one set of experiments.

    This is :meth:`AttributionStudy.analyze` factored out so scenario
    attribution can fit the same model once per (fleet, pool) group
    without owning a study/sweep: one bootstrap RNG is seeded at
    ``seed + 1`` and shared across quantiles in order, exactly as the
    study does.
    """
    rng = np.random.default_rng(seed + 1)
    names = [f.name for f in factors]
    fits: Dict[float, QuantRegResult] = {}
    r2: Dict[float, float] = {}
    for tau in taus:
        fit, fit_r2 = fit_with_inference(
            experiments,
            names,
            tau,
            n_boot=n_boot,
            perturb_sd=perturb_sd,
            rng=rng,
        )
        fits[tau] = fit
        r2[tau] = fit_r2
    return AttributionReport(
        factors=list(factors),
        taus=tuple(taus),
        experiments=list(experiments),
        fits=fits,
        pseudo_r2=r2,
    )


def fit_grouped_experiments(
    experiments_by_group: "Dict[Tuple[str, str], List[ExperimentSample]]",
    factors: List[Factor],
    taus: Sequence[float],
    n_boot: int = 120,
    perturb_sd: float = 0.01,
    seed: int = 0,
) -> "Dict[Tuple[str, str], AttributionReport]":
    """One attribution fit per (fleet, pool) group.

    Scenario sweeps measure every group under the *same* factorial
    schedule (common random numbers across groups), so each group gets
    its own independent model over its own latency samples — which is
    what lets a factor's effect be localized to the pool it actually
    hurts.  Each group's fit seeds its own bootstrap RNG, so results
    are independent of dict insertion order.
    """
    return {
        group: fit_report(
            experiments_by_group[group],
            factors,
            taus,
            n_boot=n_boot,
            perturb_sd=perturb_sd,
            seed=seed,
        )
        for group in sorted(experiments_by_group)
    }
