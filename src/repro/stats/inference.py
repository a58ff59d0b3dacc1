"""Statistical inference on quantile-regression fits.

Three pieces the paper's Tables and Figures need beyond point
estimates:

* **Standard errors and p-values** (Table IV's ``Std. Err`` /
  ``p-value`` columns).  We use a cluster bootstrap that resamples
  *experiments* (whole runs) within each factor configuration: latency
  samples within a run are correlated (shared boot state — the very
  hysteresis the paper documents), so resampling raw samples would
  understate the variance.  z-scores against the bootstrap SE give
  two-sided p-values.

* **pseudo-R²** (Equation 2, Fig. 11).  Quantile regression has no
  classical R²; the paper defines one as ``1 - L_model / L_const``
  where both losses are the tau-weighted absolute errors (Equations
  3-4) and the constant model is the best single-value predictor of
  the tau-quantile — i.e. the unconditional tau-quantile of y.

* **Factor screening** (Section IV-B): a permutation test for whether
  a candidate factor shifts the tau-quantile at all, used to select
  the factor list before the factorial sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .design import model_matrix
from .quantreg import (
    QuantRegResult,
    fit_quantile_regression,
    fit_saturated_batch,
    pinball_loss,
    saturated_cells,
)

__all__ = [
    "ExperimentSample",
    "expand_design",
    "run_quantile_design",
    "pseudo_r2",
    "fit_with_inference",
    "check_n_boot",
    "screen_factor",
]


@dataclass
class ExperimentSample:
    """One experiment: a coded factor configuration and its latency
    samples (the paper's 20k sub-sampled measurements per run)."""

    coded: Tuple[int, ...]
    samples: np.ndarray

    def __post_init__(self) -> None:
        self.samples = np.asarray(self.samples, dtype=float)
        if self.samples.ndim != 1 or self.samples.size == 0:
            raise ValueError("samples must be a non-empty 1-D array")


def expand_design(
    experiments: Sequence[ExperimentSample],
    names: Sequence[str],
    max_order: Optional[int] = None,
) -> Tuple[np.ndarray, np.ndarray, List[str]]:
    """Expand per-experiment samples into (X, y, columns) for fitting.

    Each experiment's design row is repeated once per latency sample.
    """
    if not experiments:
        raise ValueError("need at least one experiment")
    rows = []
    ys = []
    for exp in experiments:
        rows.extend([exp.coded] * exp.samples.size)
        ys.append(exp.samples)
    X, columns = model_matrix(rows, names, max_order)
    return X, np.concatenate(ys), columns


def pseudo_r2(y: np.ndarray, pred: np.ndarray, tau: float) -> float:
    """Equation 2: goodness-of-fit of a quantile model in [0, 1].

    1 means perfect conditional-quantile prediction; 0 means no better
    than the best constant (the unconditional tau-quantile).  Slightly
    negative values (worse than constant, possible out-of-sample) are
    clamped to 0.
    """
    y = np.asarray(y, dtype=float)
    pred = np.asarray(pred, dtype=float)
    model_loss = pinball_loss(y, pred, tau)
    const = float(np.quantile(y, tau))
    const_loss = pinball_loss(y, np.full_like(y, const), tau)
    if const_loss == 0.0:
        return 1.0 if model_loss == 0.0 else 0.0
    return max(0.0, 1.0 - model_loss / const_loss)


def run_quantile_design(
    experiments: Sequence[ExperimentSample],
    names: Sequence[str],
    tau: float,
    max_order: Optional[int] = None,
) -> Tuple[np.ndarray, np.ndarray, List[str]]:
    """One observation per experiment: that run's tau-quantile.

    This is the paper's stated design — "we design the response
    variable to be a particular quantile (e.g., 99th-percentile) of the
    latency distribution" — with each experiment's quantile estimated
    from its (sub-sampled) latency samples.  The across-run variation
    of the response is exactly the hysteresis the procedure must model,
    and it is why the paper's pseudo-R² can reach 0.9+: factor effects
    dwarf run-to-run noise, while raw per-request noise never would.
    """
    if not experiments:
        raise ValueError("need at least one experiment")
    rows = [exp.coded for exp in experiments]
    y = np.array([float(np.quantile(exp.samples, tau)) for exp in experiments])
    X, columns = model_matrix(rows, names, max_order)
    return X, y, columns


def check_n_boot(n_boot: int) -> None:
    """Reject bootstrap sizes that cannot give a standard error: 0
    means "no inference"; one resample has no spread to measure."""
    if n_boot < 0 or n_boot == 1:
        raise ValueError(
            f"n_boot must be 0 (no inference) or at least 2, got {n_boot}"
        )


def _cell_resampler(
    experiments: Sequence[ExperimentSample],
) -> Callable[[np.random.Generator], np.ndarray]:
    """One cluster-bootstrap resample of experiment indices per call.

    Cells are the distinct configurations in first-appearance order.
    A resample draws ``rng.integers(0, m, size=m)`` for each cell of
    ``m`` runs, in that order, and returns the picked experiments cell
    by cell.  When every cell holds ``k`` runs, one
    ``rng.integers(0, k, size=cells * k)`` call yields the same numbers;
    when ``k == 1`` no call is made, as such a call consumes no
    generator state.
    """
    by_cell: Dict[Tuple[int, ...], List[int]] = {}
    for i, exp in enumerate(experiments):
        by_cell.setdefault(tuple(exp.coded), []).append(i)
    groups = [np.array(members) for members in by_cell.values()]
    members = np.concatenate(groups)
    sizes = {g.size for g in groups}
    if len(sizes) > 1:
        return lambda rng: np.concatenate(
            [g[rng.integers(0, g.size, size=g.size)] for g in groups]
        )
    k = sizes.pop()
    if k == 1:
        return lambda rng: members
    starts = np.repeat(np.arange(0, members.size, k), k)
    return lambda rng: members[starts + rng.integers(0, k, size=members.size)]


def fit_with_inference(
    experiments: Sequence[ExperimentSample],
    names: Sequence[str],
    tau: float,
    max_order: Optional[int] = None,
    n_boot: int = 200,
    perturb_sd: float = 0.01,
    rng: Optional[np.random.Generator] = None,
    method: str = "auto",
    response: str = "run_quantile",
    fit_tau: float = 0.5,
) -> Tuple[QuantRegResult, float]:
    """Fit QR on a factorial experiment set with bootstrap inference.

    Returns ``(result, pseudo_r2)`` where ``result`` carries
    coefficient estimates, bootstrap standard errors, and two-sided
    p-values — the three columns of the paper's Table IV.

    Two response designs are supported:

    * ``response="run_quantile"`` (default, the paper's design): each
      experiment contributes one observation — its tau-quantile — and
      the regression is a *median* (``fit_tau=0.5``) fit over runs, so
      coefficients describe the typical run and are robust to outlier
      runs.
    * ``response="raw"``: Equation 1 taken literally — the regression
      is fit at ``tau`` on the pooled per-request latencies.
      Coefficients match the run-quantile design in expectation, but
      pseudo-R² is depressed by irreducible per-request noise.

    The bootstrap resamples experiments with replacement *within each
    configuration cell*, preserving the balanced design while
    capturing run-to-run (hysteresis) variance.  ``n_boot`` resamples
    (0 skips inference; 1 is rejected, as one resample has no spread).

    ``rng`` is consumed in a fixed order, which the pinned digests
    freeze and which keeps an RNG shared across quantiles in step:
    first the main fit's perturbation (``rng.normal(0, perturb_sd,
    size=n)``, only when ``perturb_sd > 0``), then for each resample
    its index draws (see :func:`_cell_resampler`) followed by one
    perturbation draw of the resample's size.  With ``method="lp"`` or
    ``response="raw"`` each resample is its own
    :func:`fit_quantile_regression` call; otherwise all resamples share
    the saturated design's cells and are fit in one batched call.
    """
    check_n_boot(n_boot)
    if rng is None:
        rng = np.random.default_rng(0)
    if response == "run_quantile":
        X, y, columns = run_quantile_design(experiments, names, tau, max_order)
        spans = None  # one row per experiment
        eff_tau = fit_tau
    elif response == "raw":
        X, y, columns = expand_design(experiments, names, max_order)
        # Each experiment's samples are one contiguous span of rows.
        ends = np.cumsum([exp.samples.size for exp in experiments])
        spans = [
            np.arange(end - exp.samples.size, end)
            for exp, end in zip(experiments, ends)
        ]
        eff_tau = tau
    else:
        raise ValueError(f"unknown response design {response!r}")
    result = fit_quantile_regression(
        X, y, eff_tau, columns=columns, method=method, perturb_sd=perturb_sd, rng=rng
    )
    result.tau = tau
    r2 = pseudo_r2(y, X @ result.coefficients, eff_tau)

    if n_boot > 0:
        # Each resample is a set of row indices into the design built
        # above: the same draws as resampling the experiments and
        # rebuilding the design, without recomputing run quantiles or
        # model matrices.
        draw = _cell_resampler(experiments)
        if spans is None and result.method == "saturated":
            # Every resample keeps every cell at its size, so all of
            # them share the design's cells: one batched fit.
            cells, cell_of = saturated_cells(X)
            rows = np.empty((n_boot, y.size), dtype=np.intp)
            noise = np.empty((n_boot, y.size)) if perturb_sd > 0.0 else None
            for b in range(n_boot):
                rows[b] = draw(rng)
                if noise is not None:
                    noise[b] = rng.normal(0.0, perturb_sd, size=y.size)
            Y = y[rows] if noise is None else y[rows] + noise
            # Slot j of every resample lies in the same cell.
            fitted = fit_saturated_batch(
                cells, cell_of[rows[0]], Y, eff_tau, np.ones(y.size)
            )
            boots = np.ascontiguousarray(fitted)
        else:
            boots = np.empty((n_boot, len(columns)))
            for b in range(n_boot):
                picked = draw(rng)
                if spans is None:
                    rows = picked
                else:
                    rows = np.concatenate([spans[i] for i in picked])
                fit = fit_quantile_regression(
                    X[rows], y[rows], eff_tau, method=method,
                    perturb_sd=perturb_sd, rng=rng,
                )
                boots[b] = fit.coefficients
        stderr = boots.std(axis=0, ddof=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            z = np.where(stderr > 0, result.coefficients / stderr, np.inf)
        # scipy.stats.norm.sf(x) is ndtr(-x); calling the ufunc
        # directly keeps scipy.stats out of the process.
        from scipy.special import ndtr

        p_values = 2.0 * ndtr(-np.abs(z))
        result.stderr = stderr
        result.p_values = p_values
    return result, r2


def screen_factor(
    experiments: Sequence[ExperimentSample],
    factor_index: int,
    tau: float,
    n_perm: int = 500,
    rng: Optional[np.random.Generator] = None,
) -> float:
    """Permutation-test p-value for "factor affects the tau-quantile".

    Statistic: difference between the tau-quantile of all samples from
    high-level experiments and from low-level experiments.  The null
    distribution permutes experiment labels (not raw samples), keeping
    within-run correlation intact.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    if not experiments:
        raise ValueError("need at least one experiment")
    levels = np.array([exp.coded[factor_index] for exp in experiments])
    if levels.min() == levels.max():
        raise ValueError("factor has only one level in these experiments")
    # All samples concatenated once, each tagged with its experiment's
    # index: a labelling selects its hi/lo sets by mask, in the same
    # order as concatenating the selected experiments.
    samples = np.concatenate([exp.samples for exp in experiments])
    owner = np.repeat(
        np.arange(len(experiments)), [exp.samples.size for exp in experiments]
    )

    def statistic(labels: np.ndarray) -> float:
        per_sample = labels[owner]
        hi = samples[per_sample == 1]
        lo = samples[per_sample == 0]
        return float(np.quantile(hi, tau) - np.quantile(lo, tau))

    observed = abs(statistic(levels))
    hits = 0
    for _ in range(n_perm):
        perm = rng.permutation(levels)
        if abs(statistic(perm)) >= observed:
            hits += 1
    # +1 smoothing keeps the p-value away from an impossible exact 0.
    return (hits + 1) / (n_perm + 1)
