"""Quantile estimation and confidence intervals.

The paper's evaluation turns entirely on high quantiles (p95, p99,
p99.9) of latency distributions, so this module centralizes how they
are estimated and how uncertain those estimates are:

* :func:`quantile` / :func:`quantiles` — point estimates on raw
  samples (inverted-CDF with interpolation, numpy's default).
* :func:`order_statistic_ci` — a distribution-free confidence interval
  from the binomial distribution of order statistics; this is the
  statistically safe way to put error bars on a p99 without assuming
  normality (Section IV's critique of ANOVA's assumptions applies to
  naive CIs too).
* :func:`bootstrap_quantile_ci` — percentile-bootstrap interval, used
  where the order-statistic interval is too conservative for small
  samples.
* :func:`quantile_density` — kernel estimate of the density at a
  quantile; the paper's Finding 2 notes the variance of a quantile
  estimate is inversely proportional to the density there.
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

import numpy as np

__all__ = [
    "quantile",
    "quantiles",
    "order_statistic_ci",
    "bootstrap_quantile_ci",
    "quantile_density",
    "quantile_stderr",
]


def _validate(samples: np.ndarray, q: float) -> np.ndarray:
    arr = np.asarray(samples, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("samples must be a non-empty 1-D array")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    return arr


def quantile(samples: Sequence[float], q: float) -> float:
    """Point estimate of the ``q``-quantile."""
    arr = _validate(np.asarray(samples), q)
    return float(np.quantile(arr, q))


def quantiles(samples: Sequence[float], qs: Sequence[float]) -> np.ndarray:
    """Vectorized point estimates for several quantiles."""
    arr = np.asarray(samples, dtype=float)
    if arr.size == 0:
        raise ValueError("samples must be non-empty")
    return np.quantile(arr, np.asarray(qs, dtype=float))


def order_statistic_ci(
    samples: Sequence[float], q: float, confidence: float = 0.95
) -> Tuple[float, float]:
    """Distribution-free CI for the ``q``-quantile via order statistics.

    The number of samples below the true quantile is Binomial(n, q);
    inverting that gives ranks (l, u) such that
    ``P(x_(l) <= Q_q <= x_(u)) >= confidence`` with no distributional
    assumptions at all.
    """
    arr = np.sort(_validate(np.asarray(samples), q))
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    from scipy.stats import binom

    n = arr.size
    alpha = 1.0 - confidence
    lo_rank = int(binom.ppf(alpha / 2.0, n, q))
    hi_rank = int(binom.ppf(1.0 - alpha / 2.0, n, q))
    lo_rank = max(0, min(lo_rank, n - 1))
    hi_rank = max(0, min(hi_rank, n - 1))
    return float(arr[lo_rank]), float(arr[hi_rank])


def bootstrap_quantile_ci(
    samples: Sequence[float],
    q: float,
    confidence: float = 0.95,
    n_boot: int = 1000,
    rng: np.random.Generator = None,
) -> Tuple[float, float]:
    """Percentile-bootstrap CI for the ``q``-quantile."""
    arr = _validate(np.asarray(samples), q)
    if rng is None:
        rng = np.random.default_rng(0)
    n = arr.size
    idx = rng.integers(0, n, size=(n_boot, n))
    boots = np.quantile(arr[idx], q, axis=1)
    alpha = 1.0 - confidence
    return (
        float(np.quantile(boots, alpha / 2.0)),
        float(np.quantile(boots, 1.0 - alpha / 2.0)),
    )


def quantile_density(samples: Sequence[float], q: float) -> float:
    """Kernel estimate of the latency density at the ``q``-quantile.

    Uses a Gaussian KDE with Silverman bandwidth.  Degenerate inputs
    (all samples equal) return ``inf`` — the quantile there is known
    exactly.
    """
    arr = _validate(np.asarray(samples), q)
    point = np.quantile(arr, q)
    sd = arr.std(ddof=1) if arr.size > 1 else 0.0
    if sd == 0.0:
        return math.inf
    from scipy.stats import gaussian_kde

    kde = gaussian_kde(arr)
    return float(kde(point)[0])


def quantile_stderr(samples: Sequence[float], q: float) -> float:
    """Asymptotic standard error of the ``q``-quantile estimate.

    ``se = sqrt(q (1-q) / n) / f(Q_q)`` — the classical result the
    paper's Finding 2 invokes: variance is inversely proportional to
    the density at the quantile, which is tiny in the tail, hence the
    growing standard errors at p99 in Table IV.
    """
    arr = _validate(np.asarray(samples), q)
    dens = quantile_density(arr, q)
    if math.isinf(dens):
        return 0.0
    return math.sqrt(q * (1.0 - q) / arr.size) / dens
