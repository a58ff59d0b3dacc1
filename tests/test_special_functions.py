"""The two scipy.stats calls replaced by their scipy.special ufuncs are
bit-identical to the originals.

``MeanConvergence.half_width`` calls ``stdtrit(df, q)`` where it used
``t.ppf(q, df)``, and ``fit_with_inference`` computes two-sided p-values
as ``2 * ndtr(-|z|)`` where it used ``2 * norm.sf(|z|)``.  scipy.stats
stays the oracle here, so these tests re-prove the equality against
whichever scipy is installed.
"""

import math

import numpy as np
import pytest
from scipy import stats as scipy_stats
from scipy.special import ndtr, stdtrit

from repro.stats.convergence import MeanConvergence

#: ``MeanConvergence``'s default (the one the procedure and the reporting
#: summary use) plus the usual alternatives.
CONFIDENCES = (0.8, 0.9, 0.95, 0.99, 0.999)


def z_values():
    rng = np.random.default_rng(35)
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e-300, -1e-300, 1e308, -1e308,
               5e-324, 37.5, 38.5, -8.3]
    return np.concatenate([
        np.array(special),
        rng.normal(0.0, 3.0, size=50_000),
        rng.standard_cauchy(size=20_000),
        np.exp(rng.uniform(-700.0, 700.0, size=20_000)) * rng.choice([-1, 1], 20_000),
    ])


def test_two_sided_p_value_matches_norm_sf():
    z = z_values()
    ours = 2.0 * ndtr(-np.abs(z))
    oracle = 2.0 * scipy_stats.norm.sf(np.abs(z))
    assert ours.dtype == oracle.dtype
    assert ours.tobytes() == oracle.tobytes()


@pytest.mark.parametrize("confidence", CONFIDENCES)
def test_stdtrit_matches_t_ppf(confidence):
    q = 0.5 + confidence / 2.0
    for df in range(1, 1001):
        ours = stdtrit(df, q)
        oracle = scipy_stats.t.ppf(q, df=df)
        assert type(ours) is type(oracle)
        assert ours == oracle, (df, ours, oracle)


@pytest.mark.parametrize("confidence", CONFIDENCES)
def test_half_width_matches_t_ppf_formula(confidence):
    rng = np.random.default_rng(int(confidence * 1000))
    rule = MeanConvergence(confidence=confidence, min_runs=2)
    for n in range(1, 60):
        rule.add(float(rng.lognormal(5.0, 0.3)))
        if n < 2:
            continue
        sd = float(np.std(rule.values, ddof=1))
        t = scipy_stats.t.ppf(0.5 + confidence / 2.0, df=n - 1)
        assert rule.half_width() == float(t * sd / math.sqrt(n))
