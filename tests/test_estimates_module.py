"""Tests for the shared Figs. 7-10 estimates module surface."""

import hashlib

import numpy as np
import pytest

from repro.core.attribution import fit_report
from repro.experiments.estimates import (
    PERCENTILES,
    EstimatesResult,
    render_estimates,
    render_impacts,
    run_estimates,
)
from repro.stats.design import Factor, FactorialDesign
from repro.stats.inference import ExperimentSample


@pytest.fixture(scope="module")
def result():
    return run_estimates("memcached", scale="quick", seed=17)


class TestEstimatesResult:
    def test_reports_for_both_loads(self, result):
        assert set(result.reports) == {"low", "high"}

    def test_config_label_round_trip(self, result):
        label = result.config_label((1, 0, 1, 0))
        assert label == "numa-high,turbo-low,dvfs-high,nic-low"

    def test_best_config_in_design(self, result):
        best = result.best_config("high")
        assert len(best) == 4
        assert all(c in (0, 1) for c in best)

    def test_factor_impacts_have_all_factors(self, result):
        impacts = result.factor_impacts("high", 0.99)
        assert set(impacts) == {"numa", "turbo", "dvfs", "nic"}

    def test_impacts_consistent_with_estimates(self, result):
        """The average impact equals the mean difference over the
        estimate table — the Figs. 7->8 derivation."""
        import numpy as np

        est = result.config_estimates("high", 0.95)
        manual = np.mean([v for c, v in est.items() if c[1] == 1]) - np.mean(
            [v for c, v in est.items() if c[1] == 0]
        )
        assert result.factor_impacts("high", 0.95)["turbo"] == pytest.approx(manual)

    def test_renders_are_complete(self, result):
        est_text = render_estimates(result, "Figure 7")
        imp_text = render_impacts(result, "Figure 8")
        assert est_text.count("numa-") == 16
        assert all(f in imp_text for f in ("numa", "turbo", "dvfs", "nic"))
        assert "p99 high" in est_text and "p99 high" in imp_text


def _pin_result():
    """A small fixed report pair: 2^4 cells x 2 runs x 40 samples."""
    factors = [Factor(n, "lo", "hi") for n in ("numa", "turbo", "dvfs", "nic")]

    def experiments(seed):
        rng = np.random.default_rng(seed)
        out = []
        for cfg in FactorialDesign(factors).configs():
            base = 80.0 + 30.0 * cfg[0] - 12.0 * cfg[1] + 5.0 * cfg[2] * cfg[3]
            for _ in range(2):
                out.append(
                    ExperimentSample(
                        coded=cfg, samples=base + rng.exponential(4.0, 40)
                    )
                )
        return out

    reports = {
        load: fit_report(experiments(seed), factors, PERCENTILES, n_boot=5, seed=seed)
        for load, seed in (("low", 1), ("high", 2))
    }
    return EstimatesResult(workload="pin", reports=reports)


PINNED_IMPACTS = """\
Figure 8 — average latency impact (us) of each factor for pin (negative = reduction)
factor  p50 low  p50 high  p90 low  p90 high  p95 low  p95 high  p99 low  p99 high
------  -------  --------  -------  --------  -------  --------  -------  --------
  numa     30.3      30.3     29.8      30.3     30.7      30.3     31.5      30.0
 turbo    -11.9     -12.0    -12.8     -10.5    -11.7     -10.4    -11.9     -11.0
  dvfs      2.5       2.7      1.9       3.3      2.6       3.5      2.1       2.8
   nic      2.5       2.3      3.7       2.8      3.3       2.7      4.3       3.6"""


class TestEstimatePins:
    """Exact pins of the Figs. 7-8 derivations on a small fixed report:
    how the per-configuration design is built must never move a bit."""

    def test_render_impacts_text_is_pinned(self):
        assert render_impacts(_pin_result(), "Figure 8") == PINNED_IMPACTS

    def test_estimates_and_impacts_are_pinned(self):
        result = _pin_result()
        h = hashlib.sha256()
        for load in ("low", "high"):
            for tau in PERCENTILES:
                est = result.config_estimates(load, tau)
                h.update(np.array(list(est.values())).tobytes())
                impacts = result.factor_impacts(load, tau)
                h.update(np.array(list(impacts.values())).tobytes())
                h.update(repr(result.best_config(load, tau)).encode())
        assert h.hexdigest() == (
            "fbddb04763a464bba9518dc431a75a2f3f69d271d6d0031be01a2e962b2200fa"
        )
