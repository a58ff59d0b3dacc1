"""Tests for the attribution pipeline (factorial sweep + QR)."""

import dataclasses

import numpy as np
import pytest

from repro.core.attribution import (
    TREADMILL_FACTORS,
    AttributionConfig,
    AttributionStudy,
    apply_factors,
)
from repro.sim.cpu import GOVERNOR_ONDEMAND, GOVERNOR_PERFORMANCE
from repro.sim.machine import HardwareSpec
from repro.sim.memory import POLICY_INTERLEAVE, POLICY_SAME_NODE
from repro.sim.nic import AFFINITY_ALL_NODES, AFFINITY_SAME_NODE
from repro.workloads.memcached import MemcachedWorkload


class TestApplyFactors:
    def test_all_low_is_paper_baseline(self):
        hw = apply_factors(HardwareSpec(), (0, 0, 0, 0))
        assert hw.numa.policy == POLICY_SAME_NODE
        assert not hw.cpu.turbo_enabled
        assert hw.cpu.governor == GOVERNOR_ONDEMAND
        assert hw.nic.affinity == AFFINITY_SAME_NODE

    def test_all_high(self):
        hw = apply_factors(HardwareSpec(), (1, 1, 1, 1))
        assert hw.numa.policy == POLICY_INTERLEAVE
        assert hw.cpu.turbo_enabled
        assert hw.cpu.governor == GOVERNOR_PERFORMANCE
        assert hw.nic.affinity == AFFINITY_ALL_NODES

    def test_base_not_mutated(self):
        base = HardwareSpec()
        apply_factors(base, (1, 1, 1, 1))
        assert base.numa.policy == POLICY_SAME_NODE
        assert not base.cpu.turbo_enabled

    def test_other_fields_preserved(self):
        base = dataclasses.replace(HardwareSpec(), boot_quality_sigma=0.123)
        hw = apply_factors(base, (1, 0, 1, 0))
        assert hw.boot_quality_sigma == 0.123

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            apply_factors(HardwareSpec(), (0, 1))

    def test_non_binary_rejected(self):
        with pytest.raises(ValueError):
            apply_factors(HardwareSpec(), (0, 1, 2, 0))

    def test_factor_table_matches_paper(self):
        names = [f.name for f in TREADMILL_FACTORS]
        assert names == ["numa", "turbo", "dvfs", "nic"]
        levels = {f.name: (f.low, f.high) for f in TREADMILL_FACTORS}
        assert levels["numa"] == (POLICY_SAME_NODE, POLICY_INTERLEAVE)
        assert levels["dvfs"] == (GOVERNOR_ONDEMAND, GOVERNOR_PERFORMANCE)


@pytest.fixture(scope="module")
def small_study_report():
    """A tiny but real factorial study shared by the assertions below."""
    config = AttributionConfig(
        workload=MemcachedWorkload(),
        target_utilization=0.6,
        replications=2,
        num_instances=2,
        measurement_samples_per_instance=700,
        warmup_samples=150,
        n_boot=25,
        taus=(0.5, 0.99),
        seed=13,
    )
    return AttributionStudy(config).analyze()


class TestStudy:
    def test_experiment_count(self, small_study_report):
        assert len(small_study_report.experiments) == 16 * 2

    def test_all_configs_covered(self, small_study_report):
        seen = {tuple(e.coded) for e in small_study_report.experiments}
        assert len(seen) == 16

    def test_fits_present_for_all_taus(self, small_study_report):
        assert set(small_study_report.fits) == {0.5, 0.99}
        assert set(small_study_report.pseudo_r2) == {0.5, 0.99}

    def test_inference_columns_filled(self, small_study_report):
        fit = small_study_report.fits[0.99]
        assert fit.stderr is not None
        assert fit.p_values is not None
        assert len(fit.columns) == 16

    def test_estimated_latency_is_coefficient_sum(self, small_study_report):
        """The paper's Table IV walk-through: a config's estimate is
        the intercept plus its qualified coefficients."""
        report = small_study_report
        fit = report.fits[0.5]
        coded = (1, 1, 0, 0)
        manual = (
            fit.coef("(Intercept)")
            + fit.coef("numa")
            + fit.coef("turbo")
            + fit.coef("numa:turbo")
        )
        assert report.estimated_latency(coded, 0.5) == pytest.approx(manual)

    def test_all_config_estimates_complete(self, small_study_report):
        estimates = small_study_report.all_config_estimates(0.99)
        assert len(estimates) == 16
        assert all(v > 0 for v in estimates.values())

    def test_factor_average_impact_consistent(self, small_study_report):
        report = small_study_report
        impact = report.factor_average_impact("numa", 0.99)
        est = report.all_config_estimates(0.99)
        manual = np.mean([v for c, v in est.items() if c[0] == 1]) - np.mean(
            [v for c, v in est.items() if c[0] == 0]
        )
        assert impact == pytest.approx(manual)

    def test_unknown_factor_rejected(self, small_study_report):
        with pytest.raises(KeyError):
            small_study_report.factor_average_impact("cache", 0.99)

    def test_best_config_minimizes_estimate(self, small_study_report):
        report = small_study_report
        best = report.best_config(0.99)
        estimates = report.all_config_estimates(0.99)
        assert estimates[best] == min(estimates.values())

    def test_table_rows_structure(self, small_study_report):
        rows = small_study_report.table_rows(0.99)
        assert len(rows) == 16
        assert rows[0]["term"] == "(Intercept)"
        for row in rows:
            assert set(row) == {"term", "estimate_us", "stderr_us", "p_value"}
            assert 0.0 <= row["p_value"] <= 1.0


class TestConfigValidation:
    def test_bad_utilization_rejected(self):
        with pytest.raises(ValueError):
            AttributionConfig(workload=MemcachedWorkload(), target_utilization=1.5)

    def test_zero_replications_rejected(self):
        with pytest.raises(ValueError):
            AttributionConfig(workload=MemcachedWorkload(), replications=0)

    @pytest.mark.parametrize("n_boot", [-1, 1])
    def test_bad_n_boot_rejected_at_construction(self, n_boot):
        with pytest.raises(ValueError, match="n_boot"):
            AttributionConfig(workload=MemcachedWorkload(), n_boot=n_boot)

    def test_zero_n_boot_accepted(self):
        assert AttributionConfig(workload=MemcachedWorkload(), n_boot=0).n_boot == 0


class TestFactorScreening:
    """Section IV-B: null-hypothesis screening of candidate factors."""

    def test_real_factors_screen_in(self, small_study_report):
        from repro.core.attribution import AttributionConfig, AttributionStudy
        from repro.workloads.memcached import MemcachedWorkload

        study = AttributionStudy(
            AttributionConfig(workload=MemcachedWorkload(), seed=13)
        )
        p_values = study.screen_factors(
            small_study_report.experiments, tau=0.95, n_perm=150
        )
        assert set(p_values) == {"numa", "turbo", "dvfs", "nic"}
        for p in p_values.values():
            assert 0.0 < p <= 1.0
        # At least one of the strong factors must screen in even on a
        # tiny study.
        assert min(p_values.values()) < 0.1
