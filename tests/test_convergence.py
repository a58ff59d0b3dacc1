"""Unit tests for convergence detection."""

import math

import numpy as np
import pytest

from repro.stats.convergence import MeanConvergence, RunningQuantileTracker


class TestRunningQuantileTracker:
    def test_trajectory_checkpoints(self):
        t = RunningQuantileTracker(0.5, checkpoint_every=10)
        t.extend(range(35))
        assert len(t.trajectory) == 3
        assert t.sample_counts == [10, 20, 30]

    def test_current_matches_numpy(self):
        t = RunningQuantileTracker(0.9, checkpoint_every=5)
        data = np.random.default_rng(0).exponential(10.0, size=100)
        t.extend(data)
        assert t.current() == pytest.approx(np.quantile(data, 0.9))

    def test_current_without_samples_rejected(self):
        with pytest.raises(ValueError):
            RunningQuantileTracker(0.5).current()

    def test_stationary_stream_stabilizes(self):
        rng = np.random.default_rng(1)
        t = RunningQuantileTracker(0.9, checkpoint_every=500)
        t.extend(rng.exponential(10.0, size=10_000))
        assert t.stable(window=5, rel_tol=0.05)

    def test_shifting_stream_not_stable(self):
        t = RunningQuantileTracker(0.9, checkpoint_every=100)
        rng = np.random.default_rng(2)
        # The distribution keeps drifting upward.
        for i in range(20):
            t.extend(rng.exponential(10.0 * (i + 1), size=100))
        assert not t.stable(window=5, rel_tol=0.05)

    def test_not_stable_before_window_filled(self):
        t = RunningQuantileTracker(0.5, checkpoint_every=10)
        t.extend(range(20))
        assert not t.stable(window=5)

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            RunningQuantileTracker(0.0)
        with pytest.raises(ValueError):
            RunningQuantileTracker(0.5, checkpoint_every=0)


class TestMeanConvergence:
    def test_not_converged_below_min_runs(self):
        rule = MeanConvergence(min_runs=4)
        for v in (100.0, 101.0, 99.0):
            rule.add(v)
        assert not rule.should_stop()

    def test_tight_runs_converge(self):
        rule = MeanConvergence(rel_tol=0.05, min_runs=3)
        for v in (100.0, 101.0, 99.5, 100.2):
            rule.add(v)
        assert rule.should_stop()

    def test_wild_runs_do_not_converge(self):
        rule = MeanConvergence(rel_tol=0.05, min_runs=3)
        for v in (100.0, 300.0, 50.0, 220.0):
            rule.add(v)
        assert not rule.should_stop()

    def test_max_runs_forces_stop(self):
        rule = MeanConvergence(rel_tol=0.001, min_runs=2, max_runs=5)
        for v in (1.0, 100.0, 1.0, 100.0, 1.0):
            rule.add(v)
        assert rule.should_stop()  # hit the cap despite high variance

    def test_half_width_infinite_with_one_run(self):
        rule = MeanConvergence()
        rule.add(10.0)
        assert math.isinf(rule.half_width())

    def test_half_width_zero_for_identical_runs(self):
        rule = MeanConvergence(min_runs=2)
        rule.add(5.0)
        rule.add(5.0)
        assert rule.half_width() == 0.0
        assert rule.should_stop()

    def test_mean(self):
        rule = MeanConvergence()
        rule.add(10.0)
        rule.add(20.0)
        assert rule.mean() == 15.0

    def test_nonfinite_metric_rejected(self):
        rule = MeanConvergence()
        with pytest.raises(ValueError):
            rule.add(float("nan"))

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            MeanConvergence(rel_tol=0.0)
        with pytest.raises(ValueError):
            MeanConvergence(min_runs=1)
        with pytest.raises(ValueError):
            MeanConvergence(min_runs=5, max_runs=3)
        with pytest.raises(ValueError):
            MeanConvergence(confidence=0.0)

    def test_empty_mean_rejected(self):
        with pytest.raises(ValueError):
            MeanConvergence().mean()
