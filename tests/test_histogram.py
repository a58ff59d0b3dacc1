"""Unit and property tests for the adaptive histogram."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats.histogram import AdaptiveHistogram


class TestValidation:
    def test_bad_params_rejected(self):
        with pytest.raises(ValueError):
            AdaptiveHistogram(num_bins=1)
        with pytest.raises(ValueError):
            AdaptiveHistogram(calibration_size=1)
        with pytest.raises(ValueError):
            AdaptiveHistogram(overflow_rebin_fraction=0.0)
        with pytest.raises(ValueError):
            AdaptiveHistogram(range_margin=0.5)

    def test_nan_and_negative_samples_rejected(self):
        h = AdaptiveHistogram()
        with pytest.raises(ValueError):
            h.add(float("nan"))
        with pytest.raises(ValueError):
            h.add(-1.0)

    def test_empty_histogram_queries_rejected(self):
        h = AdaptiveHistogram()
        for fn in (h.mean, h.min, h.max, h.cdf_points):
            with pytest.raises(ValueError):
                fn()
        with pytest.raises(ValueError):
            h.quantile(0.5)


class TestCalibration:
    def test_calibrating_until_threshold(self):
        h = AdaptiveHistogram(calibration_size=10)
        for v in range(9):
            h.add(float(v + 1))
        assert h.calibrating
        h.add(10.0)
        assert not h.calibrating

    def test_bounds_derived_from_calibration(self):
        h = AdaptiveHistogram(calibration_size=10, range_margin=2.0)
        for v in range(10):
            h.add(10.0 + v)
        lo, hi = h.bounds
        assert lo == pytest.approx(10.0)
        assert hi == pytest.approx(19.0 * 2.0)

    def test_quantiles_exact_during_calibration(self):
        h = AdaptiveHistogram(calibration_size=100)
        data = list(range(50))
        h.extend(map(float, data))
        assert h.quantile(0.5) == pytest.approx(np.quantile(data, 0.5))


class TestAccuracy:
    def test_mean_exact_regardless_of_binning(self):
        h = AdaptiveHistogram(calibration_size=10)
        rng = np.random.default_rng(0)
        data = rng.exponential(100.0, size=5000)
        h.extend(data)
        assert h.mean() == pytest.approx(data.mean())

    def test_min_max_exact(self):
        h = AdaptiveHistogram(calibration_size=10)
        data = [5.0, 1.0, 9.0, 3.0] * 10
        h.extend(data)
        assert h.min() == 1.0
        assert h.max() == 9.0

    def test_quantiles_close_to_numpy(self):
        h = AdaptiveHistogram(num_bins=512, calibration_size=500)
        rng = np.random.default_rng(1)
        data = rng.lognormal(4.0, 0.8, size=20_000)
        h.extend(data)
        for q in (0.5, 0.9, 0.99):
            exact = np.quantile(data, q)
            assert h.quantile(q) == pytest.approx(exact, rel=0.05)

    @given(st.lists(st.floats(min_value=0.0, max_value=1e5), min_size=20, max_size=500))
    @settings(max_examples=50, deadline=None)
    def test_quantile_within_data_range(self, data):
        h = AdaptiveHistogram(num_bins=16, calibration_size=5)
        h.extend(data)
        for q in (0.0, 0.25, 0.5, 0.9, 1.0):
            v = h.quantile(q)
            # Binned estimates interpolate inside the covered range,
            # which never exceeds [min, margin * max].
            assert h.min() - 1e-6 <= v <= max(h.max(), h.bounds[1]) + 1e-6

    @given(
        st.lists(
            st.floats(min_value=0.1, max_value=1e4), min_size=100, max_size=1000
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_quantile_monotone_in_q(self, data):
        h = AdaptiveHistogram(num_bins=64, calibration_size=20)
        h.extend(data)
        qs = [0.1, 0.3, 0.5, 0.7, 0.9, 0.99]
        values = h.quantiles(qs)
        assert all(a <= b + 1e-9 for a, b in zip(values, values[1:]))

    def test_count_tracks_all_samples(self):
        h = AdaptiveHistogram(calibration_size=10)
        h.extend(float(i) for i in range(137))
        assert h.count == 137


class TestRebinning:
    def test_growing_latency_triggers_rebin(self):
        """The paper's scenario: latency climbs past the calibrated
        range at high utilization; a static histogram would clip, the
        adaptive one re-bins."""
        h = AdaptiveHistogram(
            num_bins=64, calibration_size=50, overflow_rebin_fraction=0.01
        )
        h.extend(float(v % 50 + 1) for v in range(50))  # calibrate on 1..50
        h.extend(float(v) for v in range(1000, 3000, 10))  # 20x the range
        assert h.rebin_events >= 1
        assert h.bounds[1] >= 2990.0

    def test_no_samples_lost_across_rebins(self):
        h = AdaptiveHistogram(num_bins=32, calibration_size=20)
        data = list(np.linspace(1, 10, 20)) + list(np.linspace(100, 5000, 300))
        h.extend(data)
        assert h.count == len(data)
        xs, ps = h.cdf_points()
        assert ps[-1] == pytest.approx(1.0)

    def test_tail_quantiles_survive_rebin(self):
        h = AdaptiveHistogram(num_bins=256, calibration_size=100)
        rng = np.random.default_rng(2)
        calm = rng.uniform(10, 50, size=100)
        spike = rng.uniform(1000, 2000, size=2000)
        data = np.concatenate([calm, spike])
        h.extend(data)
        assert h.quantile(0.99) == pytest.approx(np.quantile(data, 0.99), rel=0.1)

    def test_overflow_kept_raw_until_rebin(self):
        h = AdaptiveHistogram(
            num_bins=16, calibration_size=10, overflow_rebin_fraction=0.9
        )
        h.extend(float(i + 1) for i in range(10))
        h.add(1e6)  # way outside, but below the re-bin fraction
        assert h.rebin_events == 0
        assert h.quantile(1.0) == pytest.approx(1e6)


class TestCdfAndMerge:
    def test_cdf_points_monotone(self):
        h = AdaptiveHistogram(calibration_size=50)
        rng = np.random.default_rng(3)
        h.extend(rng.exponential(50, size=2000))
        xs, ps = h.cdf_points()
        assert (np.diff(xs) >= -1e9).all()
        assert (np.diff(ps) >= 0).all()
        assert 0 <= ps[0] <= ps[-1] == pytest.approx(1.0)

    def test_merge_preserves_total_count(self):
        a = AdaptiveHistogram(calibration_size=10)
        b = AdaptiveHistogram(calibration_size=10)
        a.extend(float(i) for i in range(100))
        b.extend(float(i) for i in range(50))
        merged = a.merge(b)
        assert merged.count == 150

    def test_merge_quantile_between_inputs(self):
        a = AdaptiveHistogram(calibration_size=10)
        b = AdaptiveHistogram(calibration_size=10)
        a.extend([10.0] * 100)
        b.extend([100.0] * 100)
        merged = a.merge(b)
        assert 10.0 <= merged.quantile(0.5) <= 100.0


class TestSerialization:
    def test_round_trip_preserves_queries(self):
        import json

        h = AdaptiveHistogram(num_bins=64, calibration_size=20)
        rng = np.random.default_rng(5)
        data = rng.lognormal(4.0, 1.0, size=3000)
        h.extend(data)
        # Through actual JSON, to prove serializability.
        restored = AdaptiveHistogram.from_state(json.loads(json.dumps(h.state())))
        assert restored.count == h.count
        assert restored.mean() == pytest.approx(h.mean())
        for q in (0.1, 0.5, 0.9, 0.99):
            assert restored.quantile(q) == pytest.approx(h.quantile(q))

    def test_round_trip_during_calibration(self):
        h = AdaptiveHistogram(calibration_size=100)
        h.extend([1.0, 5.0, 3.0])
        restored = AdaptiveHistogram.from_state(h.state())
        assert restored.calibrating
        assert restored.count == 3
        assert restored.quantile(0.5) == h.quantile(0.5)

    def test_restored_histogram_accepts_new_samples(self):
        h = AdaptiveHistogram(num_bins=32, calibration_size=10)
        h.extend(float(i + 1) for i in range(50))
        restored = AdaptiveHistogram.from_state(h.state())
        restored.add(25.0)
        assert restored.count == 51

    def test_empty_histogram_round_trip(self):
        h = AdaptiveHistogram()
        restored = AdaptiveHistogram.from_state(h.state())
        assert restored.count == 0
        assert restored.calibrating


class TestVectorizedQuantiles:
    """quantiles(qs) must equal [quantile(q) for q in qs] bit for bit —
    the batch path is a pure speedup, never a different estimator."""

    @staticmethod
    def _fill(h, rng, n):
        for x in rng.lognormal(4.0, 1.0, n).tolist():
            h.add(x)

    @pytest.mark.parametrize("n", [10, 200, 5000])
    def test_batch_equals_scalar(self, n):
        h = AdaptiveHistogram(num_bins=64, calibration_size=100)
        self._fill(h, np.random.default_rng(n), n)
        qs = [0.0, 0.001, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0]
        assert h.quantiles(qs) == [h.quantile(q) for q in qs]

    def test_batch_equals_scalar_with_overflow(self):
        h = AdaptiveHistogram(num_bins=32, calibration_size=50)
        self._fill(h, np.random.default_rng(0), 60)
        for x in (1e6, 2e6, 3e6):  # far past the calibrated range
            h.add(x)
        qs = np.linspace(0.0, 1.0, 101).tolist()
        assert h.quantiles(qs) == [h.quantile(q) for q in qs]

    def test_batch_equals_scalar_while_calibrating(self):
        h = AdaptiveHistogram(num_bins=32, calibration_size=1000)
        self._fill(h, np.random.default_rng(1), 100)
        qs = [0.1, 0.5, 0.99]
        assert h.quantiles(qs) == [h.quantile(q) for q in qs]

    @pytest.mark.parametrize("n", [1, 2, 7, 999])
    def test_dense_grid_while_calibrating(self, n):
        """The 2,000-point grid metric extraction queries."""
        h = AdaptiveHistogram(num_bins=32, calibration_size=1000)
        self._fill(h, np.random.default_rng(n), n)
        assert h.calibrating
        qs = [0.0] + np.linspace(0.0005, 0.9995, 2000).tolist() + [1.0]
        assert h.quantiles(qs) == [h.quantile(q) for q in qs]

    @given(
        raw=st.lists(
            st.one_of(
                st.floats(min_value=0.0, max_value=1e6),
                st.sampled_from([0.0, 1.0, 42.5]),  # ties
            ),
            min_size=1,
            max_size=200,
        ),
        qs=st.lists(
            st.one_of(
                st.floats(min_value=0.0, max_value=1.0),
                st.sampled_from([0.0, 1.0]),
            ),
            min_size=1,
            max_size=50,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_calibrating_batch_equals_scalar_property(self, raw, qs):
        h = AdaptiveHistogram(num_bins=16, calibration_size=1000)
        for x in raw:
            h.add(x)
        assert h.calibrating
        assert h.quantiles(qs) == [h.quantile(q) for q in qs]

    def test_record_many_equals_scalar_adds(self):
        rng = np.random.default_rng(2)
        data = rng.lognormal(4.0, 1.0, 3000)
        a = AdaptiveHistogram(num_bins=64, calibration_size=100)
        b = AdaptiveHistogram(num_bins=64, calibration_size=100)
        for x in data.tolist():
            a.add(x)
        b.record_many(data)
        qs = [0.01, 0.5, 0.95, 0.999]
        assert a.count == b.count
        assert a.quantiles(qs) == b.quantiles(qs)

    def test_nan_quantile_rejected(self):
        h = AdaptiveHistogram(num_bins=32, calibration_size=10)
        self._fill(h, np.random.default_rng(3), 50)
        with pytest.raises(ValueError):
            h.quantiles([0.5, float("nan")])
        with pytest.raises(ValueError):
            h.quantiles([-0.1])
