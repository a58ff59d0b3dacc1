"""Unit tests for QR inference: pseudo-R², bootstrap, screening."""

import hashlib

import numpy as np
import pytest

from repro.stats.design import Factor, FactorialDesign
from repro.stats.inference import (
    ExperimentSample,
    expand_design,
    fit_with_inference,
    pseudo_r2,
    run_quantile_design,
    screen_factor,
)


def synthetic_experiments(effects, reps=8, samples=300, noise=5.0, seed=0):
    """2-factor factorial experiments with known cell medians."""
    rng = np.random.default_rng(seed)
    design = FactorialDesign([Factor("a", "lo", "hi"), Factor("b", "lo", "hi")])
    exps = []
    for cfg in design.configs():
        base = effects[cfg]
        for _ in range(reps):
            run_shift = rng.normal(0, noise * 0.2)  # hysteresis-like
            exps.append(
                ExperimentSample(
                    coded=cfg,
                    samples=base + run_shift + rng.exponential(noise, size=samples),
                )
            )
    return exps


EFFECTS = {(0, 0): 100.0, (1, 0): 150.0, (0, 1): 90.0, (1, 1): 160.0}


class TestExperimentSample:
    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError):
            ExperimentSample(coded=(0,), samples=np.array([]))

    def test_samples_coerced_to_float_array(self):
        exp = ExperimentSample(coded=(1,), samples=[1, 2, 3])
        assert exp.samples.dtype == float


class TestDesignExpansion:
    def test_expand_repeats_rows_per_sample(self):
        exps = [
            ExperimentSample(coded=(0, 1), samples=[1.0, 2.0, 3.0]),
            ExperimentSample(coded=(1, 0), samples=[4.0]),
        ]
        X, y, cols = expand_design(exps, ["a", "b"])
        assert X.shape[0] == 4
        assert y.tolist() == [1.0, 2.0, 3.0, 4.0]

    def test_run_quantile_design_one_row_per_experiment(self):
        exps = synthetic_experiments(EFFECTS, reps=3)
        X, y, cols = run_quantile_design(exps, ["a", "b"], tau=0.9)
        assert X.shape[0] == len(exps)
        assert y.shape == (len(exps),)

    def test_run_quantile_response_is_experiment_quantile(self):
        exp = ExperimentSample(coded=(0, 0), samples=np.arange(101.0))
        _, y, _ = run_quantile_design([exp], ["a", "b"], tau=0.5)
        assert y[0] == pytest.approx(50.0)

    def test_empty_experiments_rejected(self):
        with pytest.raises(ValueError):
            expand_design([], ["a"])
        with pytest.raises(ValueError):
            run_quantile_design([], ["a"], 0.5)


class TestPseudoR2:
    def test_perfect_model_scores_one(self):
        y = np.array([1.0, 2.0, 3.0, 4.0])
        assert pseudo_r2(y, y, 0.9) == 1.0

    def test_constant_model_scores_zero(self):
        rng = np.random.default_rng(0)
        y = rng.exponential(10.0, size=1000)
        const = np.full_like(y, np.quantile(y, 0.9))
        assert pseudo_r2(y, const, 0.9) == pytest.approx(0.0, abs=1e-6)

    def test_informative_model_beats_constant(self):
        rng = np.random.default_rng(1)
        x = rng.integers(0, 2, size=2000)
        y = 100.0 * x + rng.normal(0, 1, size=2000)
        pred = 100.0 * x
        assert pseudo_r2(y, pred, 0.5) > 0.9

    def test_worse_than_constant_clamped_to_zero(self):
        y = np.array([1.0, 2.0, 3.0])
        terrible = np.array([100.0, -100.0, 100.0])
        assert pseudo_r2(y, terrible, 0.5) == 0.0

    def test_degenerate_y(self):
        y = np.full(10, 5.0)
        assert pseudo_r2(y, y, 0.5) == 1.0
        assert pseudo_r2(y, y + 1.0, 0.5) == 0.0


class TestFitWithInference:
    def test_recovers_effects_with_inference(self):
        exps = synthetic_experiments(EFFECTS, reps=10, seed=2)
        fit, r2 = fit_with_inference(exps, ["a", "b"], tau=0.5, n_boot=80)
        # Median of cell (0,0) samples: base + exp median.
        assert fit.coef("a") == pytest.approx(50.0, abs=8.0)
        assert fit.coef("b") == pytest.approx(-10.0, abs=8.0)
        assert fit.stderr is not None and fit.p_values is not None
        assert len(fit.stderr) == len(fit.columns)

    def test_strong_effects_significant_weak_not(self):
        exps = synthetic_experiments(EFFECTS, reps=12, seed=3)
        fit, _ = fit_with_inference(exps, ["a", "b"], tau=0.5, n_boot=100)
        p = dict(zip(fit.columns, fit.p_values))
        assert p["a"] < 0.05  # +50 us effect
        assert p["a"] < p["a:b"] or p["a:b"] > 0.01

    def test_run_quantile_r2_exceeds_raw_r2(self):
        """The paper-style run-quantile response design filters the
        irreducible per-request noise, so its R² is higher."""
        exps = synthetic_experiments(EFFECTS, reps=8, seed=4)
        _, r2_runq = fit_with_inference(
            exps, ["a", "b"], tau=0.9, n_boot=0, response="run_quantile"
        )
        _, r2_raw = fit_with_inference(
            exps, ["a", "b"], tau=0.9, n_boot=0, response="raw"
        )
        assert r2_runq > r2_raw

    def test_zero_boot_skips_inference(self):
        exps = synthetic_experiments(EFFECTS, reps=3, seed=5)
        fit, _ = fit_with_inference(exps, ["a", "b"], tau=0.5, n_boot=0)
        assert fit.stderr is None and fit.p_values is None

    def test_unknown_response_rejected(self):
        exps = synthetic_experiments(EFFECTS, reps=2, seed=6)
        with pytest.raises(ValueError):
            fit_with_inference(exps, ["a", "b"], tau=0.5, response="magic")

    def test_reproducible_with_rng(self):
        exps = synthetic_experiments(EFFECTS, reps=4, seed=7)
        a, _ = fit_with_inference(
            exps, ["a", "b"], 0.9, n_boot=30, rng=np.random.default_rng(1)
        )
        b, _ = fit_with_inference(
            exps, ["a", "b"], 0.9, n_boot=30, rng=np.random.default_rng(1)
        )
        assert np.array_equal(a.stderr, b.stderr)


class TestScreenFactor:
    def test_real_effect_detected(self):
        exps = synthetic_experiments(EFFECTS, reps=10, seed=8)
        p = screen_factor(exps, factor_index=0, tau=0.5, n_perm=200)
        assert p < 0.05

    def test_null_factor_not_detected(self):
        null_effects = {(0, 0): 100.0, (1, 0): 100.0, (0, 1): 100.0, (1, 1): 100.0}
        exps = synthetic_experiments(null_effects, reps=10, seed=9)
        p = screen_factor(exps, factor_index=0, tau=0.5, n_perm=200)
        assert p > 0.05

    def test_single_level_rejected(self):
        exps = [ExperimentSample(coded=(0, 0), samples=[1.0, 2.0])] * 3
        with pytest.raises(ValueError):
            screen_factor(exps, factor_index=0, tau=0.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            screen_factor([], 0, 0.5)


def _pin_experiments(seed=11):
    """A shuffled 2-factor set with unequal per-run sample counts, so
    bootstrap cells interleave and raw-response spans differ in length."""
    rng = np.random.default_rng(seed)
    design = FactorialDesign([Factor("a", "lo", "hi"), Factor("b", "lo", "hi")])
    exps = []
    for cfg in design.configs():
        base = 100.0 + 40.0 * cfg[0] - 10.0 * cfg[1] + 15.0 * cfg[0] * cfg[1]
        for _ in range(4):
            n = int(rng.integers(20, 60))
            exps.append(
                ExperimentSample(
                    coded=cfg,
                    samples=base + rng.normal(0, 1.0) + rng.exponential(5.0, n),
                )
            )
    return [exps[i] for i in rng.permutation(len(exps))]


def _fit_digest(fit, r2):
    h = hashlib.sha256()
    for arr in (fit.coefficients, fit.stderr, fit.p_values):
        h.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
    h.update(np.float64(r2).tobytes())
    return h.hexdigest()


class TestInferencePins:
    """Exact pins of the bootstrap's numbers: how resamples are built
    (row indices into one design vs rebuilt designs) must never change
    a coefficient, standard error, p-value or pseudo-R² bit."""

    @pytest.mark.parametrize(
        "response,max_order,method,digest",
        [
            ("run_quantile", None, "saturated",
             "14b14df2a5fe74d7c7eda697829d9ed7dfb8e3d4b2539f0e70989c92ffd7ae38"),
            ("raw", None, "saturated",
             "a08975cbfb84db4d16f39819f51f55eaaecde1184b8fef345370c1f26b11f042"),
            ("run_quantile", 1, "lp",
             "5a892420d5ec093cc0fd797e5dd90ba63e6eeec906e1bef3793a5fdb48c3c16a"),
            ("raw", 1, "lp",
             "0783ab5ce7d07c8dca29de330b119197d02656c7688ada2fbeb8544ce1a0350a"),
        ],
    )
    def test_fit_with_inference_is_pinned(self, response, max_order, method, digest):
        exps = _pin_experiments()
        fit, r2 = fit_with_inference(
            exps,
            ["a", "b"],
            0.9,
            max_order=max_order,
            n_boot=25,
            rng=np.random.default_rng(5),
            response=response,
        )
        assert fit.method == method
        assert _fit_digest(fit, r2) == digest

    def test_screen_factor_p_values_are_pinned(self):
        exps = _pin_experiments(seed=12)
        rng = np.random.default_rng(3)
        p = [screen_factor(exps, i, 0.9, n_perm=150, rng=rng) for i in (0, 1)]
        assert p == [0.006622516556291391, 0.152317880794702]
