"""Unit tests for QR inference: pseudo-R², bootstrap, screening."""

import hashlib

import numpy as np
import pytest
from scipy import stats as scipy_stats

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

    @pytest.mark.parametrize("n_boot", [-1, -25])
    def test_negative_n_boot_rejected(self, n_boot):
        exps = synthetic_experiments(EFFECTS, reps=2, seed=5)
        with pytest.raises(ValueError, match="n_boot"):
            fit_with_inference(exps, ["a", "b"], tau=0.5, n_boot=n_boot)

    def test_single_resample_rejected(self):
        """One resample has no spread: its standard error would be NaN."""
        exps = synthetic_experiments(EFFECTS, reps=2, seed=5)
        with pytest.raises(ValueError, match="n_boot"):
            fit_with_inference(exps, ["a", "b"], tau=0.5, n_boot=1)

    def test_two_resamples_give_finite_inference(self):
        exps = synthetic_experiments(EFFECTS, reps=2, seed=5)
        fit, _ = fit_with_inference(exps, ["a", "b"], tau=0.5, n_boot=2)
        assert np.isfinite(fit.stderr).all() and np.isfinite(fit.p_values).all()

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


def _pin_experiments(seed=11, reps=4):
    """A shuffled 2-factor set with unequal per-run sample counts, so
    bootstrap cells interleave and raw-response spans differ in length."""
    rng = np.random.default_rng(seed)
    design = FactorialDesign([Factor("a", "lo", "hi"), Factor("b", "lo", "hi")])
    exps = []
    for cfg in design.configs():
        base = 100.0 + 40.0 * cfg[0] - 10.0 * cfg[1] + 15.0 * cfg[0] * cfg[1]
        for _ in range(reps):
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

    def test_one_run_per_cell_is_pinned(self):
        """k = 1: every resample is the design itself, so only the
        perturbation draws differ between resamples."""
        fit, r2 = fit_with_inference(
            _pin_experiments(reps=1),
            ["a", "b"],
            0.9,
            n_boot=25,
            rng=np.random.default_rng(5),
        )
        assert fit.method == "saturated"
        assert _fit_digest(fit, r2) == (
            "258294966f3b98cb8d81455efe4b3c3a9d2e7393398ae5c8870ac2ba926d29da"
        )

    def test_screen_factor_p_values_are_pinned(self):
        exps = _pin_experiments(seed=12)
        rng = np.random.default_rng(3)
        p = [screen_factor(exps, i, 0.9, n_perm=150, rng=rng) for i in (0, 1)]
        assert p == [0.006622516556291391, 0.152317880794702]


def _reference_saturated(X, y, tau):
    """Saturated fit cell by cell: each cell's inverse-CDF tau-quantile,
    then one solve against the sorted distinct design rows."""
    cells, cell_of = np.unique(X, axis=0, return_inverse=True)
    cell_of = cell_of.ravel()
    cell_q = np.empty(cells.shape[0])
    for c in range(cells.shape[0]):
        v = np.sort(y[cell_of == c])
        cum = np.cumsum(np.ones(v.size))
        idx = int(np.searchsorted(cum, tau * cum[-1], side="left"))
        cell_q[c] = v[min(idx, v.size - 1)]
    return np.linalg.solve(cells, cell_q)


def _reference_fit_with_inference(exps, names, tau, fit_tau, n_boot, perturb_sd, rng):
    """The bootstrap as one fit per resample, drawing from ``rng`` in
    the documented order: main-fit perturbation, then per resample the
    per-cell index draws and one perturbation draw."""

    def fit(X, y):
        if perturb_sd > 0.0:
            y = y + rng.normal(0.0, perturb_sd, size=y.size)
        return _reference_saturated(X, y, fit_tau)

    X, y, _ = run_quantile_design(exps, names, tau)
    coef = fit(X, y)
    r2 = pseudo_r2(y, X @ coef, fit_tau)
    by_cell = {}
    for i, exp in enumerate(exps):
        by_cell.setdefault(tuple(exp.coded), []).append(i)
    cells = [np.array(members) for members in by_cell.values()]
    boots = np.empty((n_boot, coef.size))
    for b in range(n_boot):
        rows = np.concatenate(
            [m[rng.integers(0, m.size, size=m.size)] for m in cells]
        )
        boots[b] = fit(X[rows], y[rows])
    stderr = boots.std(axis=0, ddof=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(stderr > 0, coef / stderr, np.inf)
    return coef, stderr, 2.0 * scipy_stats.norm.sf(np.abs(z)), r2


def _factorial_experiments(runs_per_cell, seed=21):
    """A shuffled 2^4 set; ``runs_per_cell`` is one count for every cell
    or a sequence of counts cycled over the cells."""
    rng = np.random.default_rng(seed)
    design = FactorialDesign([Factor(n, "lo", "hi") for n in "abcd"])
    counts = np.resize(np.atleast_1d(runs_per_cell), 16)
    exps = []
    for cfg, reps in zip(design.configs(), counts):
        base = 100.0 + 30.0 * cfg[0] + 12.0 * cfg[1] * cfg[2] - 5.0 * cfg[3]
        for _ in range(int(reps)):
            exps.append(
                ExperimentSample(
                    coded=cfg,
                    samples=base + rng.normal(0, 2.0) + rng.exponential(8.0, 40),
                )
            )
    return [exps[i] for i in rng.permutation(len(exps))]


class TestBatchedBootstrapMatchesLoop:
    """The batched saturated bootstrap against the one-fit-per-resample
    loop: every number equal to the bit, and ``rng`` left in the same
    state, so a generator shared across quantiles stays in step."""

    @pytest.mark.parametrize("runs_per_cell", [1, 2, 3, 5, (1, 2, 3, 5)],
                             ids=["k1", "k2", "k3", "k5", "unequal"])
    @pytest.mark.parametrize("tau", [0.5, 0.9, 0.95, 0.99])
    @pytest.mark.parametrize("perturb_sd", [0.0, 0.01])
    @pytest.mark.parametrize("fit_at", ["median", "tau"])
    def test_bit_identical(self, runs_per_cell, tau, perturb_sd, fit_at):
        exps = _factorial_experiments(runs_per_cell)
        names = list("abcd")
        fit_tau = 0.5 if fit_at == "median" else tau
        rng_ref, rng = np.random.default_rng(9), np.random.default_rng(9)
        coef, stderr, p_values, r2_ref = _reference_fit_with_inference(
            exps, names, tau, fit_tau, 25, perturb_sd, rng_ref
        )
        fit, r2 = fit_with_inference(
            exps, names, tau, n_boot=25, perturb_sd=perturb_sd, rng=rng,
            fit_tau=fit_tau,
        )
        assert fit.method == "saturated"
        assert np.array_equal(fit.coefficients, coef)
        assert np.array_equal(fit.stderr, stderr)
        assert np.array_equal(fit.p_values, p_values)
        assert r2 == r2_ref
        assert rng.random() == rng_ref.random()


class TestGeneratorDrawContract:
    """The numpy ``Generator`` properties the bootstrap's fused index
    draws rely on; a numpy upgrade that breaks one fails here by name
    rather than by moving a golden digest."""

    @pytest.mark.parametrize("size", [1, 4, 16])
    def test_single_value_range_consumes_no_state(self, size):
        rng = np.random.default_rng(4)
        before = rng.bit_generator.state
        drawn = rng.integers(0, 1, size=size)
        assert np.array_equal(drawn, np.zeros(size, dtype=drawn.dtype))
        assert rng.bit_generator.state == before, (
            "integers(0, 1, size=k) advanced the bit generator"
        )

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    @pytest.mark.parametrize("calls", [1, 7, 16])
    def test_one_fused_call_equals_per_cell_calls(self, k, calls):
        fused_rng, split_rng = np.random.default_rng(8), np.random.default_rng(8)
        fused = fused_rng.integers(0, k, size=calls * k)
        split = np.concatenate(
            [split_rng.integers(0, k, size=k) for _ in range(calls)]
        )
        assert np.array_equal(fused, split), (
            f"integers(0, {k}, size={calls}*{k}) differs from {calls} calls of size {k}"
        )
        assert fused_rng.bit_generator.state == split_rng.bit_generator.state, (
            "fused and per-cell index draws left the generator in different states"
        )
