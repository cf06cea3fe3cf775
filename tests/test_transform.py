import numpy as np
import pytest

from mtqmle.exceptions import DegenerateWeights, NotPositiveDefinite
from mtqmle.regression import projected_mt_function
from mtqmle.samplers import stream_rng, synthesize_regression
from mtqmle.transform import (
    GaussianWeights,
    MTFunction,
    check_mt_condition,
    constant_mt_function,
    empirical_mt_moments,
    gaussian_mt_function,
    width_squared,
)

from conftest import (mt_function_from_callable, random_dataset,
                      sample_covariance, sample_mean)


class TestMTWeights:
    def test_constant_uniform(self, rng):
        x = random_dataset(rng, 8, 2)
        np.testing.assert_allclose(
            empirical_mt_moments(x, constant_mt_function()).weights,
            np.full(8, 1 / 8))

    def test_single_support_point(self, rng):
        x = random_dataset(rng, 5, 2)
        target = x[2]

        def fn(data):
            return (np.abs(data - target).sum(axis=1) < 1e-12).astype(float)

        w = empirical_mt_moments(x, mt_function_from_callable(fn)).weights
        expected = np.zeros(5)
        expected[2] = 1.0
        np.testing.assert_allclose(w, expected)

    def test_gaussian_matches_direct_evaluation(self, rng):
        x = random_dataset(rng, 40, 3)
        u = gaussian_mt_function(1.5)
        direct = np.exp(-np.sum(np.abs(x) ** 2, axis=1) / 1.5 ** 2)
        np.testing.assert_allclose(empirical_mt_moments(x, u).weights,
                                   direct / direct.sum(), rtol=1e-12)

    def test_annihilating_function_raises(self, rng):
        x = random_dataset(rng, 4, 2)
        zero = mt_function_from_callable(lambda data: np.zeros(data.shape[0]))
        with pytest.raises(DegenerateWeights, match="annihilates"):
            empirical_mt_moments(x, zero)

    def test_empty_dataset_raises(self):
        with pytest.raises(DegenerateWeights):
            empirical_mt_moments(np.zeros((0, 3), dtype=complex),
                                 gaussian_mt_function(1.0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nan_or_plus_inf_log_weight_raises(self, rng, bad):
        x = random_dataset(rng, 4, 2)
        u = MTFunction(lambda data: np.array([0.0, bad, -np.inf, 0.0]))
        with pytest.raises(ValueError, match=r"NaN or \+inf"):
            u.log_weights(x)

    def test_underflow_safe_normalization(self):
        # raw weights underflow float64; log-space normalization still works
        x = 60.0 * np.ones((3, 2), dtype=complex)
        x[0] *= 0.999
        w = empirical_mt_moments(x, gaussian_mt_function(1.0)).weights
        assert np.isfinite(w).all() and w.sum() == pytest.approx(1.0)
        assert w[0] > 0.99


class TestEmpiricalMoments:
    def test_constant_reduces_to_standard(self, rng):
        x = random_dataset(rng, 30, 4)
        u = constant_mt_function()
        moments = empirical_mt_moments(x, u)
        np.testing.assert_allclose(moments.mt_mean, sample_mean(x),
                                   rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(moments.mt_cov,
                                   sample_covariance(x), rtol=1e-12,
                                   atol=1e-14)

    def test_single_sample(self):
        x = np.array([[2.0 - 1.0j, 0.5j]])
        np.testing.assert_allclose(
            empirical_mt_moments(x, gaussian_mt_function(2.0)).mt_mean, x[0])

    def test_symmetric_data_mean_near_zero(self):
        rng = np.random.default_rng(7)
        x = random_dataset(rng, 10 ** 5, 2, scale=np.sqrt(0.5))
        mean = empirical_mt_moments(x, gaussian_mt_function(2.0)).mt_mean
        assert np.linalg.norm(mean) < 0.02

    def test_identical_samples_zero_cov(self):
        x = np.tile(np.array([1 + 2j, -1j]), (6, 1))
        cov = empirical_mt_moments(x, gaussian_mt_function(1.0)).mt_cov
        np.testing.assert_allclose(cov, np.zeros((2, 2)), atol=1e-14)

    def test_weighted_outer_product_oracle(self, rng):
        x = random_dataset(rng, 25, 3)
        u = gaussian_mt_function(2.5)
        phi = empirical_mt_moments(x, u).weights
        mean = (phi[:, None] * x).sum(axis=0)
        oracle = np.zeros((3, 3), dtype=complex)
        for w_n, x_n in zip(phi, x):
            d = x_n - mean
            oracle += w_n * np.outer(d, d.conj())
        np.testing.assert_allclose(empirical_mt_moments(x, u).mt_cov, oracle,
                                   rtol=1e-10, atol=1e-14)

    @pytest.mark.parametrize("seed", range(4))
    def test_cov_always_psd(self, seed):
        rng = np.random.default_rng(seed)
        x = random_dataset(rng, 15, 4, scale=3.0)
        cov = empirical_mt_moments(x, gaussian_mt_function(1.0)).mt_cov
        assert np.linalg.eigvalsh(cov).min() >= -1e-10 * np.trace(cov).real

    def test_scale_invariance(self, rng):
        x = random_dataset(rng, 20, 3)
        u = gaussian_mt_function(2.0)
        scaled = MTFunction(lambda d: u.log_weights(d) + np.log(37.0))
        m1 = empirical_mt_moments(x, u)
        m2 = empirical_mt_moments(x, scaled)
        np.testing.assert_allclose(m1.weights, m2.weights, rtol=1e-14)
        np.testing.assert_allclose(m1.mt_mean, m2.mt_mean, rtol=1e-14)
        np.testing.assert_allclose(m1.mt_cov, m2.mt_cov, rtol=1e-14)


    def test_empty_dataset_raises(self):
        for u in (constant_mt_function(), gaussian_mt_function(2.0)):
            with pytest.raises(DegenerateWeights):
                empirical_mt_moments(np.zeros((0, 3), dtype=complex), u)

    def test_overflowing_covariance_raises(self, rng):
        x = 1e200 * random_dataset(rng, 20, 3)
        with pytest.raises(NotPositiveDefinite, match="not finite"):
            empirical_mt_moments(x, constant_mt_function())


class TestGaussianMTFunction:
    def test_value_at_origin(self):
        for width in (0.5, 3.0, 100.0):
            u = gaussian_mt_function(width)
            assert u.weights(np.zeros((1, 4), dtype=complex))[0] == 1.0

    def test_wide_limit_is_constant(self, rng):
        u = gaussian_mt_function(1e6)
        x = random_dataset(rng, 50, 3)
        x *= 10.0 / np.abs(x).max()
        assert np.max(np.abs(u.weights(x) - 1.0)) < 1e-9

    def test_projected_invariance_to_range_shifts(self, rng, reg_gaussian):
        u = projected_mt_function(reg_gaussian, 2.0)
        x = random_dataset(rng, 10, reg_gaussian.p)
        shift = reg_gaussian.a_matrix @ (rng.standard_normal(2) + 1j * rng.standard_normal(2))
        np.testing.assert_allclose(u.weights(x), u.weights(x + shift),
                                   rtol=1e-9)

    def test_invalid_width(self, reg_gaussian):
        for width in (0.0, -1.0, 1e160, 1e-170):
            with pytest.raises(ValueError):
                gaussian_mt_function(width)
        for width in (1e160, 1e-170):
            with pytest.raises(ValueError):
                projected_mt_function(reg_gaussian, width)
            with pytest.raises(ValueError, match="omega"):
                GaussianWeights(np.ones((3, 1), complex)).log_weights(width)

    def test_width_outside_the_float_range(self):
        """An integer too large for a float gets the width error, not an
        OverflowError from formatting it; a finite width keeps its text."""
        for width in (10 ** 400, -10 ** 400):
            with pytest.raises(ValueError, match="omega must be > 0"):
                width_squared(width)
            with pytest.raises(ValueError, match="omega must be > 0"):
                gaussian_mt_function(width)
        with pytest.raises(ValueError, match=r"got 1e\+160$"):
            width_squared(1e160)


class TestCheckMTCondition:
    def test_constant_ess_equals_n(self, rng):
        x = random_dataset(rng, 100, 2)
        diag = check_mt_condition(x, constant_mt_function())
        assert diag.ess == pytest.approx(100.0)
        assert not diag.degenerate and not diag.warnings

    def test_single_dominant_weight(self, rng):
        x = random_dataset(rng, 20, 2)
        x[5] *= 1e-6  # essentially at the origin, tiny width keeps only it

        u = gaussian_mt_function(0.05)
        diag = check_mt_condition(x, u)
        assert diag.ess == pytest.approx(1.0, abs=1e-3)
        assert any("effective sample size" in w for w in diag.warnings)

    def test_ess_matches_direct_formula(self):
        rng = np.random.default_rng(11)
        x = random_dataset(rng, 1000, 2, scale=np.sqrt(0.5))
        u = gaussian_mt_function(2.0)
        diag = check_mt_condition(x, u)
        phi = empirical_mt_moments(x, u).weights
        assert diag.ess == pytest.approx(1.0 / np.sum(phi ** 2), rel=1e-12)

    def test_ess_is_the_width_rules_arithmetic(self):
        """The diagnostic reads the ESS exactly as select_by_trace's floor
        does; 1 / np.sum(phi ** 2) differs from it in the last bit on some
        of these datasets."""
        u = gaussian_mt_function(1.4)
        for seed in range(10):
            x = random_dataset(np.random.default_rng(seed), 50, 2)
            phi = empirical_mt_moments(x, u).weights
            assert check_mt_condition(x, u).ess == 1.0 / (phi @ phi), seed

    def test_degenerate_reported_not_raised(self, rng):
        x = random_dataset(rng, 4, 2)
        zero = mt_function_from_callable(lambda d: np.zeros(d.shape[0]))
        diag = check_mt_condition(x, zero)
        assert diag.degenerate and diag.ess == 0.0

    def test_empty_dataset_reported_not_raised(self):
        diag = check_mt_condition(np.zeros((0, 3), dtype=complex),
                                  gaussian_mt_function(1.0))
        assert diag.degenerate and diag.ess == 0.0
        assert diag.warnings == ["empty dataset"]


def test_mt_mean_consistency_rate(reg_gaussian, alpha0):
    """Error of the reweighted mean vs the model mean shrinks like n^-1/2."""
    u = projected_mt_function(reg_gaussian, 2.0)
    target = reg_gaussian.a_matrix @ alpha0
    sizes = [10 ** 3, 10 ** 4, 10 ** 5]
    errs = []
    for i, n in enumerate(sizes):
        reps = []
        for rep in range(12):
            rng = stream_rng(9000 + rep, i)
            x = synthesize_regression(reg_gaussian.a_matrix, alpha0,
                                      reg_gaussian.noise, n, rng)
            mean = empirical_mt_moments(x, u).mt_mean
            reps.append(np.linalg.norm(mean - target))
        errs.append(np.mean(reps))
    assert errs[0] > errs[1] > errs[2]
    slope = np.polyfit(np.log(sizes), np.log(errs), 1)[0]
    assert slope == pytest.approx(-0.5, abs=0.15)
