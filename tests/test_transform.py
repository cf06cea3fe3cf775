import numpy as np
import pytest

from mtqmle.core import sample_covariance, sample_mean
from mtqmle.exceptions import DegenerateWeights, NotPositiveDefinite
from mtqmle.regression import projected_mt_function
from mtqmle.samplers import stream_rng, synthesize_regression
from mtqmle.transform import (
    MTFunction,
    check_mt_condition,
    constant_mt_function,
    empirical_mt_moments,
    gaussian_log_weights,
    gaussian_mt_function,
    mt_weights,
)

from conftest import random_dataset


class TestMTWeights:
    def test_constant_uniform(self, rng):
        x = random_dataset(rng, 8, 2)
        np.testing.assert_allclose(mt_weights(x, constant_mt_function()),
                                   np.full(8, 1 / 8))

    def test_single_support_point(self, rng):
        x = random_dataset(rng, 5, 2)
        target = x[2]

        def fn(data):
            return (np.abs(data - target).sum(axis=1) < 1e-12).astype(float)

        w = mt_weights(x, MTFunction.from_callable(fn))
        expected = np.zeros(5)
        expected[2] = 1.0
        np.testing.assert_allclose(w, expected)

    def test_gaussian_matches_direct_evaluation(self, rng):
        x = random_dataset(rng, 40, 3)
        u = gaussian_mt_function(1.5)
        direct = np.exp(-np.sum(np.abs(x) ** 2, axis=1) / 1.5 ** 2)
        np.testing.assert_allclose(mt_weights(x, u), direct / direct.sum(),
                                   rtol=1e-12)

    def test_annihilating_function_raises(self, rng):
        x = random_dataset(rng, 4, 2)
        zero = MTFunction.from_callable(lambda data: np.zeros(data.shape[0]))
        with pytest.raises(DegenerateWeights, match="annihilates"):
            mt_weights(x, zero)

    def test_empty_dataset_raises(self):
        with pytest.raises(DegenerateWeights):
            mt_weights(np.zeros((0, 3), dtype=complex),
                       gaussian_mt_function(1.0))

    def test_underflow_safe_normalization(self):
        # raw weights underflow float64; log-space normalization still works
        x = 60.0 * np.ones((3, 2), dtype=complex)
        x[0] *= 0.999
        w = mt_weights(x, gaussian_mt_function(1.0))
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
        phi = mt_weights(x, u)
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
                gaussian_log_weights(np.ones(3), width)


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
        phi = mt_weights(x, u)
        assert diag.ess == pytest.approx(1.0 / np.sum(phi ** 2), rel=1e-12)

    def test_degenerate_reported_not_raised(self, rng):
        x = random_dataset(rng, 4, 2)
        zero = MTFunction.from_callable(lambda d: np.zeros(d.shape[0]))
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
