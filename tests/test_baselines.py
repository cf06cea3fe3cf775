import numpy as np
import pytest
from scipy import special, stats

from mtqmle import baselines
from mtqmle.baselines import (
    GAMMA_ERFINV,
    GAMMA_NORMAL_QUARTILE,
    _residual_density,
    are_tukey,
    mad_scale,
    median_location,
    mle_t_noise,
    tukey_m_estimator,
    tukey_weights,
    tune_c_for_are,
)
from mtqmle.exceptions import DegenerateWeights, MTQMLEError
from mtqmle.regression import gqmle_regression, realify, unrealify
from mtqmle.samplers import stream_rng, synthesize_regression

from conftest import THETA0_REG, oracle_are_tukey, oracle_tune_c_for_are


def make_data(model, n, seed, theta0=THETA0_REG):
    return synthesize_regression(model.a_matrix, unrealify(theta0),
                                 model.noise, n, stream_rng(seed, 0))


def oracle_location(x):
    """median_location as np.median computes it: the exactness oracle."""
    return np.median(x.real, axis=0) + 1j * np.median(x.imag, axis=0)


def oracle_scale(x, gamma=GAMMA_ERFINV):
    """mad_scale as np.median computes it: the exactness oracle."""
    def mad(values):
        return np.median(np.abs(values - np.median(values, axis=0)), axis=0)
    per_coord = gamma ** 2 * (mad(x.real) ** 2 + mad(x.imag) ** 2)
    return float(np.sqrt(per_coord.mean()))


def exactness_cases(n, p, seed):
    """Data with ties (rounded to 0.1) and a constant column, signed zeros
    at the median rank, and constant data, each in C, Fortran,
    column-sliced and row-strided layouts."""
    rng = np.random.default_rng(seed)
    rounded = np.round(rng.standard_normal((n, 2 * p))
                       + 1j * rng.standard_normal((n, 2 * p)), 1)
    rounded[:, 0] = 0.3 - 0.7j
    zeros = np.empty((n, 2 * p), dtype=complex)
    for part in (zeros.real, zeros.imag):
        part[...] = rng.choice([-0.0, 0.0, -0.1, 0.1, -0.2, 0.2],
                               size=(n, 2 * p),
                               p=[0.2, 0.2, 0.15, 0.15, 0.15, 0.15])
    for x in (rounded, zeros, np.full((n, 2 * p), complex(-0.0, 0.5))):
        yield x[:, :p]
        yield np.asfortranarray(x[:, :p])
        yield x[:, ::2]
        yield x[::2, :p] if n > 1 else x[:, :p]


class TestMedianLocation:
    def test_single_sample(self):
        x = np.array([[1.0 - 2.0j, 3.0j]])
        np.testing.assert_allclose(median_location(x), x[0])

    def test_outlier_resistant(self):
        x = np.array([1.0, 2.0, 100.0]).astype(complex)[:, None]
        assert median_location(x)[0] == pytest.approx(2.0)

    def test_contaminated_gaussian(self):
        rng = stream_rng(80, 0)
        n = 10 ** 4
        loc = np.array([1.0 + 1.0j, -0.5j])
        x = loc[None, :] + (rng.standard_normal((n, 2))
                            + 1j * rng.standard_normal((n, 2))) / np.sqrt(2)
        # symmetric 10% contamination at +/- 50
        flip = rng.integers(0, 2, n // 10) * 2 - 1
        x[:n // 10] += 50.0 * flip[:, None]
        assert np.linalg.norm(median_location(x) - loc) < 0.05

    def test_empty(self):
        with pytest.raises(ValueError):
            median_location(np.empty((0, 2), dtype=complex))


class TestMADScale:
    def test_gamma_cancellation(self):
        a = special.erfinv(0.75)
        x = np.array([a + 1j * a, 0.0 + 0.0j, -a - 1j * a])[:, None]
        assert mad_scale(x) == pytest.approx(np.sqrt(2.0), rel=1e-12)

    def test_scale_equivariance(self, rng):
        x = rng.standard_normal((200, 3)) + 1j * rng.standard_normal((200, 3))
        assert mad_scale(3.7 * x) == pytest.approx(3.7 * mad_scale(x),
                                                   rel=1e-12)

    def test_population_functional_oracle(self):
        # per-component std 1/sqrt(2): unit total complex variance
        rng = stream_rng(81, 0)
        n = 10 ** 5
        x = (rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
             ) / np.sqrt(2)
        got = mad_scale(x)
        # 10^7-draw oracle for the population MAD of a component
        big = stream_rng(82, 0).standard_normal(10 ** 7) / np.sqrt(2)
        mad_pop = np.median(np.abs(big - np.median(big)))
        target = np.sqrt(GAMMA_ERFINV ** 2 * 2 * mad_pop ** 2)
        assert got == pytest.approx(target, rel=0.01)

    def test_conventional_constant_is_consistent(self):
        rng = stream_rng(83, 0)
        n = 2 * 10 ** 5
        x = (rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
             ) / np.sqrt(2)
        got = mad_scale(x, gamma=GAMMA_NORMAL_QUARTILE)
        assert got == pytest.approx(1.0, rel=0.02)  # estimates sigma_z = 1

    def test_degenerate(self):
        x = np.ones((5, 2), dtype=complex)
        with pytest.raises(ValueError, match="degenerate scale"):
            mad_scale(x)


class TestExactMedians:
    """The single-rank selection equals np.median bit for bit."""

    @pytest.mark.parametrize("p", [1, 2, 10])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 199, 200, 1000])
    def test_equals_np_median(self, n, p):
        for seed in range(5):
            for x in exactness_cases(n, p, 90 + seed):
                got = median_location(x)
                want = oracle_location(x)
                assert np.array_equal(got, want)
                for part in (np.real, np.imag):
                    assert np.array_equal(np.signbit(part(got)),
                                          np.signbit(part(want)))
                if x.shape[0] < 2:
                    continue
                if oracle_scale(x) == 0.0:
                    with pytest.raises(ValueError, match="degenerate scale"):
                        mad_scale(x)
                    continue
                assert mad_scale(x) == oracle_scale(x)
                assert mad_scale(x, gamma=GAMMA_NORMAL_QUARTILE) == \
                    oracle_scale(x, gamma=GAMMA_NORMAL_QUARTILE)

    def test_input_left_unchanged(self):
        x = np.round(stream_rng(91, 0).standard_normal((41, 3)), 1) + 2.0j
        before = x.copy()
        median_location(x)
        mad_scale(x)
        assert np.array_equal(x, before)

    @pytest.mark.parametrize("n", [999, 1000])
    def test_fixed_points_match_oracle_start(self, reg_t, n):
        """Both fixed points return what they return when started from
        the np.median location and scale."""
        for seed in (92, 93, 94):
            x = make_data(reg_t, n, seed)
            sigma = oracle_scale(x)
            for got, weight_fn in (
                    (tukey_m_estimator(x, reg_t, c=6.2),
                     lambda r: tukey_weights(r / sigma, 6.2)),
                    (mle_t_noise(x, reg_t, lam=0.2),
                     lambda r: 1.0 / (1.0 + 2.0 * r ** 2
                                      / (0.2 * reg_t.sigma2_z)))):
                want = baselines._fixed_point(x, reg_t, oracle_location(x),
                                              weight_fn)
                assert np.array_equal(got.theta, want.theta)
                assert got.n_iter == want.n_iter
                assert got.converged == want.converged


class TestTukeyWeights:
    def test_cutoff_exact_zero(self):
        w = tukey_weights(np.array([0.0, 1.0, 5.0, 5.001, 100.0]), 5.0)
        assert w[0] == 1.0
        assert w[3] == 0.0 and w[4] == 0.0
        assert w[2] == 0.0  # boundary value (1 - 1)^2

    def test_interior_formula(self):
        r, c = 2.0, 5.0
        assert tukey_weights(np.array([r]), c)[0] == pytest.approx(
            (1 - (r / c) ** 2) ** 2)


class TestTukeyEstimator:
    def test_noiseless_one_iteration(self, reg_gaussian, alpha0):
        x = np.tile(reg_gaussian.a_matrix @ alpha0, (24, 1))
        x += 1e-12 * (np.arange(24)[:, None] - 11.5)  # MAD stays positive
        res = tukey_m_estimator(x, reg_gaussian, c=6.2)
        np.testing.assert_allclose(res.theta, THETA0_REG, atol=1e-9)
        assert res.converged

    def test_gaussian_efficiency_vs_least_squares(self, reg_gaussian):
        """With a consistent scale the bi-square fit pays about 1/ARE in MSE."""
        c = tune_c_for_are(0.95, 10)
        trials = 400
        n = 300
        mse_tukey = 0.0
        mse_ls = 0.0
        for t in range(trials):
            x = make_data(reg_gaussian, n, 2000 + t)
            res = tukey_m_estimator(x, reg_gaussian, c,
                                    gamma=GAMMA_NORMAL_QUARTILE)
            mse_tukey += np.sum((res.theta - THETA0_REG) ** 2) / trials
            ls = gqmle_regression(x, reg_gaussian)
            mse_ls += np.sum((ls - THETA0_REG) ** 2) / trials
        assert mse_tukey == pytest.approx(mse_ls / 0.95, rel=0.10)

    def test_translation_equivariance(self, reg_t, rng):
        x = make_data(reg_t, 400, 84)
        delta = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        base = tukey_m_estimator(x, reg_t, c=6.2).theta
        shifted = tukey_m_estimator(x + reg_t.a_matrix @ delta, reg_t,
                                    c=6.2).theta
        np.testing.assert_allclose(shifted, base + realify(delta), atol=1e-8)

    def test_all_samples_rejected(self, reg_gaussian, alpha0):
        """Every fixed-point weight vanished: DegenerateWeights' own case."""
        x = make_data(reg_gaussian, 50, 85)
        with pytest.raises(DegenerateWeights, match="all samples rejected"):
            tukey_m_estimator(x, reg_gaussian, c=1e-9)

    def test_one_sample_is_a_package_error(self, reg_gaussian):
        x = make_data(reg_gaussian, 1, 85)
        with pytest.raises(MTQMLEError, match="at least 2 samples"):
            tukey_m_estimator(x, reg_gaussian, c=6.2)

    def test_constant_data_is_a_package_error(self, reg_gaussian, alpha0):
        x = np.tile(reg_gaussian.a_matrix @ alpha0, (24, 1))
        with pytest.raises(MTQMLEError, match="degenerate scale"):
            tukey_m_estimator(x, reg_gaussian, c=6.2)

    def test_nonconvergence_flagged(self, reg_t, monkeypatch):
        x = make_data(reg_t, 400, 86)
        monkeypatch.setattr(baselines, "_MAX_ITER", 1)
        res = tukey_m_estimator(x, reg_t, c=6.2)
        assert not res.converged and res.n_iter == 1


class TestTMLE:
    def test_noiseless(self, reg_gaussian, alpha0):
        x = np.tile(reg_gaussian.a_matrix @ alpha0, (30, 1))
        res = mle_t_noise(x, reg_gaussian, lam=0.2)
        np.testing.assert_allclose(res.theta, THETA0_REG, atol=1e-10)

    def test_zero_data_stops_at_zero_step(self, reg_gaussian):
        """From a zero start on all-zero data the first step is zero too."""
        res = mle_t_noise(np.zeros((20, 10), dtype=complex), reg_gaussian,
                          lam=0.2)
        assert np.array_equal(res.theta, np.zeros(4))
        assert res.converged and res.n_iter == 1

    def test_large_dof_limit_is_least_squares(self, reg_gaussian):
        x = make_data(reg_gaussian, 300, 87)
        res = mle_t_noise(x, reg_gaussian, lam=1e6)
        ls = gqmle_regression(x, reg_gaussian)
        assert np.max(np.abs(res.theta - ls)) < 1e-6

    def test_translation_equivariance(self, reg_t, rng):
        x = make_data(reg_t, 300, 88)
        delta = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        base = mle_t_noise(x, reg_t, lam=0.2).theta
        shifted = mle_t_noise(x + reg_t.a_matrix @ delta, reg_t, lam=0.2).theta
        np.testing.assert_allclose(shifted, base + realify(delta), atol=1e-8)

    def test_heavy_tail_ordering(self, reg_t):
        """Under extreme-tailed noise the likelihood fit dominates both the
        sample-mean path and the bi-square fit."""
        trials = 60
        n = 500
        mse = {"ls": 0.0, "tukey": 0.0, "tmle": 0.0}
        c = tune_c_for_are(0.95, 10)
        for t in range(trials):
            x = make_data(reg_t, n, 3000 + t)
            mse["ls"] += np.sum(
                (gqmle_regression(x, reg_t) - THETA0_REG) ** 2) / trials
            mse["tukey"] += np.sum(
                (tukey_m_estimator(x, reg_t, c).theta - THETA0_REG) ** 2
            ) / trials
            mse["tmle"] += np.sum(
                (mle_t_noise(x, reg_t, lam=0.2).theta - THETA0_REG) ** 2
            ) / trials
        assert mse["tmle"] < mse["tukey"] < mse["ls"]

    def test_validation(self, reg_t, rng):
        x = make_data(reg_t, 50, 89)
        with pytest.raises(ValueError):
            mle_t_noise(x, reg_t, lam=-1.0)


class TestARE:
    def test_reference_operating_point(self):
        assert are_tukey(6.2, 10) == pytest.approx(0.95, abs=0.01)

    def test_wide_cutoff_limit(self):
        assert are_tukey(100.0, 10) > 0.999

    def test_monotone_increasing(self):
        grid = np.linspace(3.0, 20.0, 12)
        vals = [are_tukey(c, 10) for c in grid]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_tuning_bracket(self):
        c95 = tune_c_for_are(0.95, 10)
        assert 6.0 <= c95 <= 6.4
        assert tune_c_for_are(0.999, 10) > 10.0
        assert tune_c_for_are(0.5, 10) < c95

    def test_invalid_target(self):
        with pytest.raises(ValueError):
            tune_c_for_are(1.5, 10)

    def test_underflowing_integrals_raise(self):
        with pytest.raises(ValueError, match="underflow"):
            are_tukey(0.5, 200)

    def test_tuning_at_large_p(self):
        c = tune_c_for_are(0.95, 200)
        assert abs(are_tukey(c, 200) - 0.95) < 1e-4

    def test_non_positive_dimension_rejected(self):
        with pytest.raises(ValueError):
            tune_c_for_are(0.95, 0)


def _tuned_or_error(tune, target, p):
    try:
        return tune(target, p)
    except ValueError as err:
        return ("ValueError", str(err))


class TestAREExactness:
    """The closed-form chi density against scipy's, and the ARE and its
    tuned cutoff against high-precision values and a tight scipy-quadrature
    oracle."""

    def test_mad_constants_match_scipy(self):
        assert GAMMA_ERFINV == 1.0 / special.erfinv(0.75)
        assert GAMMA_NORMAL_QUARTILE == \
            1.0 / (np.sqrt(2.0) * special.erfinv(0.5))

    def test_closed_form_density(self):
        r = np.linspace(0.01, 30.0, 600)
        for p in range(1, 41):
            ref = stats.chi(2 * p, scale=2.0 ** -0.5).pdf(r)
            pdf = _residual_density(p)
            got = pdf(r)
            keep = ref > 1e-300
            np.testing.assert_allclose(got[keep], ref[keep], rtol=1e-12,
                                       atol=0.0, err_msg=f"p = {p}")

    # 100-digit values, computed with mpmath from both the three-integral
    # form and the integration-by-parts form, which agree in every digit.
    @pytest.mark.parametrize("p, c, want", [
        (20, 0.6, 1.3262250996482706724e-30),
        (20, 1.0, 1.5098578416962477399e-21),
        (40, 0.6, 2.4761169520988388918e-69),
        (40, 1.0, 2.0666039246382061404e-51),
        (10, 6.2, 0.94952684878960637059),
    ])
    def test_are_matches_high_precision_values(self, p, c, want):
        assert are_tukey(c, p) == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("p", [1, 2, 5, 10, 20, 40])
    def test_are_matches_oracle(self, p):
        for c in (0.6, 1.0, 2.5, 6.2, 12.0, 40.0, 1000.0):
            assert are_tukey(c, p) == pytest.approx(oracle_are_tukey(c, p),
                                                    rel=1e-11, abs=0.0)

    @pytest.mark.parametrize("p", range(1, 41))
    def test_tuned_cutoff_equals_oracle(self, p):
        for target in (0.5, 0.8, 0.9, 0.95, 0.99):
            assert _tuned_or_error(tune_c_for_are, target, p) == \
                _tuned_or_error(oracle_tune_c_for_are, target, p)

    @pytest.mark.parametrize("target, p", [(0.01, 1), (1.0 - 1e-12, 3),
                                           (0.0, 10), (1.5, 10)])
    def test_unreachable_targets_raise_as_oracle(self, target, p):
        got = _tuned_or_error(tune_c_for_are, target, p)
        assert isinstance(got, tuple)
        assert got == _tuned_or_error(oracle_tune_c_for_are, target, p)


@pytest.mark.parametrize("c", [0.0, -1.0, np.nan])
def test_are_refuses_a_cutoff_that_is_not_positive(c):
    with pytest.raises(ValueError, match="c must be positive"):
        are_tukey(c, 10)
