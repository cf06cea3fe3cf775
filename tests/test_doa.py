import numpy as np
import pytest
from scipy import integrate, stats

from mtqmle import doa
from mtqmle.asymptotics import fisher_information, sandwich, select_by_trace
from mtqmle.core import sample_covariance, sample_mean
from mtqmle.doa import (
    ULAModel,
    asymptotic_mse_doa,
    bartlett_doa,
    doa_moment_model,
    empirical_asymptotic_mse_doa,
    estimate_doa,
    gaussian_crlb_doa,
    gaussian_score_doa,
    influence_doa,
    mt_fitter_doa,
    mt_spectrum,
    steering,
    steering_grid,
)
from mtqmle.exceptions import (DegenerateWeights, NotPositiveDefinite,
                               SingularMatrix)
from mtqmle.samplers import (NoiseSpec, doa_sigma2_for_snr_db, stream_rng,
                             synthesize_doa)
from mtqmle.transform import empirical_mt_moments, gaussian_mt_function

from conftest import THETA0_DOA, random_pd


def make_doa_data(model, n, seed, theta0=THETA0_DOA):
    return synthesize_doa(model.p, theta0, model.sigma2_s, model.noise, n,
                          stream_rng(seed, 0))


class TestSteering:
    def test_broadside_all_ones(self):
        np.testing.assert_allclose(steering(0.0, 5), np.ones(5))

    def test_norm_is_sensor_count(self):
        for theta in (-1.2, -0.3, 0.0, 0.7, 1.4):
            assert np.linalg.norm(steering(theta, 6)) ** 2 == pytest.approx(6.0)

    @pytest.mark.parametrize("order", [1, 2])
    def test_derivatives_match_finite_difference(self, order):
        theta, h, p = 0.4, 1e-6, 4
        lower = steering(theta - h, p, order - 1)
        upper = steering(theta + h, p, order - 1)
        fd = (upper - lower) / (2 * h)
        analytic = steering(theta, p, order)
        assert np.linalg.norm(fd - analytic) / np.linalg.norm(analytic) < 1e-6

    def test_order_out_of_range(self):
        with pytest.raises(ValueError):
            steering(0.1, 4, order=3)

    def test_grid_matches_scalar(self):
        thetas = np.array([-0.5, 0.0, 0.9])
        grid = steering_grid(thetas, 4)
        for row, theta in zip(grid, thetas):
            np.testing.assert_allclose(row, steering(theta, 4))


class TestSpectrum:
    def test_rank_one_data_peaks_at_source(self, ula_gaussian):
        theta_star = 0.42
        x = np.tile(2.0 * steering(theta_star, 4), (50, 1))
        grid = ula_gaussian.grid(2001)
        curve = mt_spectrum(x, ula_gaussian, 3.0, grid)
        step = grid[1] - grid[0]
        assert abs(curve.argmax_theta - theta_star) <= step / 2

    def test_constant_weight_limit_is_bartlett(self, ula_gaussian):
        x = make_doa_data(ula_gaussian, 400, 50)
        grid = ula_gaussian.grid(501)
        wide = mt_spectrum(x, ula_gaussian, 1e6, grid)
        c_hat = sample_covariance(x) + np.outer(sample_mean(x),
                                                sample_mean(x).conj())
        steer = steering_grid(grid, 4)
        bartlett = np.einsum("ki,ij,kj->k", steer.conj(), c_hat, steer).real
        np.testing.assert_allclose(wide.values, bartlett, rtol=1e-6)

    def test_spectrum_is_real_up_to_roundoff(self, ula_k):
        x = make_doa_data(ula_k, 500, 51)
        grid = ula_k.grid(301)
        moments_u = gaussian_mt_function(4.0)
        from mtqmle.transform import empirical_mt_moments
        mom = empirical_mt_moments(x, moments_u)
        c_hat = mom.mt_cov + np.outer(mom.mt_mean, mom.mt_mean.conj())
        steer = steering_grid(grid, 4)
        complex_vals = np.einsum("ki,ij,kj->k", steer.conj(), c_hat, steer)
        assert np.max(np.abs(complex_vals.imag) / np.abs(complex_vals)) < 1e-10
        curve = mt_spectrum(x, ula_k, 4.0, grid)
        np.testing.assert_allclose(curve.values, complex_vals.real, rtol=1e-12)


def _einsum_spectrum(c_hat, grid, p):
    steer = steering_grid(grid, p)
    return np.einsum("ki,ij,kj->k", steer.conj(), c_hat, steer).real


class TestLagFormSpectrum:
    @pytest.mark.parametrize("p", [2, 3, 4, 7])
    def test_matches_steering_einsum(self, rng, p):
        grid = np.linspace(-np.pi / 2, np.pi / 2, 997)
        for _ in range(5):
            mean = rng.standard_normal(p) + 1j * rng.standard_normal(p)
            cov = random_pd(rng, p)
            lag = doa._scanner(grid, p)(mean, cov)
            oracle = _einsum_spectrum(cov + np.outer(mean, mean.conj()),
                                      grid, p)
            np.testing.assert_allclose(lag.values, oracle, rtol=1e-10)

    def test_argmax_matches_einsum_on_k_noise(self, ula_k):
        grid = ula_k.grid(10 ** 4)
        for stream in range(20):
            x = synthesize_doa(4, THETA0_DOA, 1.0, ula_k.noise, 1000,
                               stream_rng(57, stream))
            for omega in (2.0, 8.0):
                mom = empirical_mt_moments(x, gaussian_mt_function(omega))
                c_hat = mom.mt_cov + np.outer(mom.mt_mean, mom.mt_mean.conj())
                oracle = grid[int(np.argmax(_einsum_spectrum(c_hat, grid, 4)))]
                assert estimate_doa(x, ula_k, omega, 10 ** 4) == oracle


class TestEstimate:
    def test_noiseless_snapshot(self, ula_gaussian):
        theta_star = np.deg2rad(30.0)
        x = steering(theta_star, 4)[None, :]
        k_theta = 10 ** 4
        got = estimate_doa(x, ula_gaussian, 5.0, k_theta)
        lo, hi = ula_gaussian.theta_bounds
        step = (hi - lo) / (k_theta - 1)
        assert abs(got - theta_star) <= step

    def test_two_point_grid_picks_higher(self, ula_gaussian):
        x = np.tile(steering(0.5, 4), (20, 1))
        grid = np.array([0.45, 0.55])
        curve = mt_spectrum(x, ula_gaussian, 5.0, grid)
        assert curve.argmax_theta == grid[int(np.argmax(curve.values))]

    def test_k_noise_low_snr_recovery(self, ula_k):
        n, k_theta = 5000, 2001
        x = make_doa_data(ula_k, n, 52)
        got = estimate_doa(x, ula_k, 4.0, k_theta)
        lo, hi = ula_k.theta_bounds
        step = (hi - lo) / (k_theta - 1)
        assert abs(got - THETA0_DOA) <= 2 * step + 0.02

    def test_empty_dataset_raises(self, ula_k):
        with pytest.raises(DegenerateWeights):
            estimate_doa(np.zeros((0, 4), dtype=complex), ula_k, 4.0, 101)

    def test_overflowing_covariance_raises(self, ula_gaussian):
        """At the scale 1e200 the sample covariance overflows; the scan
        raises instead of returning the first grid angle of a NaN spectrum."""
        x = 1e200 * make_doa_data(ula_gaussian, 50, 54)
        with pytest.raises(NotPositiveDefinite):
            bartlett_doa(x, ula_gaussian, 101)

    def test_bartlett_matches_wide_weight(self, ula_gaussian):
        x = make_doa_data(ula_gaussian, 300, 53)
        assert bartlett_doa(x, ula_gaussian, 801) == pytest.approx(
            estimate_doa(x, ula_gaussian, 1e6, 801), abs=1e-12)


class TestAsymptoticMSE:
    def test_gaussian_wide_limit_is_crlb(self, ula_gaussian):
        got = asymptotic_mse_doa(ula_gaussian, THETA0_DOA, 1e4, 5000)
        crlb = gaussian_crlb_doa(ula_gaussian, THETA0_DOA, 5000)
        assert 0.99 <= got / crlb <= 1.01

    def test_overflowing_width_raises(self, ula_k):
        with pytest.raises(ValueError, match="omega"):
            asymptotic_mse_doa(ula_k, THETA0_DOA, 1e160, 1000)

    def test_n_scaling(self, ula_k):
        a = asymptotic_mse_doa(ula_k, THETA0_DOA, 4.0, 1000)
        b = asymptotic_mse_doa(ula_k, THETA0_DOA, 4.0, 2000)
        assert a == pytest.approx(2 * b, rel=1e-12)

    def test_k_texture_against_quadrature_oracle(self, ula_k):
        lam = ula_k.noise.lam
        p = ula_k.p
        s2z = ula_k.noise.sigma2
        s2s = ula_k.sigma2_s
        omega = 6.0
        w2 = omega ** 2
        mixer = stats.gamma(lam, scale=1 / lam)

        def h(s_abs2, v2):
            return ((v2 + w2) / w2) ** (-(p + 2)) * np.exp(-s_abs2 / (v2 + w2))

        def quad_expect(fn):
            val, _ = integrate.quad(lambda v: fn(v) * mixer.pdf(v), 0.0,
                                    np.inf, limit=400)
            return val

        num = quad_expect(
            lambda nu2: ((nu2 * s2z) ** 2
                         + nu2 * s2z * w2 * p * s2s / (2 * nu2 * s2z + w2))
            * h(2 * p * s2s, 2 * nu2 * s2z))
        den = quad_expect(lambda nu2: p * s2s * h(p * s2s, nu2 * s2z))
        n = 5000
        oracle = num / den ** 2 * 6 / (np.pi ** 2 * np.cos(THETA0_DOA) ** 2
                                       * (p ** 2 - 1) * n)
        got = asymptotic_mse_doa(ula_k, THETA0_DOA, omega, n)
        assert got == pytest.approx(oracle, rel=0.01)


class TestEmpiricalAsymptoticMSE:
    def test_duplication_halves(self, ula_k):
        x = make_doa_data(ula_k, 800, 54)
        theta_hat = estimate_doa(x, ula_k, 4.0, 1001)
        one = empirical_asymptotic_mse_doa(x, ula_k, theta_hat, 4.0)
        two = empirical_asymptotic_mse_doa(np.concatenate([x, x]), ula_k,
                                           theta_hat, 4.0)
        assert two == pytest.approx(one / 2, rel=1e-12)

    def test_matches_generic_sandwich(self, ula_k):
        x = make_doa_data(ula_k, 2000, 55)
        omega = 5.0
        theta_hat = estimate_doa(x, ula_k, omega, 2001)
        mm = doa_moment_model(ula_k, x, omega, 2001)
        s = sandwich(x, np.array([theta_hat]), mm, gaussian_mt_function(omega))
        fast = empirical_asymptotic_mse_doa(x, ula_k, theta_hat, omega)
        assert s.c_hat[0, 0] == pytest.approx(fast, rel=1e-8)

    def test_tracks_closed_form(self, ula_k):
        n = 5000
        x = make_doa_data(ula_k, n, 56)
        omega = 8.0
        theta_hat = estimate_doa(x, ula_k, omega, 2001)
        emp = empirical_asymptotic_mse_doa(x, ula_k, theta_hat, omega)
        closed = asymptotic_mse_doa(ula_k, THETA0_DOA, omega, n)
        assert emp == pytest.approx(closed, rel=0.15)

    def test_zero_snapshots_raise_singular(self, ula_k):
        with pytest.raises(SingularMatrix, match="degenerate curvature"):
            empirical_asymptotic_mse_doa(np.zeros((10, 4), dtype=complex),
                                         ula_k, THETA0_DOA, 4.0)

    def test_empty_dataset_raises(self, ula_k):
        with pytest.raises(DegenerateWeights):
            empirical_asymptotic_mse_doa(np.zeros((0, 4), dtype=complex),
                                         ula_k, THETA0_DOA, 4.0)


class TestFitter:
    @pytest.mark.parametrize("snr_db", [-10.0, 0.0])
    def test_equals_per_width_estimate_and_mse(self, snr_db):
        """Every width of the per-dataset fitter is bit-for-bit estimate_doa
        followed by empirical_asymptotic_mse_doa at that estimate."""
        noise = NoiseSpec("k", doa_sigma2_for_snr_db(1.0, snr_db), 4, lam=0.75)
        model = ULAModel(4, 1.0, noise)
        for stream in (0, 1):
            x = synthesize_doa(4, THETA0_DOA, 1.0, noise, 1000,
                               stream_rng(58, stream))
            fit = mt_fitter_doa(x, model)
            for omega in np.linspace(1.0, 30.0, 30):
                theta = estimate_doa(x, model, float(omega))
                trace = empirical_asymptotic_mse_doa(x, model, theta,
                                                     float(omega))
                assert fit(float(omega)) == (theta, trace)

    def test_zero_snapshots_fail_every_width(self, ula_k):
        fit = mt_fitter_doa(np.zeros((10, 4), dtype=complex), ula_k, 101)
        omegas = [1.0, 4.0, 16.0]
        for omega in omegas:
            with pytest.raises(SingularMatrix):
                fit(omega)
        with pytest.raises(DegenerateWeights):
            select_by_trace(omegas, fit)


class TestInfluence:
    def test_zero_point(self, ula_k):
        assert influence_doa(np.zeros(4, dtype=complex), THETA0_DOA, ula_k,
                             4.0) == 0.0

    def test_norm_sweep_decays(self, ula_gaussian, rng):
        direction = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        direction /= np.linalg.norm(direction)
        vals = [abs(influence_doa(r * direction, THETA0_DOA, ula_gaussian, 5.0))
                for r in (10.0, 100.0, 1000.0)]
        assert vals[0] > vals[1] >= vals[2]
        assert vals[2] < 1e-6

    def test_bounded_over_random_directions(self, ula_k, rng):
        radii = 10 ** (3 * rng.random(10 ** 4))          # up to 1e3
        dirs = rng.standard_normal((10 ** 4, 4)) + 1j * rng.standard_normal(
            (10 ** 4, 4))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        vals = np.array([abs(influence_doa(r * d, THETA0_DOA, ula_k, 5.0))
                         for r, d in zip(radii, dirs)])
        assert np.isfinite(vals).all()
        assert radii[int(np.argmax(vals))] < 100.0  # sup attained at moderate norm

    @pytest.mark.parametrize("noise", ["ula_gaussian", "ula_k"])
    def test_underflowing_width_raises(self, noise, request):
        model = request.getfixturevalue(noise)
        with pytest.raises(ValueError, match="texture expectation"):
            influence_doa(np.ones(4, dtype=complex), THETA0_DOA, model, 1e-30)

    @pytest.mark.parametrize("omega", [1.0, 5.0, 30.0])
    def test_weight_rejects_large_outliers(self, omega):
        u = gaussian_mt_function(omega)
        y = np.full((1, 4), 1000.0 / 2.0, dtype=complex)  # norm 1e3
        val = u.weights(y)[0] * 1e3 ** 2
        assert val < 1e-100


class TestGaussianLikelihood:
    def test_fim_matches_crlb_closed_form(self, ula_gaussian):
        n = 2 * 10 ** 5
        rng = stream_rng(57, 0)
        s = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * np.sqrt(
            ula_gaussian.sigma2_s / 2)
        z = (rng.standard_normal((n, 4)) + 1j * rng.standard_normal((n, 4))
             ) * np.sqrt(ula_gaussian.noise.sigma2 / 2)
        x = s[:, None] * steering(THETA0_DOA, 4)[None, :] + z
        fim = fisher_information(
            lambda data, th: gaussian_score_doa(data, th, ula_gaussian),
            x, np.array([THETA0_DOA]))
        crlb = gaussian_crlb_doa(ula_gaussian, THETA0_DOA, 1)
        assert fim[0, 0] == pytest.approx(1.0 / crlb, rel=0.05)

    def test_k_noise_has_no_likelihood(self, ula_k):
        x = make_doa_data(ula_k, 50, 58)
        with pytest.raises(ValueError, match="likelihood unknown"):
            gaussian_score_doa(x, np.array([THETA0_DOA]), ula_k)


def test_model_validation():
    noise = NoiseSpec("gaussian", 1.0, 4)
    with pytest.raises(ValueError):
        ULAModel(1, 1.0, noise)
    with pytest.raises(ValueError):
        ULAModel(4, -1.0, noise)
    with pytest.raises(ValueError):
        ULAModel(5, 1.0, noise)  # dimension mismatch
