import dataclasses
import pickle

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
from mtqmle.transform import (constant_mt_function, empirical_mt_moments,
                              gaussian_mt_function, squared_norms)

from conftest import THETA0_DOA, random_pd, whole_array_texture_mean


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


@pytest.fixture
def scanner_builds(monkeypatch):
    """Counts the spectrum bases built through doa._scanner."""
    built = []
    real = doa._scanner

    def counting(thetas, p):
        built.append((thetas.size, p))
        return real(thetas, p)

    monkeypatch.setattr(doa, "_scanner", counting)
    return built


class TestScannerCache:
    def test_one_basis_per_model_and_grid(self, ula_k, scanner_builds):
        x = make_doa_data(ula_k, 200, 3)
        for k_theta in (101, 101, 401):
            estimate_doa(x, ula_k, 3.0, k_theta)
            bartlett_doa(x, ula_k, k_theta)
            fit = mt_fitter_doa(x, ula_k, k_theta)
            fit(2.0), fit(5.0)
            doa_moment_model(ula_k, x, 3.0, k_theta=k_theta)
            mt_spectrum(x, ula_k, 3.0, k_theta=k_theta)
        assert scanner_builds == [(101, 4), (401, 4)]
        estimate_doa(x, ULAModel(4, 1.0, ula_k.noise, ula_k.delta), 3.0, 101)
        assert scanner_builds == [(101, 4), (401, 4), (101, 4)]

    def test_geometry_change_rebuilds(self, ula_k, scanner_builds):
        x = make_doa_data(ula_k, 200, 4)
        estimate_doa(x, ula_k, 3.0, 101)
        ula_k.delta = 0.3
        theta = estimate_doa(x, ula_k, 3.0, 101)
        assert len(scanner_builds) == 2
        assert theta == doa._scanner(ula_k.grid(101), 4)(
            *_gaussian_moments(x, 3.0)).argmax_theta

    def test_not_in_eq_repr_or_replace(self, ula_k):
        fresh = ULAModel(4, 1.0, ula_k.noise, ula_k.delta)
        before = repr(ula_k)
        estimate_doa(make_doa_data(ula_k, 50, 5), ula_k, 3.0, 101)
        assert ula_k._scanners and not fresh._scanners
        assert ula_k == fresh and repr(ula_k) == repr(fresh) == before
        copy = dataclasses.replace(ula_k)
        assert copy == ula_k and copy._scanners == {}
        assert copy._scanners is not ula_k._scanners

    def test_model_with_a_cache_pickles(self, ula_k):
        x = make_doa_data(ula_k, 100, 8)
        theta = estimate_doa(x, ula_k, 3.0, 101)
        copy = pickle.loads(pickle.dumps(ula_k))
        assert copy == ula_k and estimate_doa(x, copy, 3.0, 101) == theta

    @pytest.mark.parametrize("k_theta", [101, 10 ** 4])
    def test_results_equal_fresh_scanner(self, ula_k, k_theta):
        grid = ula_k.grid(k_theta)
        for stream in range(3):
            x = make_doa_data(ula_k, 300, 20 + stream)
            for omega in (2.0, 8.0):
                fresh = doa._scanner(grid, 4)(*_gaussian_moments(x, omega))
                assert estimate_doa(x, ula_k, omega, k_theta) == \
                    fresh.argmax_theta
                assert mt_fitter_doa(x, ula_k, k_theta)(omega)[0] == \
                    fresh.argmax_theta
                curve = mt_spectrum(x, ula_k, omega, k_theta=k_theta)
                assert np.array_equal(curve.values, fresh.values)
                assert np.array_equal(curve.thetas, grid)
                mm = doa_moment_model(ula_k, x, omega, k_theta=k_theta)
                assert mm.info["theta_ref"] == fresh.argmax_theta
            mom = empirical_mt_moments(x, constant_mt_function())
            assert bartlett_doa(x, ula_k, k_theta) == \
                doa._scanner(grid, 4)(mom.mt_mean, mom.mt_cov).argmax_theta

    def test_cached_grid_is_read_only(self, ula_k):
        curve = mt_spectrum(make_doa_data(ula_k, 50, 6), ula_k, 3.0, k_theta=101)
        with pytest.raises(ValueError):
            curve.thetas[0] = 0.0

    def test_explicit_grid_bypasses_cache(self, ula_k, scanner_builds):
        x = make_doa_data(ula_k, 100, 7)
        grid = ula_k.grid(101)
        first = mt_spectrum(x, ula_k, 3.0, grid)
        second = mt_spectrum(x, ula_k, 3.0, grid)
        assert len(scanner_builds) == 2 and ula_k._scanners == {}
        assert first.thetas is grid and np.array_equal(first.values,
                                                       second.values)


def _gaussian_moments(x, omega):
    mom = empirical_mt_moments(x, gaussian_mt_function(omega))
    return mom.mt_mean, mom.mt_cov


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


class TestChunkedTextureExpectation:
    """The closed forms equal, with ==, one whole-array evaluation of the
    integrands as first written (log v2 and log(2 v2 + w2) taken twice)."""

    @pytest.mark.parametrize("snr_db", [-25.0, -10.0, 0.0])
    def test_asymptotic_mse_matches_whole_array_formula(self, snr_db):
        p, s2s, n = 4, 1.0, 5000
        noise = NoiseSpec("k", doa_sigma2_for_snr_db(s2s, snr_db), p, lam=0.75)
        model = ULAModel(p, s2s, noise)
        s2z = noise.sigma2
        widths = np.linspace(1.0, 30.0, 30)
        # 11 of the widths 1, 2, ..., 30 (every third and both endpoints):
        # each whole-array evaluation of the oracle takes about 0.2 s
        for omega in np.append(widths[:-1:3], widths[-1]):
            w2 = float(omega) ** 2

            def f_num(nu2):
                v2 = nu2 * s2z
                log_gain = np.logaddexp(2.0 * np.log(v2),
                                        np.log(v2) + np.log(w2 * p * s2s)
                                        - np.log(2.0 * v2 + w2))
                log_h = (-(p + 2) * (np.log(2.0 * v2 + w2) - np.log(w2))
                         - 2.0 * p * s2s / (2.0 * v2 + w2))
                return np.exp(log_gain + log_h)

            def f_den(nu2):
                return p * s2s * doa._h_factor(p, p * s2s, nu2 * s2z, w2)

            num = whole_array_texture_mean(noise, f_num)
            den = whole_array_texture_mean(noise, f_den)
            scale = 6.0 / (np.pi ** 2 * np.cos(THETA0_DOA) ** 2 * (p ** 2 - 1) * n)
            assert asymptotic_mse_doa(model, THETA0_DOA, omega, n) == (
                num / den ** 2 * scale)

    @pytest.mark.parametrize("omega", [1.0, 5.0, 30.0])
    def test_influence_prefactor_matches_whole_array(self, ula_k, omega):
        noise, p, s2s = ula_k.noise, ula_k.p, ula_k.sigma2_s
        w2 = float(omega) ** 2

        def f_num(nu2):
            v2 = nu2 * noise.sigma2
            return (1.0 + v2 / w2) ** 2 * doa._h_factor(p, p * s2s, v2, w2)

        def f_den(nu2):
            return s2s * doa._h_factor(p, p * s2s, nu2 * noise.sigma2, w2)

        want = (whole_array_texture_mean(noise, f_num)
                / whole_array_texture_mean(noise, f_den))
        assert doa._influence_prefactor.__wrapped__(noise, s2s, p, omega) == want


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


class TestLagRoute:
    """The fitter reads each width's spectrum from phi @ (per-sample lag
    table) and keeps the slope and curvature statistics per angle."""

    @pytest.mark.parametrize("p", [2, 3, 4, 7])
    def test_weighted_lag_table_matches_moment_route(self, p):
        noise = NoiseSpec("k", doa_sigma2_for_snr_db(1.0, -10.0), p, lam=0.75)
        x = synthesize_doa(p, THETA0_DOA, 1.0, noise, 500, stream_rng(61, p))
        x = x + (0.5 - 0.3j)    # a mean the moment route removes and restores
        table = doa._lag_table(x, squared_norms(x))
        eye = np.eye(2 * p - 1)     # a basis that returns the lag vector itself
        for omega in (1.0, 3.0, 10.0, 1e6):
            mom = empirical_mt_moments(x, gaussian_mt_function(omega))
            lags = doa._lag_scan(None, eye, p, mom.mt_mean, mom.mt_cov).values
            np.testing.assert_allclose(mom.weights @ table, lags, rtol=1e-12)

    def test_fit_equals_public_functions_on_shipped_shape(self):
        """configs/doa_snr_sweep.json's shape: p = 4, n = 5000, K noise, its
        30 widths and 6 SNRs, 5 streams each."""
        omegas = np.linspace(1.0, 30.0, 30)
        for snr_db in (-25.0, -20.0, -15.0, -10.0, -5.0, 0.0):
            noise = NoiseSpec("k", doa_sigma2_for_snr_db(1.0, snr_db), 4,
                              lam=0.75)
            model = ULAModel(4, 1.0, noise)
            for stream in range(5):
                x = synthesize_doa(4, THETA0_DOA, 1.0, noise, 5000,
                                   stream_rng(65, stream))
                fit = mt_fitter_doa(x, model)
                for omega in omegas:
                    theta = estimate_doa(x, model, float(omega))
                    assert fit(float(omega)) == (
                        theta, empirical_asymptotic_mse_doa(x, model, theta,
                                                            float(omega)))

    def test_slope_and_curvature_once_per_angle(self, monkeypatch, ula_k):
        angles = []
        real = doa._slope_curvature

        def counting(x, theta, p):
            angles.append(theta)
            return real(x, theta, p)

        monkeypatch.setattr(doa, "_slope_curvature", counting)
        x = make_doa_data(ula_k, 2000, 62)
        omegas = np.linspace(1.0, 30.0, 30)
        fit = mt_fitter_doa(x, ula_k)
        thetas = {fit(float(omega))[0] for omega in omegas}
        assert sorted(angles) == sorted(thetas) and 1 < len(thetas) < 30
        for omega in omegas:
            fit(float(omega))
        assert len(angles) == len(thetas)
        mt_fitter_doa(x, ula_k)(1.0)    # a new fitter starts with no angles
        assert len(angles) == len(thetas) + 1

    def test_non_finite_lags_fail_the_width(self, monkeypatch, ula_k):
        real = doa._lag_table

        def overflowed(x, norms):
            table = real(x, norms)
            table[3, 1] = np.inf
            return table

        monkeypatch.setattr(doa, "_lag_table", overflowed)
        fit = mt_fitter_doa(make_doa_data(ula_k, 100, 64), ula_k, 101)
        with pytest.raises(NotPositiveDefinite):
            fit(4.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1e80, 1e100, 1e160, 1e300])
    def test_gross_outlier_leaves_the_selection(self, scale):
        """One snapshot far out gets weight 0 at every width, so the selected
        width, the estimates and the traces are those of the clean data."""
        noise = NoiseSpec("k", doa_sigma2_for_snr_db(1.0, -10.0), 4, lam=0.75)
        model = ULAModel(4, 1.0, noise)
        x = synthesize_doa(4, THETA0_DOA, 1.0, noise, 2000, stream_rng(63, 0))
        y = np.insert(x, 700, scale * steering(0.2, 4), axis=0)
        omegas = np.linspace(1.0, 30.0, 30)
        clean = select_by_trace(omegas, mt_fitter_doa(x, model))
        dirty = select_by_trace(omegas, mt_fitter_doa(y, model))
        assert dirty.omega_opt == clean.omega_opt
        assert dirty.estimates == clean.estimates
        np.testing.assert_allclose(dirty.traces, clean.traces, rtol=1e-12)
        theta = estimate_doa(y, model, 4.0)
        assert theta == estimate_doa(x, model, 4.0)
        assert empirical_asymptotic_mse_doa(y, model, theta, 4.0) == \
            pytest.approx(empirical_asymptotic_mse_doa(x, model, theta, 4.0),
                          rel=1e-12)


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
