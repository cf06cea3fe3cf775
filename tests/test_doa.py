import dataclasses
import pickle
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import integrate, stats

from mtqmle import doa
from mtqmle.asymptotics import fisher_information, sandwich, select_by_trace
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
from mtqmle.estimator import estimate_mt_gqmle
from mtqmle.exceptions import (DegenerateWeights, NotPositiveDefinite,
                               SingularMatrix)
from mtqmle.samplers import (NoiseSpec, doa_sigma2_for_snr_db, stream_rng,
                             synthesize_doa)
from mtqmle.transform import (GaussianWeights, constant_mt_function,
                              empirical_mt_moments, gaussian_mt_function)

from conftest import (THETA0_DOA, random_pd, sample_covariance, sample_mean,
                      whole_array_texture_mean)


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
        curve = mt_spectrum(x, ula_gaussian, 3.0, k_theta=2001)
        step = grid[1] - grid[0]
        assert abs(curve.argmax_theta - theta_star) <= step / 2

    def test_constant_weight_limit_is_bartlett(self, ula_gaussian):
        x = make_doa_data(ula_gaussian, 400, 50)
        grid = ula_gaussian.grid(501)
        wide = mt_spectrum(x, ula_gaussian, 1e6, k_theta=501)
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
        curve = mt_spectrum(x, ula_k, 4.0, k_theta=301)
        np.testing.assert_allclose(curve.values, complex_vals.real, rtol=1e-12)


def _einsum_spectrum(c_hat, grid, p):
    steer = steering_grid(grid, p)
    return np.einsum("ki,ij,kj->k", steer.conj(), c_hat, steer).real


class TestLagFormSpectrum:
    @pytest.mark.parametrize("p", [2, 3, 4, 7])
    def test_matches_steering_einsum(self, rng, p):
        model = ULAModel(p, 1.0, NoiseSpec("gaussian", 1.0, p))
        grid, basis = doa._basis(p, 997)
        for _ in range(5):
            mean = rng.standard_normal(p) + 1j * rng.standard_normal(p)
            cov = random_pd(rng, p)
            lag = doa._scan(grid, basis, doa._lags(mean, cov))
            oracle = _einsum_spectrum(cov + np.outer(mean, mean.conj()),
                                      grid, p)
            np.testing.assert_allclose(lag.values, oracle, rtol=1e-10)

    def test_overflow_is_scanned_at_a_power_of_two(self, rng):
        """Lags whose sums overflow, and finite lags whose spectrum
        overflows, come out as the ordinary lags and values times one power
        of two, so the angle stays. C is near rank one, so the spectrum's
        peak is near 4 r_0."""
        grid, basis = doa._basis(4, 997)
        mean = 3.0 * steering(0.3, 4)
        cov = 0.01 * random_pd(rng, 4)
        lags = doa._lags(mean, cov)
        curve = doa._scan(grid, basis, lags)
        big_mean, big_cov = 2.0 ** 510 * mean, 2.0 ** 1020 * cov
        top = np.ldexp(lags, 1023 - np.frexp(np.abs(lags).max())[1])
        with np.errstate(over="ignore"):
            assert not np.isfinite(np.trace(
                big_cov + np.outer(big_mean, big_mean.conj())))
            assert not np.all(np.isfinite(top @ basis))
        big_lags = doa._lags(big_mean, big_cov)
        big = doa._scan(grid, basis, top)
        for got, want in ((big_lags, lags), (big.values, curve.values)):
            factor = got / want
            assert np.all(factor == factor[0]) and np.frexp(factor[0])[0] == 0.5
        assert big.argmax_theta == curve.argmax_theta

    def test_every_angle_through_one_scan(self, ula_k, monkeypatch):
        """estimate_doa, mt_spectrum, bartlett_doa, doa_moment_model's
        theta_ref and solver, and every width of mt_fitter_doa reach their
        angle through one _scan call each."""
        x = make_doa_data(ula_k, 200, 3)
        calls = []
        scan = doa._scan
        monkeypatch.setattr(doa, "_scan",
                            lambda *args: calls.append(1) or scan(*args))
        fit = mt_fitter_doa(x, ula_k, 101)
        mm = doa_moment_model(ula_k, x, 3.0, k_theta=101)
        assert len(calls) == 1                  # theta_ref
        u = gaussian_mt_function(3.0)
        mom = empirical_mt_moments(x, u)
        for angle in (lambda: estimate_doa(x, ula_k, 3.0, 101),
                      lambda: mt_spectrum(x, ula_k, 3.0, 101).argmax_theta,
                      lambda: bartlett_doa(x, ula_k, 101),
                      lambda: mm.solver(mom)[0],
                      lambda: estimate_mt_gqmle(x, u, mm).theta[0],
                      lambda: fit(2.0)[0], lambda: fit(5.0)[0],
                      lambda: fit(2.0)[0]):
            calls.clear()
            assert np.isfinite(angle()) and len(calls) == 1
        assert mm.solver(mom)[0] == mm.info["theta_ref"]

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
def basis_builds(monkeypatch):
    """Counts the spectrum bases built, one doa.steering_grid call each, from
    an empty basis cache, so that the counts do not depend on test order."""
    doa._basis.cache_clear()
    built = []
    real = doa.steering_grid

    def counting(thetas, p):
        built.append((thetas.size, p))
        return real(thetas, p)

    monkeypatch.setattr(doa, "steering_grid", counting)
    return built


def _fresh_scan(model, k_theta, mean, cov):
    """The spectrum through a basis built anew, outside the basis cache."""
    return doa._scan(*doa._basis.__wrapped__(model.p, k_theta),
                     doa._lags(mean, cov))


class TestScannerCache:
    def test_one_basis_per_model_and_grid(self, ula_k, basis_builds):
        """One steering_grid build per (p, k_theta) per process, read by every
        entry point and shared by new models of the same geometry."""
        x = make_doa_data(ula_k, 200, 3)
        for k_theta in (101, 101, 401):
            estimate_doa(x, ula_k, 3.0, k_theta)
            bartlett_doa(x, ula_k, k_theta)
            fit = mt_fitter_doa(x, ula_k, k_theta)
            fit(2.0), fit(5.0)
            doa_moment_model(ula_k, x, 3.0, k_theta=k_theta)
            mt_spectrum(x, ula_k, 3.0, k_theta=k_theta)
        assert basis_builds == [(101, 4), (401, 4)]
        estimate_doa(x, ULAModel(4, 1.0, ula_k.noise), 3.0, 101)
        estimate_doa(x, ULAModel(4, 2.0, ula_k.noise), 3.0, 401)
        assert basis_builds == [(101, 4), (401, 4)]

    def test_geometry_change_rebuilds(self, ula_k, basis_builds):
        estimate_doa(make_doa_data(ula_k, 200, 4), ula_k, 3.0, 101)
        ula_k.p, ula_k.noise = 5, dataclasses.replace(ula_k.noise, p=5)
        x = make_doa_data(ula_k, 200, 4)
        theta = estimate_doa(x, ula_k, 3.0, 101)
        back = ULAModel(4, 1.0, dataclasses.replace(ula_k.noise, p=4))
        estimate_doa(make_doa_data(back, 200, 4), back, 3.0, 101)
        assert basis_builds == [(101, 4), (101, 5)]     # p = 4 is not rebuilt
        curve = _fresh_scan(ula_k, 101, *_gaussian_moments(x, 3.0))
        assert theta == curve.argmax_theta
        assert np.array_equal(curve.thetas, ula_k.grid(101))

    def test_not_in_eq_repr_or_replace(self, ula_k, basis_builds):
        """The basis is no part of a model: == and repr see the geometry
        alone, and a dataclasses.replace copy reads the same read-only
        arrays without a build of its own."""
        fresh = ULAModel(4, 1.0, ula_k.noise)
        before = repr(ula_k)
        x = make_doa_data(ula_k, 50, 5)
        curve = mt_spectrum(x, ula_k, 3.0, k_theta=101)
        assert [f.name for f in dataclasses.fields(ula_k)] == [
            "p", "sigma2_s", "noise"]
        assert ula_k == fresh and repr(ula_k) == repr(fresh) == before
        copy = dataclasses.replace(ula_k)
        assert copy == ula_k
        assert mt_spectrum(x, copy, 3.0, k_theta=101).thetas is curve.thetas
        assert basis_builds == [(101, 4)]
        thetas, basis = doa._basis(copy.p, 101)
        assert not thetas.flags.writeable and not basis.flags.writeable
        with pytest.raises(ValueError):
            basis[0, 0] = 0.0

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
                fresh = _fresh_scan(ula_k, k_theta,
                                    *_gaussian_moments(x, omega))
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
            assert bartlett_doa(x, ula_k, k_theta) == _fresh_scan(
                ula_k, k_theta, mom.mt_mean, mom.mt_cov).argmax_theta

    def test_cached_grid_is_read_only(self, ula_k):
        curve = mt_spectrum(make_doa_data(ula_k, 50, 6), ula_k, 3.0, k_theta=101)
        with pytest.raises(ValueError):
            curve.thetas[0] = 0.0


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
        x = np.tile(steering(1.5, 4), (20, 1))
        curve = mt_spectrum(x, ula_gaussian, 5.0, k_theta=2)
        assert curve.values[1] > curve.values[0]
        assert curve.argmax_theta == curve.thetas[1]

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

    @pytest.mark.parametrize("row, scale", [(6e154, 1.0), (1e155, 1.0),
                                            (None, 2.0 ** 510)],
                             ids=["row6e154", "row1e155", "scale2**510"])
    def test_overflowing_spectrum_scans_exactly(self, row, scale):
        """A finite covariance whose lag sums or spectrum overflow (one row
        near 1e155, or the whole set scaled by 2^510) is scanned at a power
        of two, without a warning: the row gives the angle it dominates at
        1e154, the scaled set the unscaled set's angle. A 1.2e155 row, whose
        covariance itself overflows, still raises."""
        ula = ULAModel(4, 1.0, NoiseSpec(
            "k", doa_sigma2_for_snr_db(1.0, -5.0), 4, lam=0.75))
        ref = synthesize_doa(4, THETA0_DOA, 1.0, ula.noise, 300,
                             stream_rng(0, 1))
        x = scale * ref
        if row is not None:
            x[0], ref[0] = row * (1 + 1j), 1e154 * (1 + 1j)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for k_theta in (721, 2001):
                assert bartlett_doa(x, ula, k_theta) == bartlett_doa(
                    ref, ula, k_theta)
            if row is not None:
                assert bartlett_doa(x, ula, 721) == pytest.approx(-0.0005,
                                                                  abs=1e-12)
            x[0] = 1.2e155 * (1 + 1j)
            with pytest.raises(NotPositiveDefinite, match="covariance"):
                bartlett_doa(x, ula, 721)

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
                assert fit(float(omega))[:2] == (theta, trace)

    @pytest.mark.parametrize("snr_db", [-10.0, 0.0])
    def test_grid_independent(self, snr_db):
        """A width's (theta_hat, MSE, phi) from a fitter called over the 30
        widths in shuffled order are bit-for-bit a fresh fitter's, so the
        latest-angle statistics the fitter keeps do not depend on call order,
        and the order of the grid changes no selection output."""
        noise = NoiseSpec("k", doa_sigma2_for_snr_db(1.0, snr_db), 4, lam=0.75)
        model = ULAModel(4, 1.0, noise)
        omegas = np.linspace(1.0, 30.0, 30)
        for stream in (0, 1):
            x = synthesize_doa(4, THETA0_DOA, 1.0, noise, 1000,
                               stream_rng(59, stream))
            fit = mt_fitter_doa(x, model)
            shuffled = np.random.default_rng(stream).permutation(omegas)
            for omega in shuffled:
                alone = mt_fitter_doa(x, model)(omega)
                for got, want in zip(fit(omega), alone):
                    assert np.array_equal(got, want)
            sel = select_by_trace(omegas, mt_fitter_doa(x, model))
            for grid in (omegas, omegas[::-1], shuffled):
                other = select_by_trace(grid, fit)
                assert other.omega_opt == sel.omega_opt
                assert np.array_equal(other.traces, sel.traces)
                assert other.best_estimate == sel.best_estimate

    def test_zero_snapshots_fail_every_width(self, ula_k):
        fit = mt_fitter_doa(np.zeros((10, 4), dtype=complex), ula_k, 101)
        omegas = [1.0, 4.0, 16.0]
        for omega in omegas:
            with pytest.raises(SingularMatrix):
                fit(omega)
        with pytest.raises(DegenerateWeights):
            select_by_trace(omegas, fit)


class TestMomentModelSolver:
    @pytest.mark.parametrize("omega", [1.0, 3.0, 10.0])
    @pytest.mark.parametrize("seed", range(5))
    def test_solver_replays_the_scan(self, ula_k, omega, seed):
        """The closed-form solver of the generic-path model is the
        reweighted scan: the fit picks the angle estimate_doa picks."""
        x = make_doa_data(ula_k, 500, 600 + seed)
        mm = doa_moment_model(ula_k, x, omega, k_theta=721)
        est = estimate_mt_gqmle(x, gaussian_mt_function(omega), mm)
        assert est.method == "closed-form"
        assert est.theta[0] == estimate_doa(x, ula_k, omega, 721)
        assert est.theta[0] == mm.info["theta_ref"]


class TestLagRoute:
    """The fitter reads each width's spectrum from phi @ (per-sample lag
    table) and keeps the slope and curvature statistics of the latest angle."""

    @pytest.mark.parametrize("p", [2, 3, 4, 7])
    def test_weighted_lag_table_matches_moment_route(self, p):
        noise = NoiseSpec("k", doa_sigma2_for_snr_db(1.0, -10.0), p, lam=0.75)
        x = synthesize_doa(p, THETA0_DOA, 1.0, noise, 500, stream_rng(61, p))
        x = x + (0.5 - 0.3j)    # a mean the moment route removes and restores
        table = doa._lag_table(x, GaussianWeights(x).norms)
        for omega in (1.0, 3.0, 10.0, 1e6):
            mom = empirical_mt_moments(x, gaussian_mt_function(omega))
            lags = doa._lags(mom.mt_mean, mom.mt_cov)
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
                    assert fit(float(omega))[:2] == (
                        theta, empirical_asymptotic_mse_doa(x, model, theta,
                                                            float(omega)))

    def test_slope_and_curvature_once_per_angle(self, monkeypatch, ula_k):
        """One _slope_curvature call per change of angle, in the order the
        widths are visited: a width that returns to an earlier angle
        recomputes its statistics. A fresh fitter starts with none."""
        angles = []
        real = doa._slope_curvature

        def counting(x, theta, p):
            angles.append(theta)
            return real(x, theta, p)

        monkeypatch.setattr(doa, "_slope_curvature", counting)
        x = make_doa_data(ula_k, 2000, 62)
        omegas = np.linspace(1.0, 30.0, 30)
        fit = mt_fitter_doa(x, ula_k)
        visited = [fit(float(omega))[0]
                   for omega in np.concatenate([omegas, omegas[::-1]])]
        changes = [theta for i, theta in enumerate(visited)
                   if i == 0 or theta != visited[i - 1]]
        assert angles == changes
        assert 1 < len(set(visited)) < 30 and len(changes) > len(set(visited))
        # a new fitter starts with no angle, even the old one's latest
        assert mt_fitter_doa(x, ula_k)(1.0)[0] == visited[-1]
        assert angles == changes + [visited[-1]]

    def test_memory_does_not_grow_with_the_widths(self):
        """The fitter keeps one angle's statistics, so on one shipped-shape
        dataset the tracemalloc peak of a 30-width selection exceeds that of
        a 1-width selection by less than 6 n floats."""
        n = 5000
        noise = NoiseSpec("k", doa_sigma2_for_snr_db(1.0, -10.0), 4, lam=0.75)
        model = ULAModel(4, 1.0, noise)
        x = synthesize_doa(4, THETA0_DOA, 1.0, noise, n, stream_rng(66, 0))
        omegas = np.linspace(1.0, 30.0, 30)
        peaks = []
        for grid in (omegas[:1], omegas):
            fit = mt_fitter_doa(x, model)       # built before tracing
            tracemalloc.start()
            try:
                select_by_trace(grid, fit)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 6 * n * 8

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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("r", [1e160, 1e200, 1e300])
    def test_zero_weight_gives_exact_zero(self, ula_k, r):
        """A point of zero weight has zero influence, also where its scan
        statistic overflows (0 * inf is NaN)."""
        val = influence_doa(r * np.ones(4, dtype=complex) / 2, THETA0_DOA,
                            ula_k, 5.0)
        assert val == 0.0 and not np.signbit(val)

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


@pytest.mark.parametrize("k_theta", [1, 0, -3])
def test_grid_needs_two_points(k_theta):
    with pytest.raises(ValueError, match="need at least 2 grid points"):
        ULAModel.grid(k_theta)
