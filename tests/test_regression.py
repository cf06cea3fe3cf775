import dataclasses
import warnings

import numpy as np
import pytest
from scipy import integrate, stats

from mtqmle import regression
from mtqmle.asymptotics import select_by_trace
from mtqmle.estimator import ParameterSpace, estimate_mt_gqmle
from mtqmle.exceptions import DegenerateWeights
from mtqmle.regression import (
    RegressionModel,
    asymptotic_mse_regression,
    build_steering_regressors,
    empirical_asymptotic_mse_regression,
    fit_noise_cov_scalars,
    gaussian_crlb_regression,
    gaussian_fim_regression,
    influence_regression,
    mean_weight_regression,
    mt_fitter_regression,
    mt_gqmle_regression,
    projected_mt_function,
    realify,
    realify_matrix,
    regression_moment_model,
    unrealify,
)
from mtqmle.samplers import (NoiseSpec, regression_sigma2_for_snr_db,
                             sample_noise, stream_rng, synthesize_regression)
from mtqmle.transform import GaussianWeights, empirical_mt_moments

from conftest import THETA0_REG, whole_array_texture_mean


class TestBuildRegressors:
    def test_column_norms(self, reg_gaussian):
        norms = np.linalg.norm(reg_gaussian.a_matrix, axis=0)
        np.testing.assert_allclose(norms, 1 / np.sqrt(2), rtol=1e-12)

    def test_entry_modulus(self, reg_gaussian):
        np.testing.assert_allclose(np.abs(reg_gaussian.a_matrix),
                                   1 / np.sqrt(2 * 10), rtol=1e-12)

    def test_gram_diagonal(self, reg_gaussian):
        np.testing.assert_allclose(np.diag(reg_gaussian.aha).real, 0.5,
                                   rtol=1e-12)

    def test_equal_angles_warn_and_raise(self):
        noise = NoiseSpec("gaussian", 1.0, 6)
        with pytest.warns(RuntimeWarning, match="nearly equal"), \
                pytest.raises(ValueError, match="full column rank"):
            build_steering_regressors(6, 0.7, 0.7, noise)

    def test_near_equal_angles_warn_but_build(self):
        """Columns 1e-9 apart pass the rank test: cond(A^H A) ~ 2.5e16 is
        ill-conditioned, not rank deficient."""
        noise = NoiseSpec("gaussian", 1.0, 10)
        with pytest.warns(RuntimeWarning, match="nearly equal"):
            model = build_steering_regressors(10, 0.5, 0.5 + 1e-9, noise)
        assert model.p == 10 and np.linalg.cond(model.aha) > 1e15

    def test_rank_deficient_raises(self):
        noise = NoiseSpec("gaussian", 1.0, 4)
        with pytest.raises(ValueError, match="full column rank"):
            RegressionModel(np.ones((4, 2), dtype=complex), noise)

    @pytest.mark.parametrize("p, match", [(1, "at least 2"), (2, "tall")])
    def test_too_few_sensors_raise(self, p, match):
        with pytest.raises(ValueError, match=match):
            build_steering_regressors(p, 0.3, 0.9,
                                      NoiseSpec("gaussian", 1.0, p))

    def test_realify_roundtrip(self, rng):
        alpha = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        np.testing.assert_allclose(unrealify(realify(alpha)), alpha)
        c = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        np.testing.assert_allclose(realify_matrix(c) @ realify(v),
                                   realify(c @ v), rtol=1e-12)


class TestClosedFormEstimator:
    def test_noiseless_exact(self, reg_gaussian, alpha0):
        x = np.tile(reg_gaussian.a_matrix @ alpha0, (10, 1))
        theta = mt_gqmle_regression(x, reg_gaussian, 3.0)
        np.testing.assert_allclose(theta, THETA0_REG, atol=1e-12)

    def test_wide_width_equals_least_squares(self, reg_gaussian, alpha0):
        x = synthesize_regression(reg_gaussian.a_matrix, alpha0,
                                  reg_gaussian.noise, 256, stream_rng(31, 0))
        wide = mt_gqmle_regression(x, reg_gaussian, 1e6)
        a = reg_gaussian.a_matrix
        ls = realify(np.linalg.solve(a.conj().T @ a, a.conj().T @ x.mean(axis=0)))
        np.testing.assert_allclose(wide, ls, atol=1e-6)

    def test_shift_equivariance(self, reg_t, alpha0, rng):
        x = synthesize_regression(reg_t.a_matrix, alpha0, reg_t.noise, 300,
                                  stream_rng(32, 0))
        delta = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        shifted = x + reg_t.a_matrix @ delta
        t1 = mt_gqmle_regression(x, reg_t, 4.0)
        t2 = mt_gqmle_regression(shifted, reg_t, 4.0)
        np.testing.assert_allclose(t2, t1 + realify(delta), atol=1e-9)

    def test_matches_generic_grid_search(self, reg_t, alpha0):
        x = synthesize_regression(reg_t.a_matrix, alpha0, reg_t.noise, 500,
                                  stream_rng(33, 0))
        omega = 6.0
        closed = mt_gqmle_regression(x, reg_t, omega)
        u = projected_mt_function(reg_t, omega)
        pad, grid_n = 0.3, 13
        mm = dataclasses.replace(
            regression_moment_model(reg_t, x, u), solver=None,
            space=ParameterSpace(closed - pad, closed + pad, grid_n))
        est = estimate_mt_gqmle(x, u, mm)
        step = 2 * pad / (grid_n - 1)
        assert np.max(np.abs(est.theta - closed)) <= step / 2 + 1e-12


class TestNoiseMomentStructure:
    def test_pure_noise_reweighted_moments(self, reg_t):
        """Reweighted noise mean ~ 0 and covariance ~ r0 P_A + r1 I."""
        n = 10 ** 5
        w = sample_noise(reg_t.noise, n, stream_rng(34, 0))
        u = projected_mt_function(reg_t, 3.0)
        mom = empirical_mt_moments(w, u)
        ess = 1.0 / np.sum(mom.weights ** 2)
        r0, r1 = fit_noise_cov_scalars(reg_t, mom.mt_cov)
        # mean band: weighted-average of ~ess independent p-vectors
        band = 4.0 * np.sqrt(reg_t.p * (r0 + r1) / ess)
        assert np.linalg.norm(mom.mt_mean) < band
        fitted = r0 * reg_t.proj_a + r1 * np.eye(reg_t.p)
        resid = np.linalg.norm(mom.mt_cov - fitted) / np.linalg.norm(mom.mt_cov)
        assert resid < 0.05
        assert r0 > 0 and r1 > 0


class TestAsymptoticMSE:
    def test_gaussian_wide_limit_is_crlb(self, reg_gaussian):
        wide = asymptotic_mse_regression(reg_gaussian, 1e8, 1000)
        crlb = gaussian_crlb_regression(reg_gaussian, 1000)
        np.testing.assert_allclose(wide, crlb, rtol=1e-10)

    def test_gaussian_finite_width_ratio(self, reg_gaussian):
        # deterministic texture: ratio has an explicit closed form
        expo = reg_gaussian.p - reg_gaussian.q
        s2 = reg_gaussian.sigma2_z
        for omega in (1.0, 2.0, 5.0):
            got = asymptotic_mse_regression(reg_gaussian, omega, 500)
            ratio = ((1 + 2 * s2 / omega ** 2) ** -expo
                     * (1 + s2 / omega ** 2) ** (2 * expo))
            want = ratio * gaussian_crlb_regression(reg_gaussian, 500)
            np.testing.assert_allclose(got, want, rtol=1e-10)

    @pytest.mark.parametrize("noise", ["reg_gaussian", "reg_t"])
    def test_underflowing_width_raises(self, noise, request):
        """At omega = 1e-30 every texture average underflows to 0; the
        closed form raises instead of dividing by it."""
        model = request.getfixturevalue(noise)
        with pytest.raises(ValueError, match="texture expectation"):
            asymptotic_mse_regression(model, 1e-30, 1000)

    def test_n_scaling(self, reg_t):
        m1 = asymptotic_mse_regression(reg_t, 4.0, 1000)
        m2 = asymptotic_mse_regression(reg_t, 4.0, 2000)
        np.testing.assert_allclose(m1, 2 * m2, rtol=1e-12)

    def test_t_texture_against_quadrature_oracle(self, reg_t):
        """Fixed-seed Monte Carlo texture averages vs adaptive quadrature."""
        lam = reg_t.noise.lam
        expo = reg_t.p - reg_t.q
        s2 = reg_t.sigma2_z
        omega = 5.0
        w2 = omega ** 2
        mixer = stats.gamma(lam / 2.0)   # nu^2 = lam / (2 G)

        def quad_expect(fn):
            val, _ = integrate.quad(
                lambda g: fn(lam / (2.0 * g)) * mixer.pdf(g), 0.0, np.inf,
                limit=400)
            return val

        num = quad_expect(lambda nu2: nu2 * (w2 / (2 * s2 * nu2 + w2)) ** expo)
        den = quad_expect(lambda nu2: (w2 / (s2 * nu2 + w2)) ** expo)
        oracle = num / den ** 2 * np.trace(
            s2 / (2 * 1000) * reg_t.b_matrix)
        got = np.trace(asymptotic_mse_regression(reg_t, omega, 1000))
        assert got == pytest.approx(oracle, rel=0.01)

    def test_mean_weight_matches_quadrature(self, reg_t):
        lam = reg_t.noise.lam
        expo = reg_t.p - reg_t.q
        s2 = reg_t.sigma2_z
        w2 = 16.0
        mixer = stats.gamma(lam / 2.0)
        oracle, _ = integrate.quad(
            lambda g: (w2 / (s2 * lam / (2 * g) + w2)) ** expo * mixer.pdf(g),
            0.0, np.inf, limit=400)
        assert mean_weight_regression(reg_t, 4.0) == pytest.approx(oracle,
                                                                   rel=0.01)


class TestChunkedTextureExpectation:
    @pytest.mark.parametrize("omega", [1.0, 4.0, 12.0, 30.0])
    def test_texture_ratio_and_mean_weight_match_whole_array(self, reg_t, omega):
        """Both texture averages equal, with ==, one whole-array evaluation."""
        expo = reg_t.p - reg_t.q
        s2 = reg_t.sigma2_z
        w2 = float(omega) ** 2
        mean_w = whole_array_texture_mean(
            reg_t.noise, lambda nu2: np.exp(expo * (np.log(w2) - np.log(s2 * nu2 + w2))))
        num = whole_array_texture_mean(
            reg_t.noise,
            lambda nu2: np.exp(np.log(nu2) + expo * (np.log(w2) - np.log(2.0 * s2 * nu2 + w2))))
        assert regression._mean_weight.__wrapped__(reg_t.noise, expo, omega) == mean_w
        assert regression._texture_ratio(reg_t, omega) == num / mean_w ** 2


class TestEmpiricalAsymptoticMSE:
    def test_duplication_halves(self, reg_t, alpha0):
        x = synthesize_regression(reg_t.a_matrix, alpha0, reg_t.noise, 300,
                                  stream_rng(35, 0))
        one = empirical_asymptotic_mse_regression(x, reg_t, 5.0)
        two = empirical_asymptotic_mse_regression(np.concatenate([x, x]),
                                                  reg_t, 5.0)
        np.testing.assert_allclose(two, one / 2, rtol=1e-10)

    def test_tracks_closed_form_at_moderate_n(self, reg_t, alpha0):
        n = 1000
        x = synthesize_regression(reg_t.a_matrix, alpha0, reg_t.noise, n,
                                  stream_rng(36, 0))
        emp = np.trace(empirical_asymptotic_mse_regression(x, reg_t, 8.0))
        closed = np.trace(asymptotic_mse_regression(reg_t, 8.0, n))
        assert emp == pytest.approx(closed, rel=0.15)


class TestFitter:
    @pytest.mark.parametrize("snr_db", [-10.0, 0.0])
    def test_equals_per_width_fit(self, reg_gaussian, alpha0, snr_db):
        """Every width of the per-dataset fitter is bit-for-bit the fixed-omega
        estimate, and its MSE matrix is sum u^2 zeta zeta^T / (sum u)^2
        written out from the public weights (u max-shifted) up to rounding:
        the fitter forms zeta as z0 - theta_hat."""
        sigma2 = regression_sigma2_for_snr_db(reg_gaussian.a_matrix, snr_db)
        model = build_steering_regressors(10, np.pi / 3, np.pi / 6,
                                          NoiseSpec("t", sigma2, 10, lam=0.2))
        for stream in (0, 1):
            x = synthesize_regression(model.a_matrix, alpha0, model.noise,
                                      500, stream_rng(38, stream))
            fit = mt_fitter_regression(x, model)
            for omega in np.linspace(1.0, 30.0, 30):
                theta, mse = fit(float(omega))[:2]
                u = projected_mt_function(model, float(omega))
                lw = u.log_weights(x)
                scaled = np.exp(lw - np.max(lw))
                mean = empirical_mt_moments(x, u).mt_mean
                h = (x - mean) @ model.a_matrix.conj()
                zeta = np.concatenate([h.real, h.imag], axis=1) @ model.b_matrix.T
                oracle = np.einsum("n,nk,nj->kj", scaled ** 2,
                                   zeta, zeta) / np.sum(scaled) ** 2
                np.testing.assert_allclose(
                    mse, oracle, rtol=0, atol=1e-12 * np.abs(oracle).max())
                assert np.array_equal(
                    theta, mt_gqmle_regression(x, model, float(omega)))

    @pytest.mark.parametrize("snr_db", [-10.0, 0.0])
    def test_grid_independent(self, reg_gaussian, alpha0, snr_db):
        """A width's (theta_hat, MSE, phi) from a fitter called over the 30
        widths are bit-for-bit a fresh fitter's, theta_hat is the fixed-omega
        estimate, and the order of the grid changes no selection output."""
        sigma2 = regression_sigma2_for_snr_db(reg_gaussian.a_matrix, snr_db)
        model = build_steering_regressors(10, np.pi / 3, np.pi / 6,
                                          NoiseSpec("t", sigma2, 10, lam=0.2))
        omegas = np.linspace(1.0, 30.0, 30)
        for stream in (0, 1):
            x = synthesize_regression(model.a_matrix, alpha0, model.noise,
                                      500, stream_rng(39, stream))
            fit = mt_fitter_regression(x, model)
            for omega in omegas:
                alone = mt_fitter_regression(x, model)(omega)
                for got, want in zip(fit(omega), alone):
                    assert np.array_equal(got, want)
                assert np.array_equal(fit(omega)[0],
                                      mt_gqmle_regression(x, model, omega))
            sel = select_by_trace(omegas, fit)
            shuffled = np.random.default_rng(stream).permutation(omegas)
            for grid in (omegas[::-1], shuffled):
                other = select_by_trace(
                    grid, mt_fitter_regression(x, model))
                assert other.omega_opt == sel.omega_opt
                assert np.array_equal(other.traces, sel.traces)
                assert np.array_equal(other.best_estimate,
                                      sel.best_estimate)

    def test_all_overflowing_norms_raise(self, reg_gaussian, alpha0):
        """Scaled by 1e160, every ||P_perp x||^2 overflows: a fixed width
        and the 30-width selection raise DegenerateWeights, with no
        RuntimeWarning on the way."""
        x = 1e160 * synthesize_regression(reg_gaussian.a_matrix, alpha0,
                                          reg_gaussian.noise, 200,
                                          stream_rng(40, 0))
        assert np.all(np.isinf(GaussianWeights(x, reg_gaussian.proj_perp).norms))
        omegas = np.linspace(1.0, 30.0, 30)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateWeights):
                mt_gqmle_regression(x, reg_gaussian, 5.0)
            with pytest.raises(DegenerateWeights):
                select_by_trace(omegas,
                                mt_fitter_regression(x, reg_gaussian))


class TestInfluenceClosedForm:
    def test_zero_at_compensating_point(self, reg_gaussian, alpha0):
        y = reg_gaussian.a_matrix @ alpha0
        val = influence_regression(y, THETA0_REG, reg_gaussian, 3.0)
        np.testing.assert_allclose(val, np.zeros(4), atol=1e-12)

    def test_unbounded_along_regressor_range(self, reg_gaussian, rng):
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        direction = reg_gaussian.a_matrix @ z
        direction /= np.linalg.norm(direction)
        small = np.linalg.norm(
            influence_regression(10 * direction, THETA0_REG, reg_gaussian, 3.0))
        large = np.linalg.norm(
            influence_regression(100 * direction, THETA0_REG, reg_gaussian, 3.0))
        assert large > small

    def test_decays_off_range(self, reg_gaussian, rng):
        z = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        in_r = reg_gaussian.proj_a @ z
        off_r = reg_gaussian.proj_perp @ z
        direction = (np.sqrt(0.9) * in_r / np.linalg.norm(in_r)
                     + np.sqrt(0.1) * off_r / np.linalg.norm(off_r))
        norms = [np.linalg.norm(influence_regression(
            r * direction, THETA0_REG, reg_gaussian, 5.0))
            for r in (10.0, 100.0, 1000.0)]
        assert norms[0] > norms[1] > norms[2]
        assert norms[2] < 1e-6

    def test_underflowing_width_raises(self, reg_gaussian):
        with pytest.raises(ValueError, match="texture expectation"):
            influence_regression(np.zeros(10), THETA0_REG, reg_gaussian, 1e-30)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("r", [1e308, 1.7e308])
    def test_zero_weight_gives_exact_zeros(self, reg_t, r):
        """A point of zero weight has zero influence, also where A^H y
        overflows (0 * inf is NaN)."""
        val = influence_regression(np.full(10, r) * (1 + 1j), THETA0_REG,
                                   reg_t, 5.0)
        np.testing.assert_array_equal(val, np.zeros(4))


class TestLikelihoodGuards:
    def test_non_gaussian_noise_has_no_likelihood(self, reg_t):
        with pytest.raises(ValueError, match="likelihood unknown"):
            gaussian_fim_regression(reg_t)
        with pytest.raises(ValueError, match="likelihood unknown"):
            gaussian_crlb_regression(reg_t, 100)


@pytest.mark.parametrize("noise_p", [4, 6])
def test_noise_dimension_must_match_the_regressors(noise_p):
    a = np.array([[1, 0], [0, 1], [1, 1], [1, -1], [0, 2]], dtype=complex)
    with pytest.raises(ValueError, match="noise dimension differs from "
                                         "observation dimension"):
        RegressionModel(a, NoiseSpec("gaussian", 1.0, noise_p))
