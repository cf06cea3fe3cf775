import numpy as np
import pytest

from mtqmle.core import inv_quad_form, log_det_divergence
from mtqmle.estimator import (
    ParameterSpace,
    ParametricMomentModel,
    check_identifiability,
    estimate_gqmle,
    estimate_mt_gqmle,
    finite_diff_moment_derivatives,
    objective_j_u,
)
from mtqmle.doa import doa_moment_model
from mtqmle.exceptions import NotPositiveDefinite
from mtqmle.regression import (
    mt_gqmle_regression,
    projected_mt_function,
    realify,
    regression_moment_model,
    unrealify,
)
from mtqmle.samplers import NoiseSpec, stream_rng, synthesize_doa, synthesize_regression
from mtqmle.transform import (
    EmpiricalMTMoments,
    MTFunction,
    constant_mt_function,
    empirical_mt_moments,
)

from conftest import THETA0_REG, random_dataset


def model_moments_at(model, theta):
    """Population-style moments: the model's own mean/covariance at theta."""
    return EmpiricalMTMoments(weights=None, mt_mean=model.mt_mean(theta),
                              mt_cov=model.mt_cov(theta))


def small_regression_setup(seed=0, n=200, omega=3.0):
    from mtqmle.regression import build_steering_regressors
    noise = NoiseSpec("gaussian", 1.0, 10)
    model = build_steering_regressors(10, np.pi / 3, np.pi / 6, noise)
    alpha0 = unrealify(THETA0_REG)
    x = synthesize_regression(model.a_matrix, alpha0, noise, n,
                              stream_rng(seed, 0))
    u = projected_mt_function(model, omega)
    return model, x, u


class TestParameterSpace:
    def test_grid_includes_endpoints(self):
        space = ParameterSpace([-1.0], [1.0], 5)
        axis = space.axes()[0]
        assert axis[0] == -1.0 and axis[-1] == 1.0 and axis.size == 5

    def test_cartesian_order_lowest_first(self):
        space = ParameterSpace([0.0, 0.0], [1.0, 1.0], [2, 2])
        pts = space.grid_points()
        np.testing.assert_array_equal(pts[0], [0.0, 0.0])
        np.testing.assert_array_equal(pts[1], [0.0, 1.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            ParameterSpace([0.0], [-1.0], 3)
        with pytest.raises(ValueError):
            ParameterSpace([0.0], [np.inf], 3)
        with pytest.raises(ValueError):
            ParameterSpace([0.0], [1.0], 0)

    def test_boundary_detection(self):
        space = ParameterSpace([0.0], [1.0], 11)
        assert space.on_boundary([0.0]) and space.on_boundary([1.0])
        assert not space.on_boundary([0.5])


class TestObjective:
    def test_perfect_fit_is_zero(self, reg_gaussian, rng):
        x = random_dataset(rng, 50, 10)
        u = projected_mt_function(reg_gaussian, 2.0)
        mm = regression_moment_model(reg_gaussian, x, u)
        theta = np.zeros(4)
        moments = model_moments_at(mm, theta)
        assert abs(objective_j_u(moments, mm, theta)) < 1e-10

    def test_doubled_covariance_value(self):
        space = ParameterSpace([0.0], [1.0], 3)
        eye = np.eye(2, dtype=complex)
        mm = ParametricMomentModel(
            theta_dim=1,
            mt_mean=lambda th: np.zeros(2, dtype=complex),
            mt_cov=lambda th: eye,
            d_mean=lambda th: np.zeros((1, 2), dtype=complex),
            d_cov=lambda th: np.zeros((1, 2, 2), dtype=complex),
            space=space)
        moments = EmpiricalMTMoments(weights=None,
                                     mt_mean=np.zeros(2, dtype=complex),
                                     mt_cov=2 * eye)
        assert objective_j_u(moments, mm, [0.5]) == pytest.approx(
            -(2 - 2 * np.log(2)), abs=1e-12)

    def test_matches_primitive_composition(self, rng, reg_gaussian):
        x = random_dataset(rng, 60, 10)
        u = projected_mt_function(reg_gaussian, 2.0)
        mm = regression_moment_model(reg_gaussian, x, u)
        moments = empirical_mt_moments(x, u)
        theta = np.array([0.1, -0.2, 0.3, 0.05])
        sigma = mm.mt_cov(theta)
        oracle = -(log_det_divergence(moments.mt_cov, sigma)
                   + inv_quad_form(moments.mt_mean - mm.mt_mean(theta), sigma))
        assert objective_j_u(moments, mm, theta) == pytest.approx(oracle,
                                                                  rel=1e-12)

    @pytest.mark.parametrize("seed", range(3))
    def test_never_positive(self, seed, reg_gaussian):
        rng = np.random.default_rng(seed)
        x = random_dataset(rng, 40, 10)
        u = projected_mt_function(reg_gaussian, 2.0)
        mm = regression_moment_model(reg_gaussian, x, u)
        moments = empirical_mt_moments(x, u)
        theta = rng.standard_normal(4)
        assert objective_j_u(moments, mm, theta) <= 1e-12

    def test_non_pd_model_cov_raises(self):
        space = ParameterSpace([0.0], [1.0], 3)
        bad = ParametricMomentModel(
            theta_dim=1,
            mt_mean=lambda th: np.zeros(2, dtype=complex),
            mt_cov=lambda th: np.diag([1.0, -1.0]).astype(complex),
            d_mean=lambda th: np.zeros((1, 2), dtype=complex),
            d_cov=lambda th: np.zeros((1, 2, 2), dtype=complex),
            space=space)
        moments = EmpiricalMTMoments(weights=None,
                                     mt_mean=np.zeros(2, dtype=complex),
                                     mt_cov=np.eye(2, dtype=complex))
        with pytest.raises(NotPositiveDefinite):
            objective_j_u(moments, bad, [0.5])


class TestEstimate:
    def test_constant_u_equals_gqmle(self):
        model, x, _ = small_regression_setup(seed=3)
        mm = regression_moment_model(model, x, constant_mt_function())
        a = estimate_mt_gqmle(x, constant_mt_function(), mm)
        b = estimate_gqmle(x, mm)
        np.testing.assert_array_equal(a.theta, b.theta)

    def test_noiseless_recovers_truth(self, reg_gaussian, alpha0):
        x = np.tile(reg_gaussian.a_matrix @ alpha0, (20, 1))
        u = projected_mt_function(reg_gaussian, 2.0)
        mm = regression_moment_model(reg_gaussian, x, u)
        est = estimate_mt_gqmle(x, u, mm)
        np.testing.assert_allclose(est.theta, THETA0_REG, atol=1e-10)
        assert est.method == "closed-form"

    def test_grid_matches_closed_form_within_resolution(self):
        model, x, u = small_regression_setup(seed=5, n=400)
        closed = mt_gqmle_regression(x, model, 3.0)
        pad = 0.25
        grid_n = 11
        space = ParameterSpace(closed - pad, closed + pad, grid_n)
        mm = regression_moment_model(model, x, u, use_solver=False)
        mm.space = space
        est = estimate_mt_gqmle(x, u, mm)
        step = 2 * pad / (grid_n - 1)
        assert est.method == "grid"
        assert np.max(np.abs(est.theta - closed)) <= step / 2 + 1e-12

    def test_grid_result_beats_all_grid_points(self):
        model, x, u = small_regression_setup(seed=6, n=100)
        moments = empirical_mt_moments(x, u)
        mm = regression_moment_model(model, x, u, use_solver=False,
                                     bounds=1.0, grid_size=4)
        est = estimate_mt_gqmle(x, u, mm)
        vals = [objective_j_u(moments, mm, th) for th in mm.space.grid_points()]
        assert est.objective >= max(vals) - 1e-12

    def test_scale_invariance_of_estimate(self):
        model, x, u = small_regression_setup(seed=7)
        scaled = MTFunction(lambda d: u.log_weights(d) + np.log(5.0))
        mm = regression_moment_model(model, x, u)
        t1 = estimate_mt_gqmle(x, u, mm).theta
        t2 = estimate_mt_gqmle(x, scaled, mm).theta
        np.testing.assert_allclose(t1, t2, rtol=1e-14)

    def test_gqmle_equals_least_squares_oracle(self):
        model, x, _ = small_regression_setup(seed=8)
        mm = regression_moment_model(model, x, constant_mt_function())
        est = estimate_gqmle(x, mm)
        a = model.a_matrix
        alpha_ls = np.linalg.solve(a.conj().T @ a, a.conj().T @ x.mean(axis=0))
        np.testing.assert_allclose(est.theta, realify(alpha_ls), rtol=1e-10)


class TestUniqueMaximizer:
    def test_regression_population_objective(self, reg_gaussian, rng):
        x = random_dataset(rng, 100, 10)
        u = projected_mt_function(reg_gaussian, 2.0)
        mm = regression_moment_model(reg_gaussian, x, u, use_solver=False,
                                     bounds=1.0, grid_size=5)
        theta0 = np.array([0.5, -0.5, 0.0, 0.5])  # on the grid
        moments = model_moments_at(mm, theta0)
        pts = mm.space.grid_points()
        vals = [objective_j_u(moments, mm, th) for th in pts]
        best = pts[int(np.argmax(vals))]
        np.testing.assert_allclose(best, theta0, atol=1e-12)

    def test_doa_population_objective(self, ula_gaussian):
        x = synthesize_doa(4, 0.4, 1.0, ula_gaussian.noise, 600,
                           stream_rng(21, 0))
        mm = doa_moment_model(ula_gaussian, x, 4.0, k_theta=721)
        theta0 = 0.35
        moments = model_moments_at(mm, np.array([theta0]))
        pts = mm.space.grid_points().ravel()
        vals = [objective_j_u(moments, mm, [th]) for th in pts]
        best = pts[int(np.argmax(vals))]
        nearest = pts[np.argmin(np.abs(pts - theta0))]
        assert best == pytest.approx(nearest, abs=1e-12)


class TestFiniteDiffDerivatives:
    def test_constant_model_zero(self):
        space = ParameterSpace([-1.0], [1.0], 3)
        eye = np.eye(2, dtype=complex)
        mm = ParametricMomentModel(
            theta_dim=1,
            mt_mean=lambda th: np.ones(2, dtype=complex),
            mt_cov=lambda th: eye,
            d_mean=lambda th: np.zeros((1, 2), dtype=complex),
            d_cov=lambda th: np.zeros((1, 2, 2), dtype=complex),
            space=space)
        dm, dc = finite_diff_moment_derivatives(mm, [0.0], 0, 1e-5)
        assert np.abs(dm).max() == 0.0 and np.abs(dc).max() == 0.0

    def test_regression_analytic_vs_fd(self, reg_gaussian, rng):
        x = random_dataset(rng, 50, 10)
        u = projected_mt_function(reg_gaussian, 2.0)
        mm = regression_moment_model(reg_gaussian, x, u)
        theta = np.array([0.2, 0.1, -0.3, 0.4])
        for k in range(4):
            fd_mean, fd_cov = finite_diff_moment_derivatives(mm, theta, k, 1e-5)
            analytic = mm.d_mean(theta)[k]
            rel = np.linalg.norm(fd_mean - analytic) / np.linalg.norm(analytic)
            assert rel < 1e-6
            assert np.abs(fd_cov).max() < 1e-10

    def test_doa_fd_matches_analytic_cov_derivative(self, ula_gaussian):
        x = synthesize_doa(4, 0.3, 1.0, ula_gaussian.noise, 500,
                           stream_rng(22, 0))
        mm = doa_moment_model(ula_gaussian, x, 4.0, k_theta=721)
        theta = np.array([0.3])
        _, fd_cov = finite_diff_moment_derivatives(mm, theta, 0, 1e-6)
        analytic = mm.d_cov(theta)[0]
        rel = np.linalg.norm(fd_cov - analytic) / np.linalg.norm(analytic)
        assert rel < 1e-6

    def test_bad_step(self, reg_gaussian, rng):
        x = random_dataset(rng, 20, 10)
        mm = regression_moment_model(
            reg_gaussian, x, projected_mt_function(reg_gaussian, 2.0))
        with pytest.raises(ValueError):
            finite_diff_moment_derivatives(mm, np.zeros(4), 0, 0.0)


class TestIdentifiability:
    def test_regression_full_rank_clean(self, reg_gaussian, rng):
        x = random_dataset(rng, 50, 10)
        mm = regression_moment_model(
            reg_gaussian, x, projected_mt_function(reg_gaussian, 2.0),
            bounds=1.0, grid_size=4)
        report = check_identifiability(mm, np.zeros(4))
        assert report.ok and report.n_checked == 4 ** 4

    def test_duplicated_coordinate_flags(self):
        # mean map ignores the second coordinate entirely
        space = ParameterSpace([0.0, 0.0], [1.0, 1.0], 3)
        eye = np.eye(2, dtype=complex)
        mm = ParametricMomentModel(
            theta_dim=2,
            mt_mean=lambda th: np.array([th[0], 0.0], dtype=complex),
            mt_cov=lambda th: eye,
            d_mean=lambda th: np.array([[1.0, 0.0], [0.0, 0.0]],
                                       dtype=complex),
            d_cov=lambda th: np.zeros((2, 2, 2), dtype=complex),
            space=space)
        report = check_identifiability(mm, np.array([0.5, 0.5]))
        assert not report.ok
        assert all(abs(th[0] - 0.5) < 1e-12 for th, _, _ in report.flagged)

    def test_doa_grid_clean(self, ula_gaussian):
        x = synthesize_doa(4, 0.3, 1.0, ula_gaussian.noise, 500,
                           stream_rng(23, 0))
        mm = doa_moment_model(ula_gaussian, x, 4.0, k_theta=801)
        report = check_identifiability(mm, np.array([0.3001]))
        assert report.ok
