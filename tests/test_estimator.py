import dataclasses
import itertools

import numpy as np
import pytest

from mtqmle import estimator
from mtqmle.estimator import (
    ParameterSpace,
    ParametricMomentModel,
    check_identifiability,
    estimate_gqmle,
    estimate_mt_gqmle,
    objective_j_u,
)
from mtqmle.doa import doa_moment_model, steering
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
    gaussian_mt_function,
)

from conftest import (THETA0_REG, finite_diff_moment_derivatives,
                      inv_quad_form, log_det_divergence, random_dataset,
                      regression_box)


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

    @pytest.mark.parametrize("lower, upper, sizes", [
        ([0.0], [np.pi], 721),
        ([-3.0] * 4, [3.0] * 4, 9),
        ([-1.0, 0.0], [1.0, 2.0], [3, 7]),
        ([0.5], [0.5], 1),
        ([], [], []),
    ])
    def test_grid_matches_product_oracle(self, lower, upper, sizes):
        space = ParameterSpace(lower, upper, sizes)
        oracle = np.array(list(itertools.product(*space.axes())))
        pts = space.grid_points()
        assert pts.shape == oracle.shape and pts.dtype == oracle.dtype
        np.testing.assert_array_equal(pts, oracle)

    def test_validation(self):
        with pytest.raises(ValueError):
            ParameterSpace([0.0], [-1.0], 3)
        with pytest.raises(ValueError):
            ParameterSpace([0.0], [np.inf], 3)
        with pytest.raises(ValueError):
            ParameterSpace([0.0], [1.0], 0)

    @pytest.mark.parametrize("lower, upper, sizes", [
        ([0.0, 0.0], [1.0, 1.0], [3, 3, 3]),
        ([0.0], [1.0, 2.0], 3),
    ])
    def test_mismatched_lengths_rejected(self, lower, upper, sizes):
        with pytest.raises(ValueError, match="sizes differ"):
            ParameterSpace(lower, upper, sizes)

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
            mt_mean=lambda th: np.zeros(np.shape(th)[:-1] + (2,), dtype=complex),
            mt_cov=lambda th: np.broadcast_to(eye, np.shape(th)[:-1] + (2, 2)),
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

    def test_exact_match_is_zero_up_to_rounding(self):
        """J_u <= 0 holds up to rounding: where the model matches the
        moments exactly it may read a few ulps above zero."""
        val = objective_j_u(TOY_MOMENTS, table_model([1, .5, .25, 0]), [3])
        assert abs(val) <= 8 * np.finfo(float).eps

    def test_non_pd_model_cov_raises(self):
        space = ParameterSpace([0.0], [1.0], 3)
        bad = ParametricMomentModel(
            mt_mean=lambda th: np.zeros(np.shape(th)[:-1] + (2,), dtype=complex),
            mt_cov=lambda th: np.broadcast_to(np.diag([1.0, -1.0]).astype(complex),
                                              np.shape(th)[:-1] + (2, 2)),
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

    def test_solver_of_wrong_dimension_rejected(self):
        model, x, u = small_regression_setup(seed=3)
        mm = dataclasses.replace(regression_moment_model(model, x, u),
                                 solver=lambda moments: np.zeros(3))
        with pytest.raises(ValueError, match="wrong dimension"):
            estimate_mt_gqmle(x, u, mm)

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
        mm = dataclasses.replace(regression_moment_model(model, x, u),
                                 solver=None, space=space)
        est = estimate_mt_gqmle(x, u, mm)
        step = 2 * pad / (grid_n - 1)
        assert est.method == "grid"
        assert np.max(np.abs(est.theta - closed)) <= step / 2 + 1e-12

    @pytest.mark.parametrize("path", ["closed-form", "grid"])
    def test_objective_is_j_u_at_theta(self, path):
        """EstimationResult.objective is J_u at theta, evaluated when read: bit
        for bit the one-point objective on both paths, and the model that
        evaluates it stays out of the repr."""
        model, x, u = small_regression_setup(seed=9, n=150)
        mm = regression_moment_model(model, x, u)
        if path == "grid":
            mm = dataclasses.replace(mm, solver=None,
                                     space=regression_box(1.0, 4))
        est = estimate_mt_gqmle(x, u, mm)
        assert est.method == path and est.model is mm
        assert est.objective == objective_j_u(est.moments, mm, est.theta)
        assert "model" not in repr(est)

    def test_grid_result_beats_all_grid_points(self):
        model, x, u = small_regression_setup(seed=6, n=100)
        moments = empirical_mt_moments(x, u)
        mm = dataclasses.replace(regression_moment_model(model, x, u),
                                 solver=None, space=regression_box(1.0, 4))
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
        mm = dataclasses.replace(regression_moment_model(reg_gaussian, x, u),
                                 solver=None, space=regression_box(1.0, 5))
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


def first_coordinate_model(grid_size):
    """2-D model whose mean map ignores the second coordinate entirely."""
    eye = np.eye(2, dtype=complex)
    return ParametricMomentModel(
        mt_mean=lambda th: np.stack([th[..., 0], np.zeros_like(th[..., 0])],
                                    axis=-1).astype(complex),
        mt_cov=lambda th: np.broadcast_to(eye, np.shape(th)[:-1] + (2, 2)),
        d_mean=lambda th: np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex),
        d_cov=lambda th: np.zeros((2, 2, 2), dtype=complex),
        space=ParameterSpace([0.0, 0.0], [1.0, 1.0], grid_size))


class TestIdentifiability:
    def test_regression_full_rank_clean(self, reg_gaussian, rng):
        x = random_dataset(rng, 50, 10)
        mm = dataclasses.replace(regression_moment_model(
            reg_gaussian, x, projected_mt_function(reg_gaussian, 2.0)),
            space=regression_box(1.0, 4))
        report = check_identifiability(mm, np.zeros(4))
        assert report.ok and report.n_checked == 4 ** 4

    def test_duplicated_coordinate_flags(self):
        mm = first_coordinate_model(3)
        report = check_identifiability(mm, np.array([0.5, 0.5]))
        assert not report.ok
        assert all(abs(th[0] - 0.5) < 1e-12 for th, _, _ in report.flagged)

    def test_stacked_check_matches_per_point_loop(self, reg_gaussian, rng):
        """One call per map over the grid (plus one at theta0) flags the same
        points, with the same distances, as the per-point loop it replaced."""
        dup = first_coordinate_model(5)
        reg = dataclasses.replace(regression_moment_model(
            reg_gaussian, random_dataset(rng, 50, 10),
            projected_mt_function(reg_gaussian, 2.0)),
            space=regression_box(1.0, 4))
        for mm, theta0 in ((dup, np.array([0.5, 0.5])), (reg, np.zeros(4))):
            loop = []
            for theta in mm.space.grid_points():
                if np.linalg.norm(theta - theta0) < 1e-12:
                    continue
                mean_dist = np.linalg.norm(mm.mt_mean(theta) - mm.mt_mean(theta0))
                cov_dist = np.linalg.norm(mm.mt_cov(theta) - mm.mt_cov(theta0))
                if mean_dist < 1e-8 and cov_dist < 1e-8:
                    loop.append((theta, mean_dist, cov_dist))
            calls = count_map_calls(mm)
            report = check_identifiability(mm, theta0)
            assert calls == {"mt_mean": 2, "mt_cov": 2}
            assert report.n_checked == len(mm.space.grid_points())
            assert len(report.flagged) == len(loop)
            for (th, md, cd), (th_l, md_l, cd_l) in zip(report.flagged, loop):
                np.testing.assert_array_equal(th, th_l)
                assert md == pytest.approx(md_l, abs=1e-15)
                assert cd == pytest.approx(cd_l, abs=1e-15)
        assert len(check_identifiability(dup, np.array([0.5, 0.5])).flagged) == 4

    @pytest.mark.parametrize("chunk", [None, 7, 100])
    def test_chunked_check_matches_one_stacked_call(self, monkeypatch,
                                                    reg_gaussian, rng, chunk):
        """No map call sees more than _GRID_CHUNK points, and the report is
        the one a single call over the whole grid gives."""
        reg = dataclasses.replace(regression_moment_model(
            reg_gaussian, random_dataset(rng, 50, 10),
            projected_mt_function(reg_gaussian, 2.0)),
            space=regression_box(1.0, 6))
        cases = ((first_coordinate_model(25), np.array([0.5, 0.5])),
                 (reg, np.zeros(4)))
        if chunk is None:   # the default chunk: several, the last partial
            assert 6 ** 4 // estimator._GRID_CHUNK == 2
        for mm, theta0 in cases:
            monkeypatch.setattr(estimator, "_GRID_CHUNK", 10 ** 9)
            whole = check_identifiability(mm, theta0)
            monkeypatch.undo()
            if chunk is not None:
                monkeypatch.setattr(estimator, "_GRID_CHUNK", chunk)
            sizes = []
            for name in ("mt_mean", "mt_cov"):
                def recorded(theta, fn=getattr(mm, name)):
                    sizes.append(int(np.prod(np.shape(theta)[:-1])))
                    return fn(theta)
                setattr(mm, name, recorded)
            report = check_identifiability(mm, theta0)
            n_points = len(mm.space.grid_points())
            assert max(sizes) <= estimator._GRID_CHUNK < n_points
            assert report.n_checked == whole.n_checked == n_points
            assert len(report.flagged) == len(whole.flagged)
            for (th, md, cd), (th_w, md_w, cd_w) in zip(report.flagged,
                                                        whole.flagged):
                np.testing.assert_array_equal(th, th_w)
                assert (md, cd) == (md_w, cd_w)
        assert len(whole.flagged) == 0
        assert len(check_identifiability(*cases[0]).flagged) == 24

    def test_doa_grid_clean(self, ula_gaussian):
        x = synthesize_doa(4, 0.3, 1.0, ula_gaussian.noise, 500,
                           stream_rng(23, 0))
        mm = doa_moment_model(ula_gaussian, x, 4.0, k_theta=801)
        report = check_identifiability(mm, np.array([0.3001]))
        assert report.ok


# Four samples whose unweighted moments are (0, I/2).
TOY_X = np.array([[1, 0], [-1, 0], [0, 1], [0, -1]], dtype=complex)
TOY_MOMENTS = empirical_mt_moments(TOY_X, constant_mt_function())
HALF_EYE = 0.5 * np.eye(2, dtype=complex)


def table_model(means, covs=None):
    """1-D model on the grid 0, 1, ..., k - 1: at grid point j the mean is
    means[j] * (1, 1) and the covariance covs[j] (I/2 when omitted), so
    against TOY_MOMENTS J_u = -4 means[j]^2 wherever the covariance is I/2.
    Both maps take a stack of points (..., 1)."""
    covs = np.asarray([HALF_EYE] * len(means) if covs is None else covs)
    means = np.asarray(means, dtype=complex)

    def index(th):
        return np.rint(np.asarray(th)[..., 0]).astype(int)

    return ParametricMomentModel(
        mt_mean=lambda th: means[index(th)][..., None].repeat(2, axis=-1),
        mt_cov=lambda th: covs[index(th)],
        d_mean=lambda th: np.zeros((1, 2), dtype=complex),
        d_cov=lambda th: np.zeros((1, 2, 2), dtype=complex),
        space=ParameterSpace([0.0], [len(means) - 1.0], len(means)))


def count_map_calls(mm):
    """Wrap mm.mt_mean and mm.mt_cov in place; returns their live call counts."""
    calls = {"mt_mean": 0, "mt_cov": 0}

    def counted(name, fn):
        def wrapper(theta):
            calls[name] += 1
            return fn(theta)
        return wrapper

    mm.mt_mean = counted("mt_mean", mm.mt_mean)
    mm.mt_cov = counted("mt_cov", mm.mt_cov)
    return calls


def assert_grid_matches_per_point(moments, mm):
    """The stacked grid values equal, bit for bit, J_u point by point through
    objective_j_u and through the core primitives it was first built from."""
    points = mm.space.grid_points()
    stacked = estimator._grid_objective(moments, mm, points)
    loop = [objective_j_u(moments, mm, th) for th in points]
    np.testing.assert_array_equal(stacked, loop)
    primitives = [-(log_det_divergence(moments.mt_cov, mm.mt_cov(th))
                    + inv_quad_form(moments.mt_mean - mm.mt_mean(th),
                                    mm.mt_cov(th))) for th in points]
    np.testing.assert_array_equal(stacked, primitives)
    return stacked


class TestStackedGrid:
    @pytest.mark.parametrize("chunk", [None, 7, 721, 4096])
    @pytest.mark.parametrize("omega", [1.0, 3.0, 10.0])
    def test_doa_grid_matches_per_point(self, monkeypatch, ula_k, omega, chunk):
        x = synthesize_doa(4, 0.4, 1.0, ula_k.noise, 300, stream_rng(41, 0))
        u = gaussian_mt_function(omega)
        mm = doa_moment_model(ula_k, x, omega, k_theta=721, use_solver=False)
        if chunk is None:   # the default chunk: more than one, the last partial
            assert 721 // estimator._GRID_CHUNK == 1 and 721 % estimator._GRID_CHUNK
        else:
            monkeypatch.setattr(estimator, "_GRID_CHUNK", chunk)
        vals = assert_grid_matches_per_point(empirical_mt_moments(x, u), mm)
        est = estimate_mt_gqmle(x, u, mm)
        assert est.objective == vals.max()
        assert est.theta[0] == mm.space.grid_points()[np.argmax(vals), 0]

    def test_regression_grid_matches_per_point(self, reg_t, alpha0):
        x = synthesize_regression(reg_t.a_matrix, alpha0, reg_t.noise, 300,
                                  stream_rng(42, 0))
        u = projected_mt_function(reg_t, 3.0)
        mm = dataclasses.replace(regression_moment_model(reg_t, x, u),
                                 solver=None)
        assert mm.space.grid_points().shape == (6561, 4)   # p = 10
        assert_grid_matches_per_point(empirical_mt_moments(x, u), mm)

    @pytest.mark.parametrize("chunk", [1, 4, 512])
    def test_tie_across_chunks_goes_to_lowest_index(self, monkeypatch, chunk):
        monkeypatch.setattr(estimator, "_GRID_CHUNK", chunk)
        mm = table_model([1.0, 0.5, 0.25, 0.0, 0.0, 0.5, 0.0])
        vals = assert_grid_matches_per_point(TOY_MOMENTS, mm)
        assert vals[3] == vals[4] == vals[6] == vals.max()
        est = estimate_gqmle(TOY_X, mm)
        assert est.theta[0] == 3.0 and est.objective == vals[3]

    @pytest.mark.parametrize("chunk", [2, 512])
    def test_nan_never_wins(self, monkeypatch, chunk):
        monkeypatch.setattr(estimator, "_GRID_CHUNK", chunk)
        mm = table_model([np.nan, np.nan, 0.5, np.nan, 0.25, np.nan])
        vals = assert_grid_matches_per_point(TOY_MOMENTS, mm)
        assert np.isnan(vals[[0, 1, 3, 5]]).all()
        est = estimate_gqmle(TOY_X, mm)
        assert est.theta[0] == 4.0 and est.objective == vals[4]

    def test_jitter_rescue_in_a_chunk_matches_per_point(self):
        singular = np.ones((2, 2), dtype=complex)   # PD after the jitter
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(singular)
        mm = table_model([0.5, 0.0, 0.25, 0.0],
                         [HALF_EYE, singular, HALF_EYE, HALF_EYE])
        vals = assert_grid_matches_per_point(TOY_MOMENTS, mm)
        assert np.isfinite(vals).all() and vals[1] < vals[3]
        est = estimate_gqmle(TOY_X, mm)
        assert est.theta[0] == 3.0 and est.objective == vals[3]

    def test_non_pd_in_a_chunk_raises(self):
        mm = table_model([0.0, 0.0, 0.0],
                         [HALF_EYE, np.diag([1.0, -1.0]).astype(complex),
                          HALF_EYE])
        with pytest.raises(NotPositiveDefinite):
            objective_j_u(TOY_MOMENTS, mm, [1.0])
        with pytest.raises(NotPositiveDefinite):
            estimate_gqmle(TOY_X, mm)

    def test_huge_finite_mean_never_wins(self):
        """|m(theta)|^2 overflows the quadratic term to inf: the point's
        objective is -inf, with no RuntimeWarning, and the finite point wins."""
        mm = table_model([1e200, 0.0, 1.0])
        est = estimate_gqmle(TOY_X, mm)
        assert est.theta[0] == 1.0 and np.isfinite(est.objective)
        assert objective_j_u(TOY_MOMENTS, mm, [0.0]) == -np.inf

    def test_infinite_mean_never_wins(self):
        mm = table_model([0.5, np.inf, 0.0, -np.inf])
        est = estimate_gqmle(TOY_X, mm)
        assert est.theta[0] == 2.0 and np.isfinite(est.objective)
        vals = estimator._grid_objective(TOY_MOMENTS, mm, mm.space.grid_points())
        assert not (vals[[1, 3]] > -np.inf).any()

    def test_no_finite_objective_raises(self):
        mm = table_model([np.nan] * 5)
        with pytest.raises(ValueError, match="5-point grid"):
            estimate_gqmle(TOY_X, mm)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("where", [[0, 1, 2, 3, 4], [3]])
    def test_non_finite_model_covariance_raises(self, bad, where):
        covs = [HALF_EYE] * 5
        for j in where:
            covs[j] = np.full((2, 2), bad, dtype=complex)
        mm = table_model([0.0] * 5, covs)
        with pytest.raises(NotPositiveDefinite):
            estimate_gqmle(TOY_X, mm)
        with pytest.raises(NotPositiveDefinite):
            objective_j_u(TOY_MOMENTS, mm, [float(where[0])])

    def test_factor_counts(self, monkeypatch, ula_k):
        """objective_j_u factors S_hat (through cholesky_pd) and S(theta); the
        grid factors S_hat once per fit and each chunk of S(theta) in one
        batched call."""
        x = synthesize_doa(4, 0.4, 1.0, ula_k.noise, 300, stream_rng(43, 0))
        u = gaussian_mt_function(3.0)
        mm = doa_moment_model(ula_k, x, 3.0, k_theta=721, use_solver=False)
        moments = empirical_mt_moments(x, u)
        counts = {"cholesky_pd": 0, "factor": 0}

        def counting(key, fn):
            def wrapper(a):
                counts[key] += 1
                return fn(a)
            return wrapper

        monkeypatch.setattr(estimator, "cholesky_pd",
                            counting("cholesky_pd", estimator.cholesky_pd))
        monkeypatch.setattr(np.linalg, "cholesky",
                            counting("factor", np.linalg.cholesky))
        for theta in np.linspace(-1.0, 1.0, 10):
            objective_j_u(moments, mm, [theta])
        assert counts == {"cholesky_pd": 10, "factor": 20}
        counts.update(cholesky_pd=0, factor=0)
        assert estimate_mt_gqmle(x, u, mm).method == "grid"
        assert counts == {"cholesky_pd": 1, "factor": 1 + 2}   # 721 = 512 + 209

    def test_grid_calls_each_map_once_per_chunk(self, ula_k):
        x = synthesize_doa(4, 0.4, 1.0, ula_k.noise, 300, stream_rng(44, 0))
        u = gaussian_mt_function(3.0)
        mm = doa_moment_model(ula_k, x, 3.0, k_theta=721, use_solver=False)
        calls = count_map_calls(mm)
        assert estimate_mt_gqmle(x, u, mm).method == "grid"
        assert calls == {"mt_mean": 2, "mt_cov": 2}   # 721 = 512 + 209


class TestMomentMapContract:
    """mt_mean and mt_cov of the application models broadcast over leading
    axes of theta, bit for bit equal to their per-point formulas."""

    @staticmethod
    def assert_maps_match(mm, oracle_mean, oracle_cov, points):
        stacked_mean = mm.mt_mean(points)
        stacked_cov = mm.mt_cov(points)
        assert stacked_mean.shape == points.shape[:-1] + oracle_mean(points[0]).shape
        assert stacked_cov.shape == points.shape[:-1] + oracle_cov(points[0]).shape
        assert np.array_equal(stacked_mean, [oracle_mean(th) for th in points])
        assert np.array_equal(stacked_cov, [oracle_cov(th) for th in points])
        for th in points[::97]:
            assert np.array_equal(mm.mt_mean(th), oracle_mean(th))
            assert np.array_equal(mm.mt_cov(th), oracle_cov(th))
        block = points[:6].reshape(2, 3, -1)       # any leading shape
        assert np.array_equal(mm.mt_mean(block), stacked_mean[:6].reshape(
            2, 3, -1))
        assert np.array_equal(mm.mt_cov(block), stacked_cov[:6].reshape(
            (2, 3) + stacked_cov.shape[1:]))

    @pytest.mark.parametrize("omega", [2.0, 5.0, 16.0])
    def test_regression_model(self, reg_t, alpha0, omega):
        x = synthesize_regression(reg_t.a_matrix, alpha0, reg_t.noise, 300,
                                  stream_rng(45, 0))
        u = projected_mt_function(reg_t, omega)
        mm = dataclasses.replace(regression_moment_model(reg_t, x, u),
                                 solver=None)
        a = reg_t.a_matrix
        cov = mm.info["r0"] * reg_t.proj_a + mm.info["r1"] * np.eye(10)
        rng = np.random.default_rng(46)
        points = np.concatenate([mm.space.grid_points(),
                                 rng.uniform(-3.0, 3.0, (20, 4))])
        self.assert_maps_match(mm, lambda th: a @ unrealify(th),
                               lambda th: cov, points)

    @pytest.mark.parametrize("omega", [1.0, 3.0, 10.0])
    def test_doa_model(self, ula_k, omega):
        x = synthesize_doa(4, 0.4, 1.0, ula_k.noise, 300, stream_rng(47, 0))
        mm = doa_moment_model(ula_k, x, omega, k_theta=721, use_solver=False)
        r_s, r_w = mm.info["r_s"], mm.info["r_w"]

        def cov(th):
            a = steering(float(th[0]), 4)
            return r_s * np.outer(a, a.conj()) + r_w * np.eye(4)

        rng = np.random.default_rng(48)
        lo, hi = ula_k.theta_bounds
        points = np.concatenate([mm.space.grid_points(),
                                 rng.uniform(lo, hi, (20, 1))])
        self.assert_maps_match(mm, lambda th: np.zeros(4, dtype=complex), cov,
                               points)
