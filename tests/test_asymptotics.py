import dataclasses
import inspect
import warnings

import numpy as np
import pytest

from mtqmle import asymptotics, core, estimator, transform
from mtqmle.asymptotics import (
    fisher_information,
    gamma_u_batch,
    influence,
    log_phi_u,
    psi_u,
    psi_u_batch,
    sandwich,
    score_identity_check,
    select_by_trace,
    select_mt_parameter,
)
from mtqmle.doa import doa_moment_model
from mtqmle.estimator import (ParameterSpace, ParametricMomentModel,
                              check_identifiability, estimate_mt_gqmle,
                              objective_j_u)
from mtqmle.exceptions import (DegenerateWeights, MTQMLEError,
                               NotPositiveDefinite, SingularMatrix)
from mtqmle.regression import (
    asymptotic_mse_regression,
    empirical_asymptotic_mse_regression,
    gaussian_crlb_regression,
    gaussian_fim_regression,
    gaussian_score_regression,
    influence_regression,
    mt_gqmle_regression,
    population_f_regression,
    projected_mt_function,
    regression_moment_model,
    unrealify,
)
from mtqmle.samplers import stream_rng, synthesize_doa, synthesize_regression
from mtqmle.transform import (MTFunction, check_mt_condition,
                              constant_mt_function, empirical_mt_moments,
                              gaussian_mt_function)

from conftest import (THETA0_REG, dense_psi_gamma, dense_score,
                      mt_function_from_callable, random_dataset, random_pd,
                      regression_box)


# Normalized weights of a stub fit: Kish ESS 4 and 1.
SPREAD = np.full(4, 0.25)
COLLAPSED = np.array([1.0, 0.0, 0.0, 0.0])


def make_regression_data(model, n, seed, theta0=THETA0_REG):
    return synthesize_regression(model.a_matrix, unrealify(theta0),
                                 model.noise, n, stream_rng(seed, 0))


def fd_of_log_phi(x, theta, model):
    grad = np.empty(theta.size)
    for k in range(theta.size):
        h = 1e-5 * (1.0 + abs(theta[k]))
        hi, lo = theta.copy(), theta.copy()
        hi[k] += h
        lo[k] -= h
        grad[k] = (log_phi_u(x[None], hi, model)[0]
                   - log_phi_u(x[None], lo, model)[0]) / (2 * h)
    return grad


def quadratic_moment_model(rng):
    """p = 3, m = 2 model whose mean and covariance are quadratic in theta,
    so every first and second derivative is nonzero."""
    p = 3

    def herm(scale):
        z = scale * (rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p)))
        return z + z.conj().T

    c = rng.standard_normal((5, p)) + 1j * rng.standard_normal((5, p))
    s0 = random_pd(rng, p) + np.eye(p)
    h0, h1, h01, h00, h11 = (herm(0.1) for _ in range(5))

    def mean(th):
        return (c[0] * th[0] + c[1] * th[1] + c[2] * th[0] * th[1]
                + c[3] * th[0] ** 2 + c[4] * th[1] ** 2)

    def cov(th):
        return (s0 + th[0] * h0 + th[1] * h1 + th[0] * th[1] * h01
                + th[0] ** 2 * h00 + th[1] ** 2 * h11)

    return ParametricMomentModel(
        mt_mean=mean, mt_cov=cov,
        d_mean=lambda th: np.stack([c[0] + c[2] * th[1] + 2 * c[3] * th[0],
                                    c[1] + c[2] * th[0] + 2 * c[4] * th[1]]),
        d_cov=lambda th: np.stack([h0 + th[1] * h01 + 2 * th[0] * h00,
                                   h1 + th[0] * h01 + 2 * th[1] * h11]),
        d2_mean=lambda th: np.array([[2 * c[3], c[2]], [c[2], 2 * c[4]]]),
        d2_cov=lambda th: np.array([[2 * h00, h01], [h01, 2 * h11]]),
        space=ParameterSpace([-0.5, -0.5], [0.5, 0.5], 5))


class TestScore:
    def test_zero_at_model_mean_when_cov_flat(self, reg_gaussian, rng):
        x = make_regression_data(reg_gaussian, 50, 1)
        u = projected_mt_function(reg_gaussian, 2.0)
        mm = regression_moment_model(reg_gaussian, x, u)
        theta = np.array([0.1, 0.2, 0.3, 0.4])
        at_mean = mm.mt_mean(theta)
        np.testing.assert_allclose(psi_u(at_mean, theta, mm), np.zeros(4),
                                   atol=1e-12)

    def test_regression_score_linear_form(self, reg_gaussian):
        x = make_regression_data(reg_gaussian, 30, 2)
        u = projected_mt_function(reg_gaussian, 2.0)
        mm = regression_moment_model(reg_gaussian, x, u)
        r_sum = mm.info["r0"] + mm.info["r1"]
        theta = np.array([0.3, 0.5, 0.6, 0.8])
        resid = x - reg_gaussian.a_matrix @ unrealify(theta)
        h = resid @ reg_gaussian.a_matrix.conj()
        oracle = (2.0 / r_sum) * np.concatenate([h.real, h.imag], axis=1)
        np.testing.assert_allclose(psi_u_batch(x, theta, mm), oracle,
                                   rtol=1e-10)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_fd_of_log_density_regression(self, seed, reg_gaussian):
        rng = np.random.default_rng(seed)
        x = make_regression_data(reg_gaussian, 20, 40 + seed)
        u = projected_mt_function(reg_gaussian, 1.0 + 3 * rng.random())
        mm = regression_moment_model(reg_gaussian, x, u)
        theta = rng.standard_normal(4) * 0.5
        point = x[rng.integers(0, x.shape[0])]
        psi = psi_u(point, theta, mm)
        fd = fd_of_log_phi(point, theta, mm)
        assert np.linalg.norm(psi - fd) / np.linalg.norm(fd) < 1e-6

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_fd_of_log_density_doa(self, seed, ula_gaussian):
        rng = np.random.default_rng(seed)
        x = synthesize_doa(4, 0.3, 1.0, ula_gaussian.noise, 400,
                           stream_rng(60 + seed, 0))
        mm = doa_moment_model(ula_gaussian, x, 2.0 + 3 * rng.random(),
                              k_theta=721)
        theta = np.array([rng.uniform(-1.2, 1.2)])
        point = x[rng.integers(0, x.shape[0])]
        psi = psi_u(point, theta, mm)
        fd = fd_of_log_phi(point, theta, mm)
        assert np.linalg.norm(psi - fd) / max(np.linalg.norm(fd), 1e-12) < 1e-6


class TestHessian:
    def test_constant_moments_zero(self):
        space = ParameterSpace([-1.0], [1.0], 3)
        eye = np.eye(2, dtype=complex)
        mm = ParametricMomentModel(
            mt_mean=lambda th: np.zeros(np.shape(th)[:-1] + (2,), dtype=complex),
            mt_cov=lambda th: np.broadcast_to(eye, np.shape(th)[:-1] + (2, 2)),
            d_mean=lambda th: np.zeros((1, 2), dtype=complex),
            d_cov=lambda th: np.zeros((1, 2, 2), dtype=complex),
            d2_mean=lambda th: np.zeros((1, 1, 2), dtype=complex),
            d2_cov=lambda th: np.zeros((1, 1, 2, 2), dtype=complex),
            space=space)
        g = gamma_u_batch(np.array([1.0 + 1j, 2.0])[None], [0.0], mm)[0]
        assert np.abs(g).max() == 0.0

    def test_regression_hessian_constant_in_x(self, reg_gaussian):
        x = make_regression_data(reg_gaussian, 25, 3)
        u = projected_mt_function(reg_gaussian, 2.0)
        mm = regression_moment_model(reg_gaussian, x, u)
        r_sum = mm.info["r0"] + mm.info["r1"]
        theta = np.zeros(4)
        gams = gamma_u_batch(x, theta, mm)
        expected = -(2.0 / r_sum) * reg_gaussian.m_real
        for g in gams[:5]:
            np.testing.assert_allclose(g, expected, rtol=1e-10, atol=1e-12)
        assert np.ptp(gams, axis=0).max() < 1e-10

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_fd_of_score(self, seed, ula_gaussian):
        rng = np.random.default_rng(seed)
        x = synthesize_doa(4, 0.3, 1.0, ula_gaussian.noise, 300,
                           stream_rng(70 + seed, 0))
        mm = doa_moment_model(ula_gaussian, x, 3.0, k_theta=721)
        theta = np.array([rng.uniform(-1.0, 1.0)])
        point = x[rng.integers(0, x.shape[0])]
        g = gamma_u_batch(point[None], theta, mm)[0]
        h = 1e-5 * (1.0 + abs(theta[0]))
        fd = (psi_u(point, theta + h, mm) - psi_u(point, theta - h, mm)) / (2 * h)
        assert abs(g[0, 0] - fd[0]) / max(abs(fd[0]), 1e-12) < 1e-4

    @pytest.mark.parametrize("seed", range(3))
    def test_every_term_matches_fd(self, seed):
        # the application models leave 2 Re{w^H dm_kj} and 2 Re{w^H dS_j b_k}
        # at zero; this quadratic-in-theta model makes every term nonzero
        mm = quadratic_moment_model(np.random.default_rng(100 + seed))
        rng = np.random.default_rng(seed)
        x = random_dataset(rng, 8, 3)
        theta = rng.uniform(-0.3, 0.3, 2)
        h = 1e-6
        gam = gamma_u_batch(x, theta, mm)
        psi = psi_u_batch(x, theta, mm)
        fd_gam = np.empty_like(gam)
        fd_psi = np.empty_like(psi)
        for j in range(2):
            hi, lo = theta.copy(), theta.copy()
            hi[j] += h
            lo[j] -= h
            fd_gam[:, :, j] = (psi_u_batch(x, hi, mm)
                               - psi_u_batch(x, lo, mm)) / (2 * h)
            fd_psi[:, j] = (log_phi_u(x, hi, mm) - log_phi_u(x, lo, mm)) / (2 * h)
        assert np.max(np.abs(gam - fd_gam)) / np.max(np.abs(gam)) < 1e-8
        assert np.max(np.abs(psi - fd_psi)) / np.max(np.abs(psi)) < 1e-8

    def test_fd_fallback_agrees_with_analytic(self, reg_gaussian):
        x = make_regression_data(reg_gaussian, 20, 4)
        u = projected_mt_function(reg_gaussian, 2.0)
        full = regression_moment_model(reg_gaussian, x, u)
        stripped = regression_moment_model(reg_gaussian, x, u)
        stripped.d2_mean = None
        stripped.d2_cov = None
        theta = np.array([0.1, -0.1, 0.2, 0.0])
        g_an = gamma_u_batch(x[:6], theta, full)
        g_fd = gamma_u_batch(x[:6], theta, stripped)
        assert np.max(np.abs(g_an - g_fd)) / np.max(np.abs(g_an)) < 1e-6


def zero_slope_cov_model(rng):
    """p = 3, m = 2 model with S(theta) = (1 + |theta|^2) S0: at theta = 0 the
    first covariance derivative is zero but the second is not."""
    p = 3
    c = rng.standard_normal((3, p)) + 1j * rng.standard_normal((3, p))
    s0 = random_pd(rng, p) + np.eye(p)
    zero = np.zeros((p, p))
    return ParametricMomentModel(
        mt_mean=lambda th: c[0] * th[0] + c[1] * th[1] + c[2] * th[0] ** 2,
        mt_cov=lambda th: (1.0 + th @ th) * s0,
        d_mean=lambda th: np.stack([c[0] + 2 * c[2] * th[0], c[1]]),
        d_cov=lambda th: np.stack([2 * th[0] * s0, 2 * th[1] * s0]),
        d2_mean=lambda th: np.array([[2 * c[2], 0 * c[2]], [0 * c[2], 0 * c[2]]]),
        d2_cov=lambda th: np.array([[2 * s0, zero], [zero, 2 * s0]]),
        space=ParameterSpace([-0.5, -0.5], [0.5, 0.5], 5))


def zero_block_case(kind, reg_gaussian, ula_gaussian):
    """(data, theta, model, u) for one of four derivative patterns."""
    rng = np.random.default_rng(7)
    if kind == "regression":       # dS, d2S and d2m are zero
        x = make_regression_data(reg_gaussian, 200, 11)
        u = projected_mt_function(reg_gaussian, 3.0)
        mm = regression_moment_model(reg_gaussian, x, u)
        return x, np.array([0.25, 0.55, 0.6, 0.75]), mm, u
    if kind == "doa":              # dm and d2m are zero
        x = synthesize_doa(4, 0.3, 1.0, ula_gaussian.noise, 300,
                           stream_rng(12, 0))
        u = gaussian_mt_function(3.0)
        return x, np.array([0.28]), doa_moment_model(ula_gaussian, x, 3.0,
                                                     k_theta=721), u
    u = gaussian_mt_function(4.0)
    x = random_dataset(rng, 60, 3)
    if kind == "quadratic":        # every block is nonzero
        return x, np.array([0.1, -0.2]), quadratic_moment_model(rng), u
    return x, np.zeros(2), zero_slope_cov_model(rng), u   # dS = 0, d2S != 0


def assert_sandwich_matches_dense(x, theta, mm, u, monkeypatch):
    got = sandwich(x, theta, mm, u)
    monkeypatch.setattr(asymptotics, "_psi_gamma", dense_psi_gamma)
    want = sandwich(x, theta, mm, u)
    for name in ("g_hat", "f_hat", "c_hat"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


class TestZeroBlocksSkipped:
    """Skipping exactly-zero derivative blocks leaves psi, Gamma and the
    sandwich bit-identical to contracting every block."""

    KINDS = ["regression", "doa", "quadratic", "zero_slope_cov"]

    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_dense_oracle(self, kind, reg_gaussian, ula_gaussian,
                                  monkeypatch):
        x, theta, mm, u = zero_block_case(kind, reg_gaussian, ula_gaussian)
        psi, gam = asymptotics._psi_gamma(x, theta, mm)
        psi_d, gam_d = dense_psi_gamma(x, theta, mm)
        assert np.array_equal(psi, psi_d)
        assert np.array_equal(gam, gam_d)
        assert gam.shape == (x.shape[0], theta.size, theta.size)
        assert gam.flags.writeable
        assert_sandwich_matches_dense(x, theta, mm, u, monkeypatch)

    @pytest.mark.parametrize("kind", KINDS)
    def test_cov_pieces_are_none_only_for_zero_ds(self, kind, reg_gaussian,
                                                  ula_gaussian):
        x, theta, mm, _ = zero_block_case(kind, reg_gaussian, ula_gaussian)
        w, _, a = asymptotics._score(x, theta, mm)[1][2:5]
        zero_ds = kind in ("regression", "zero_slope_cov")
        assert (a is None) == zero_ds and (w is None) == zero_ds

    @pytest.mark.parametrize("kind", ["regression", "zero_slope_cov"])
    def test_finite_difference_branch_matches_dense_oracle(
            self, kind, reg_gaussian, ula_gaussian, monkeypatch):
        x, theta, mm, u = zero_block_case(kind, reg_gaussian, ula_gaussian)
        mm = dataclasses.replace(mm, d2_mean=None, d2_cov=None)
        psi, gam = asymptotics._psi_gamma(x, theta, mm)
        psi_d, gam_d = dense_psi_gamma(x, theta, mm)
        assert np.array_equal(psi, psi_d)
        assert np.array_equal(gam, gam_d)
        assert_sandwich_matches_dense(x, theta, mm, u, monkeypatch)

    @pytest.mark.parametrize("kind, in_score, in_psi_gamma", [
        ("regression", False, False),       # nothing reads w
        ("zero_slope_cov", False, True),    # only the d2S and d2m terms do
        ("doa", True, True)])
    def test_residual_formed_only_when_read(self, kind, in_score, in_psi_gamma,
                                            reg_gaussian, ula_gaussian):
        """w = S^-1 (x - m) is formed only when a term reads it: the score
        returns it as None unless dS != 0, and the Hessian evaluates x - m
        again for it only when a d2m or d2S term reads it."""
        x, theta, mm, u = zero_block_case(kind, reg_gaussian, ula_gaussian)
        assert (asymptotics._score(x, theta, mm)[1][2] is not None) == in_score
        calls = []
        mean = mm.mt_mean
        mm = dataclasses.replace(
            mm, mt_mean=lambda th: calls.append(th) or mean(th))
        for weights in (None, u.weights(x)):
            calls.clear()
            asymptotics._psi_gamma(x, theta, mm, weights)
            assert len(calls) == 1 + (in_psi_gamma and not in_score)

    @pytest.mark.parametrize("kind", KINDS)
    def test_public_score_and_hessian_match_dense_oracle(
            self, kind, reg_gaussian, ula_gaussian):
        """psi_u_batch and gamma_u_batch equal the formula with every term
        formed: x - m with m = 0 (DOA; zero_slope_cov at theta = 0), the
        2 Re{(x-m)^H b} term with dm = 0 (DOA), and nonzero m and dm
        (regression, quadratic)."""
        x, theta, mm, _ = zero_block_case(kind, reg_gaussian, ula_gaussian)
        zero_mean = kind in ("doa", "zero_slope_cov")
        assert (not np.any(mm.mt_mean(theta))) == zero_mean
        assert (not np.any(mm.d_mean(theta))) == (kind == "doa")
        np.testing.assert_array_equal(psi_u_batch(x, theta, mm),
                                      dense_score(x, theta, mm)[0])
        np.testing.assert_array_equal(gamma_u_batch(x, theta, mm),
                                      dense_psi_gamma(x, theta, mm)[1])

    @pytest.mark.parametrize("kind, blocks", [
        ("regression", ("d_cov", "d2_mean", "d2_cov")),
        ("doa", ("d_mean", "d2_mean"))])
    def test_zero_blocks_are_read_only_views(self, kind, blocks, reg_gaussian,
                                             ula_gaussian):
        """The shipped models' all-zero blocks are read-only broadcasts of one
        element: a selection that keeps one model per width keeps no zero
        arrays, and no caller can write into a block the fit reads."""
        _, theta, mm, _ = zero_block_case(kind, reg_gaussian, ula_gaussian)
        for name in blocks:
            block = getattr(mm, name)(theta)
            assert not np.any(block) and not any(block.strides), name
            with pytest.raises(ValueError, match="read-only"):
                block[...] = 1.0


class TestWeightedHessian:
    """The weighted Hessian sum from (s0, s1, s2) against the per-sample
    Hessians contracted with the weights."""

    CASES = ([(kind, True) for kind in TestZeroBlocksSkipped.KINDS]
             + [("regression", False), ("zero_slope_cov", False)])

    @pytest.mark.parametrize("kind, analytic", CASES)
    def test_sandwich_and_influence_f_match_per_sample_sum(
            self, kind, analytic, reg_gaussian, ula_gaussian):
        x, theta, mm, u = zero_block_case(kind, reg_gaussian, ula_gaussian)
        if not analytic:
            mm = dataclasses.replace(mm, d2_mean=None, d2_cov=None)
        gam = gamma_u_batch(x, theta, mm)
        f_hat = -np.einsum("n,nkj->kj", u.weights(x), gam) / x.shape[0]
        np.testing.assert_allclose(sandwich(x, theta, mm, u).f_hat, f_hat,
                                   rtol=1e-12, atol=0)
        y = x[1] + 0.2
        np.testing.assert_allclose(
            influence(y, theta, mm, u, sandwich(x, theta, mm, u).f_hat),
            influence(y, theta, mm, u, f_matrix=f_hat), rtol=1e-12, atol=0)


class TestSandwich:
    def test_gaussian_constant_u_near_crlb(self, reg_gaussian):
        n = 1000
        x = make_regression_data(reg_gaussian, n, 5)
        u = constant_mt_function()
        mm = regression_moment_model(reg_gaussian, x, u)
        theta_hat = mt_gqmle_regression(x, reg_gaussian, 1e8)
        s = sandwich(x, theta_hat, mm, u)
        target = np.trace(gaussian_crlb_regression(reg_gaussian, n))
        assert s.trace == pytest.approx(target, rel=0.10)

    def test_duplicated_dataset_halves(self, reg_t):
        x = make_regression_data(reg_t, 300, 6)
        u = projected_mt_function(reg_t, 4.0)
        theta_hat = mt_gqmle_regression(x, reg_t, 4.0)
        mm = regression_moment_model(reg_t, x, u)
        s1 = sandwich(x, theta_hat, mm, u)
        x2 = np.concatenate([x, x], axis=0)
        mm2 = regression_moment_model(reg_t, x2, u)
        s2 = sandwich(x2, theta_hat, mm2, u)
        np.testing.assert_allclose(s2.c_hat, s1.c_hat / 2, rtol=1e-10)

    def test_matches_application_closed_form(self, reg_t):
        x = make_regression_data(reg_t, 500, 7)
        omega = 5.0
        u = projected_mt_function(reg_t, omega)
        mm = regression_moment_model(reg_t, x, u)
        theta_hat = mt_gqmle_regression(x, reg_t, omega)
        s = sandwich(x, theta_hat, mm, u)
        fast = empirical_asymptotic_mse_regression(x, reg_t, omega)
        assert np.linalg.norm(s.c_hat - fast) / np.linalg.norm(fast) < 1e-8

    def test_matrix_shape_invariants(self, reg_t):
        x = make_regression_data(reg_t, 400, 8)
        u = projected_mt_function(reg_t, 6.0)
        mm = regression_moment_model(reg_t, x, u)
        s = sandwich(x, mt_gqmle_regression(x, reg_t, 6.0), mm, u)
        np.testing.assert_allclose(s.g_hat, s.g_hat.T, atol=1e-12)
        np.testing.assert_allclose(s.f_hat, s.f_hat.T, atol=1e-12)
        assert np.linalg.eigvalsh(s.g_hat).min() >= -1e-12
        assert np.linalg.eigvalsh(s.c_hat).min() >= -1e-18

    def test_boundary_estimate_warns(self, reg_gaussian):
        x = make_regression_data(reg_gaussian, 100, 9)
        u = projected_mt_function(reg_gaussian, 3.0)
        mm = dataclasses.replace(regression_moment_model(reg_gaussian, x, u),
                                 space=regression_box(0.3, 9))
        with pytest.warns(RuntimeWarning, match="boundary") as record:
            line = inspect.currentframe().f_lineno + 1
            sandwich(x, np.array([0.3, 0.0, 0.0, 0.0]), mm, u)
        assert (record[0].filename, record[0].lineno) == (__file__, line)

    def test_singular_f_raises(self, rng):
        # weight concentrated on one sample makes the curvature rank deficient
        space = ParameterSpace([-1.0] * 2, [1.0] * 2, 3)
        eye = np.eye(1, dtype=complex)
        mm = ParametricMomentModel(
            mt_mean=lambda th: (th[..., :1] + th[..., 1:]).astype(complex),
            mt_cov=lambda th: np.broadcast_to(eye, np.shape(th)[:-1] + (1, 1)),
            d_mean=lambda th: np.array([[1.0], [1.0]], dtype=complex),
            d_cov=lambda th: np.zeros((2, 1, 1), dtype=complex),
            d2_mean=lambda th: np.zeros((2, 2, 1), dtype=complex),
            d2_cov=lambda th: np.zeros((2, 2, 1, 1), dtype=complex),
            space=space)
        x = (rng.standard_normal((50, 1)) + 1j * rng.standard_normal((50, 1)))
        with pytest.raises(SingularMatrix, match="F matrix singular"):
            sandwich(x, np.zeros(2), mm, constant_mt_function())

    def test_overflowing_score_of_a_weighted_sample_raises(self, reg_gaussian):
        """A sample of nonzero weight whose score overflows makes G infinite:
        a typed error, with no RuntimeWarning, instead of an inf c_hat."""
        x = make_regression_data(reg_gaussian, 100, 21)
        u = constant_mt_function()
        mm = regression_moment_model(reg_gaussian, x, u)
        x[0] = 1e200
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularMatrix, match="G matrix is not finite"):
                sandwich(x, THETA0_REG, mm, u)


class TestPublicEntriesValidate:
    """The public entries validate their data and log-weights themselves."""

    ENTRIES = {
        "empirical_mt_moments": lambda x, u, mm: empirical_mt_moments(x, u),
        "estimate_mt_gqmle": lambda x, u, mm: estimate_mt_gqmle(x, u, mm),
        "sandwich": lambda x, u, mm: sandwich(x, np.zeros(4), mm, u),
    }

    @pytest.fixture
    def model(self, reg_t):
        x = make_regression_data(reg_t, 50, 19)
        return x, regression_moment_model(reg_t, x, constant_mt_function())

    @pytest.mark.parametrize("entry", ENTRIES)
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_data(self, model, entry, bad):
        x, mm = model
        x = x.copy()
        x[3, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            self.ENTRIES[entry](x, constant_mt_function(), mm)

    @pytest.mark.parametrize("entry", ENTRIES)
    def test_log_weights_of_wrong_shape(self, model, entry):
        x, mm = model
        u = MTFunction(lambda data: np.zeros(data.shape[0] + 1))
        with pytest.raises(ValueError, match="wrong shape"):
            self.ENTRIES[entry](x, u, mm)

    THETA_ENTRIES = {
        "objective_j_u": lambda x, th, mm, u: objective_j_u(
            empirical_mt_moments(x, u), mm, th),
        "check_identifiability": lambda x, th, mm, u:
            check_identifiability(mm, th),
        "on_boundary": lambda x, th, mm, u: mm.space.on_boundary(th),
        "log_phi_u": lambda x, th, mm, u: log_phi_u(x, th, mm),
        "psi_u_batch": lambda x, th, mm, u: psi_u_batch(x, th, mm),
        "psi_u": lambda x, th, mm, u: psi_u(x[0], th, mm),
        "gamma_u_batch": lambda x, th, mm, u: gamma_u_batch(x, th, mm),
        "sandwich": lambda x, th, mm, u: sandwich(x, th, mm, u),
        "score_identity_check": lambda x, th, mm, u:
            score_identity_check(x, th, mm, u),
        "influence": lambda x, th, mm, u: influence(
            x[0], th, mm, u, np.eye(mm.space.lower.size)),
    }

    @pytest.mark.parametrize("entry", THETA_ENTRIES)
    @pytest.mark.parametrize("kind", ["doa", "regression"])
    def test_theta_of_wrong_dimension(self, ula_gaussian, reg_t, entry, kind):
        """A theta with more or fewer entries than the model's space is
        refused, instead of being truncated to the space's leading entries
        or broadcast into a numpy error."""
        if kind == "doa":
            x = synthesize_doa(4, 0.3, 1.0, ula_gaussian.noise, 300,
                               stream_rng(12, 0))
            u = gaussian_mt_function(3.0)
            mm = doa_moment_model(ula_gaussian, x, 3.0, k_theta=721)
            theta = np.array([0.52, 9.0])
        else:
            x = make_regression_data(reg_t, 50, 19)
            u = projected_mt_function(reg_t, 3.0)
            mm = regression_moment_model(reg_t, x, u)
            theta = np.array([0.25, 0.55, 0.6])
        with pytest.raises(ValueError, match="wrong dimension"):
            self.THETA_ENTRIES[entry](x, theta, mm, u)


class TestScoreIdentity:
    def test_residual_vanishes_at_closed_form(self, reg_t):
        x = make_regression_data(reg_t, 600, 10)
        omega = 5.0
        u = projected_mt_function(reg_t, omega)
        mm = regression_moment_model(reg_t, x, u)
        theta_hat = mt_gqmle_regression(x, reg_t, omega)
        s = sandwich(x, theta_hat, mm, u)
        resid = score_identity_check(x, theta_hat, mm, u)
        assert resid < 1e-8 * np.linalg.norm(s.f_hat)

    def test_grid_estimate_residual_bounded(self, reg_gaussian):
        x = make_regression_data(reg_gaussian, 300, 11)
        omega = 3.0
        u = projected_mt_function(reg_gaussian, omega)
        closed = mt_gqmle_regression(x, reg_gaussian, omega)
        pad, grid_n = 0.2, 9
        mm = dataclasses.replace(
            regression_moment_model(reg_gaussian, x, u), solver=None,
            space=ParameterSpace(closed - pad, closed + pad, grid_n))
        from mtqmle.estimator import estimate_mt_gqmle
        est = estimate_mt_gqmle(x, u, mm)
        s = sandwich(x, est.theta, mm, u)
        step = 2 * pad / (grid_n - 1)
        resid = score_identity_check(x, est.theta, mm, u)
        assert resid <= 2 * step * np.linalg.norm(s.f_hat)

    def test_least_squares_stationarity(self, reg_gaussian):
        x = make_regression_data(reg_gaussian, 200, 12)
        u = constant_mt_function()
        mm = regression_moment_model(reg_gaussian, x, u)
        theta_ls = mt_gqmle_regression(x, reg_gaussian, 1e9)
        resid = score_identity_check(x, theta_ls, mm, u)
        assert resid < 1e-8


class TestInfluence:
    def test_zero_weight_gives_zero(self, reg_gaussian):
        x = make_regression_data(reg_gaussian, 100, 13)
        u = projected_mt_function(reg_gaussian, 1.0)
        mm = regression_moment_model(reg_gaussian, x, u)
        y = 1e3 * np.ones(10, dtype=complex)  # weight underflows to zero
        val = influence(y, THETA0_REG, mm, u,
                        sandwich(x, THETA0_REG, mm, u).f_hat)
        np.testing.assert_array_equal(val, np.zeros(4))

    def test_matches_regression_closed_form(self, reg_t, rng):
        x = make_regression_data(reg_t, 500, 14)
        omega = 4.0
        u = projected_mt_function(reg_t, omega)
        mm = regression_moment_model(reg_t, x, u)
        f_pop = population_f_regression(reg_t, omega,
                                        mm.info["r0"] + mm.info["r1"])
        y = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        got = influence(y, THETA0_REG, mm, u, f_matrix=f_pop)
        want = influence_regression(y, THETA0_REG, reg_t, omega)
        np.testing.assert_allclose(got, want, rtol=1e-8)

    def test_decays_off_the_regressor_range(self, reg_gaussian, rng):
        x = make_regression_data(reg_gaussian, 400, 15)
        omega = 5.0
        u = projected_mt_function(reg_gaussian, omega)
        mm = regression_moment_model(reg_gaussian, x, u)
        # point with a fixed 10% of its energy off range(A) (the damped set)
        z = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        in_range = reg_gaussian.proj_a @ z
        off_range = reg_gaussian.proj_perp @ z
        direction = (np.sqrt(0.9) * in_range / np.linalg.norm(in_range)
                     + np.sqrt(0.1) * off_range / np.linalg.norm(off_range))
        f_hat = sandwich(x, THETA0_REG, mm, u).f_hat
        norms = [
            np.linalg.norm(influence(r * direction, THETA0_REG, mm, u, f_hat))
            for r in (10.0, 100.0, 1000.0)]
        assert norms[0] > norms[1] > norms[2]


def count_moment_builds(monkeypatch) -> list:
    """Record one entry per reweighted-moment build, wherever it is called."""
    calls = []
    build = transform._moments
    counted = lambda *args: calls.append(1) or build(*args)
    monkeypatch.setattr(transform, "_moments", counted)
    monkeypatch.setattr(asymptotics, "_moments", counted)
    return calls


def count_kernel_builds(monkeypatch) -> list:
    """Record one entry per GaussianWeights built, wherever it is called."""
    calls = []
    init = transform.GaussianWeights.__init__
    counted = lambda self, *args: calls.append(1) or init(self, *args)
    monkeypatch.setattr(transform.GaussianWeights, "__init__", counted)
    return calls


def record_selection(monkeypatch, x, family, omegas, factory) -> tuple:
    """select_mt_parameter's result and every candidate's SandwichMatrices."""
    seen = []
    inner = asymptotics._sandwich
    with monkeypatch.context() as patch:
        patch.setattr(asymptotics, "_sandwich",
                      lambda *args: seen.append(inner(*args)) or seen[-1])
        sel = select_mt_parameter(x, family, omegas, factory)
    return sel, seen


def assert_same_selection(got, want):
    """Traces, ESS, status, estimates and sandwiches equal bit for bit."""
    (sel, sandwiches), (ref, ref_sandwiches) = got, want
    assert np.array_equal(sel.traces, ref.traces, equal_nan=True)
    assert np.array_equal(sel.ess, ref.ess, equal_nan=True)
    assert sel.status == ref.status and sel.omega_opt == ref.omega_opt
    for est, ref_est in zip(sel.estimates, ref.estimates):
        assert (est is None) == (ref_est is None)
        if est is not None:
            assert np.array_equal(est.theta, ref_est.theta)
    assert len(sandwiches) == len(ref_sandwiches)
    for s, r in zip(sandwiches, ref_sandwiches):
        for name in ("g_hat", "f_hat", "c_hat"):
            assert np.array_equal(getattr(s, name), getattr(r, name)), name


def plain(family):
    """The family's weights as plain MTFunctions, which take the per-width
    route of a family that is not Gaussian."""
    def member(omega):
        u = family(omega)
        return MTFunction(u._log_fn, u.params)
    return member


REG_GRID = np.linspace(1.0, 30.0, 30)


def gaussian_selection_cases(reg_t, ula_gaussian) -> dict:
    """name -> (data, family, widths, factory, kernel builds): the two
    shipped Gaussian families, one mapping omega to 2 omega and one handing
    a fresh projector copy to every width."""
    x = make_regression_data(reg_t, 200, 23)
    x_doa = synthesize_doa(4, 0.3, 1.0, ula_gaussian.noise, 300,
                           stream_rng(23, 1))
    reg = lambda data, u: regression_moment_model(reg_t, data, u)
    doa = lambda data, u: doa_moment_model(ula_gaussian, data,
                                           u.params["width"], k_theta=181,
                                           use_solver=False)
    proj = reg_t.proj_perp
    return {
        "regression": (x, lambda om: projected_mt_function(reg_t, om),
                       REG_GRID, reg, 1),
        "doa": (x_doa, gaussian_mt_function, (1.0, 3.0, 10.0), doa, 1 + 3),
        "twice omega": (x, lambda om: gaussian_mt_function(2.0 * om, proj),
                        REG_GRID, reg, 1),
        "projector copies": (x, lambda om: gaussian_mt_function(om,
                                                                proj.copy()),
                             REG_GRID, reg, REG_GRID.size),
    }


GAUSSIAN_CASES = ["regression", "doa", "twice omega", "projector copies"]


class TestSelection:
    @pytest.mark.parametrize("case", GAUSSIAN_CASES)
    def test_one_kernel_per_gaussian_family(self, case, reg_t, ula_gaussian,
                                            monkeypatch):
        """A gaussian_mt_function family takes the squared norms of the data
        once per projector: 1 GaussianWeights for 30 regression widths, 1
        for 3 DOA widths plus the 3 doa_moment_model builds itself, and one
        per width when every width brings a fresh copy of the projector.
        The same weights as plain MTFunctions are evaluated at every width,
        and every candidate's trace, ESS, status, estimate and sandwich
        matrices are bit-identical on both routes."""
        x, family, omegas, factory, builds = gaussian_selection_cases(
            reg_t, ula_gaussian)[case]
        calls = count_kernel_builds(monkeypatch)
        got = record_selection(monkeypatch, x, family, omegas, factory)
        assert np.isfinite(got[0].traces).any() and len(calls) == builds
        calls.clear()
        want = record_selection(monkeypatch, x, plain(family), omegas,
                                factory)
        assert len(calls) == len(omegas) * (2 if case == "doa" else 1)
        assert_same_selection(got, want)

    def test_width_without_finite_objective_is_skipped(self, reg_t,
                                                       ula_gaussian,
                                                       monkeypatch):
        """A width whose grid has no finite objective (a model mean of 1e300
        at every grid point) fails on its data: NotPositiveDefinite skips it,
        and the other widths select exactly as without it."""
        x, family, omegas, factory, _ = gaussian_selection_cases(
            reg_t, ula_gaussian)["doa"]

        def huge_mean_at_3(data, u):
            mm = factory(data, u)
            if u.params["width"] != 3.0:
                return mm
            return dataclasses.replace(mm, mt_mean=lambda theta: np.full(
                np.shape(theta)[:-1] + (4,), 1e300 + 0j))

        (sel, sandwiches), (ref, ref_sandwiches) = (
            record_selection(monkeypatch, x, family, omegas, f)
            for f in (huge_mean_at_3, factory))
        assert sel.status == ["ok", "NotPositiveDefinite", "ok"]
        assert ref.status == ["ok"] * 3 and np.isnan(sel.traces[1])
        assert sel.estimates[1] is None and np.isnan(sel.ess[1])
        kept = [0, 2]
        assert np.array_equal(sel.traces[kept], ref.traces[kept])
        assert np.array_equal(sel.ess[kept], ref.ess[kept])
        for i in kept:
            assert np.array_equal(sel.estimates[i].theta,
                                  ref.estimates[i].theta)
        assert sel.omega_opt == omegas[kept[np.argmin(ref.traces[kept])]]
        for s, r in zip(sandwiches, ref_sandwiches[::2]):
            assert np.array_equal(s.c_hat, r.c_hat)

    def test_no_candidate_widths(self, reg_t):
        """An empty candidate list is a caller's error, not a data failure
        (DegenerateWeights) that a Monte Carlo run would count as a trial."""
        x = make_regression_data(reg_t, 50, 16)
        with pytest.raises(ValueError, match="no candidate widths") as err:
            select_by_trace([], lambda om: (om, om, SPREAD))
        assert not isinstance(err.value, MTQMLEError)
        with pytest.raises(ValueError, match="no candidate widths"):
            select_mt_parameter(
                x, lambda om: projected_mt_function(reg_t, om), [],
                lambda data, u: regression_moment_model(reg_t, data, u))

    def test_singleton_grid(self, reg_t):
        x = make_regression_data(reg_t, 300, 16)
        sel = select_mt_parameter(
            x, lambda om: projected_mt_function(reg_t, om), [7.0],
            lambda data, u: regression_moment_model(reg_t, data, u))
        assert sel.omega_opt == 7.0 and sel.traces.size == 1

    def test_curve_and_reestimation(self, reg_t):
        x = make_regression_data(reg_t, 400, 17)
        omegas = [2.0, 5.0, 10.0, 20.0]
        sel = select_mt_parameter(
            x, lambda om: projected_mt_function(reg_t, om), omegas,
            lambda data, u: regression_moment_model(reg_t, data, u))
        assert np.isfinite(sel.traces).all()
        for om, est in zip(sel.omegas, sel.estimates):
            np.testing.assert_allclose(
                est.theta, mt_gqmle_regression(x, reg_t, om), rtol=1e-10)
        idx = int(np.argmin(sel.traces))
        assert sel.omega_opt == sel.omegas[idx]

    def test_one_weight_pass_per_width(self, rng):
        """With a factory that never evaluates u, each candidate width's fit
        evaluates its log-weights exactly once."""
        calls = []

        def family(om):
            def log_fn(x):
                calls.append(om)
                return -np.abs(x[:, 0]) ** 2 / om ** 2
            return MTFunction(log_fn)

        eye = np.eye(1, dtype=complex)
        location = ParametricMomentModel(
            mt_mean=lambda th: (th[..., :1] + 1j * th[..., 1:]).astype(complex),
            mt_cov=lambda th: np.broadcast_to(eye, np.shape(th)[:-1] + (1, 1)),
            d_mean=lambda th: np.array([[1.0], [1.0j]]),
            d_cov=lambda th: np.zeros((2, 1, 1), dtype=complex),
            d2_mean=lambda th: np.zeros((2, 2, 1), dtype=complex),
            d2_cov=lambda th: np.zeros((2, 2, 1, 1), dtype=complex),
            space=ParameterSpace([-1.0] * 2, [1.0] * 2, 5),
            solver=lambda mom: [mom.mt_mean[0].real, mom.mt_mean[0].imag])
        x = random_dataset(rng, 200, 1, scale=0.3)
        sel = select_mt_parameter(x, family, [3.0, 1.0, 2.0],
                                  lambda data, u: location)
        assert np.isfinite(sel.traces).all()
        assert calls == [1.0, 2.0, 3.0]

    def test_solver_path_evaluates_no_objective(self, reg_t, monkeypatch):
        """The per-width fit leaves J_u unevaluated: it is computed only when
        a caller reads EstimationResult.objective."""
        calls = []
        j_u = estimator.objective_j_u
        monkeypatch.setattr(estimator, "objective_j_u",
                            lambda *args: calls.append(1) or j_u(*args))
        x = make_regression_data(reg_t, 200, 19)
        sel = select_mt_parameter(
            x, lambda om: projected_mt_function(reg_t, om), [2.0, 5.0, 10.0],
            lambda data, u: regression_moment_model(reg_t, data, u))
        assert np.isfinite(sel.traces).all() and len(calls) == 0
        assert np.isfinite(sel.best_estimate.objective) and len(calls) == 1

    def test_prebuilt_model_selection_validates_once(self, reg_t, monkeypatch):
        """The data is validated once, on entry: with a factory that returns a
        prebuilt model, no per-width step passes x through as_dataset again."""
        x = make_regression_data(reg_t, 200, 20)
        family = lambda om: projected_mt_function(reg_t, om)
        mm = regression_moment_model(reg_t, x, family(5.0))
        calls = []
        monkeypatch.setattr(transform, "as_dataset",
                            lambda d: calls.append(1) or core.as_dataset(d))
        sel = select_mt_parameter(x, family, [2.0, 5.0, 10.0],
                                  lambda data, u: mm)
        assert np.isfinite(sel.traces).all() and len(calls) == 0

    def test_one_moments_build_per_width(self, reg_t, monkeypatch):
        """On the regression generic path the factory's empirical_mt_moments
        reads the fit's moments: one reweighted-moment build per width."""
        calls = count_moment_builds(monkeypatch)
        x = make_regression_data(reg_t, 200, 21)
        sel = select_mt_parameter(
            x, lambda om: projected_mt_function(reg_t, om), [2.0, 5.0, 10.0],
            lambda data, u: regression_moment_model(reg_t, data, u))
        assert np.isfinite(sel.traces).all() and len(calls) == 3

    def test_factory_reads_the_fits_moments(self, reg_t):
        """empirical_mt_moments of the data the factory gets returns the very
        EmpiricalMTMoments the estimate is built from; once the selection
        returns, the same call recomputes them, equal in value."""
        seen = []

        def factory(data, u):
            seen.append((data, u, empirical_mt_moments(data, u)))
            return regression_moment_model(reg_t, data, u)

        x = make_regression_data(reg_t, 200, 22)
        sel = select_mt_parameter(
            x, lambda om: projected_mt_function(reg_t, om), [2.0, 5.0],
            factory)
        for (data, u, moments), est in zip(seen, sel.estimates):
            assert moments is est.moments
            assert u._bound is None
            again = empirical_mt_moments(data, u)
            assert again is not moments
            assert np.array_equal(again.mt_cov, moments.mt_cov)
            assert np.array_equal(again.weights, moments.weights)

    @pytest.mark.parametrize("error", [SingularMatrix, ValueError])
    def test_no_binding_after_factory_raised(self, reg_t, error):
        """The binding is cleared when the factory raises: a typed error
        skips the width, any other propagates."""
        family_out = []

        def family(om):
            family_out.append(projected_mt_function(reg_t, om))
            return family_out[-1]

        def factory(data, u):
            if u.params["width"] == 2.0:
                raise error("stub")
            return regression_moment_model(reg_t, data, u)

        x = make_regression_data(reg_t, 200, 23)
        if error is SingularMatrix:
            sel = select_mt_parameter(x, family, [2.0, 5.0], factory)
            assert sel.status == ["SingularMatrix", "ok"]
        else:
            with pytest.raises(ValueError, match="stub"):
                select_mt_parameter(x, family, [2.0, 5.0], factory)
        assert family_out and all(u._bound is None for u in family_out)

    def test_factory_cannot_write_into_data(self, reg_t):
        """The factory gets a read-only view: the bound moments can never
        belong to data the factory changed."""
        x = make_regression_data(reg_t, 200, 24)
        before = x.copy()

        def factory(data, u):
            data[0, 0] = 0.0
            return regression_moment_model(reg_t, data, u)

        with pytest.raises(ValueError, match="read-only"):
            select_mt_parameter(
                x, lambda om: projected_mt_function(reg_t, om), [2.0], factory)
        assert np.array_equal(x, before)

    def test_factory_on_a_copy_recomputes(self, reg_t, monkeypatch):
        """A factory that passes a copy of the data misses the binding and
        builds its own moments, with the same estimates and traces."""
        x = make_regression_data(reg_t, 200, 25)
        family = lambda om: projected_mt_function(reg_t, om)
        omegas = [2.0, 5.0, 10.0]
        bound = select_mt_parameter(
            x, family, omegas,
            lambda data, u: regression_moment_model(reg_t, data, u))
        calls = count_moment_builds(monkeypatch)
        copied = select_mt_parameter(
            x, family, omegas,
            lambda data, u: regression_moment_model(reg_t, data.copy(), u))
        assert len(calls) == 2 * len(omegas)
        assert np.array_equal(copied.traces, bound.traces)
        for got, want in zip(copied.estimates, bound.estimates):
            assert np.array_equal(got.theta, want.theta)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fit_equals_public_chain(self, reg_t, ula_gaussian, seed):
        """Every candidate's estimate, weights and trace are bit-identical to
        model(x, u) -> estimate_mt_gqmle -> sandwich, on the solver path and
        on the grid path."""
        x_doa = synthesize_doa(4, 0.3, 1.0, ula_gaussian.noise, 1000,
                               stream_rng(seed, 1))
        cases = [
            (make_regression_data(reg_t, 200, seed),
             lambda om: projected_mt_function(reg_t, om), [2.0, 5.0, 10.0],
             lambda data, u: regression_moment_model(reg_t, data, u)),
            (x_doa, gaussian_mt_function, [2.0, 4.0],
             lambda data, u: doa_moment_model(
                 ula_gaussian, data, u.params["width"], k_theta=181,
                 use_solver=False)),
        ]
        for x, family, omegas, factory in cases:
            sel = select_mt_parameter(x, family, omegas, factory)
            for om, est, trace in zip(sel.omegas, sel.estimates, sel.traces):
                u = family(om)
                mm = factory(x, u)
                ref = estimate_mt_gqmle(x, u, mm)
                assert np.array_equal(est.theta, ref.theta)
                assert est.objective == ref.objective
                assert np.array_equal(est.moments.weights, ref.moments.weights)
                assert np.array_equal(est.moments.mt_cov, ref.moments.mt_cov)
                assert trace == np.trace(sandwich(x, ref.theta, mm, u).c_hat)

    def test_gaussian_closed_form_trace_decreasing(self, reg_gaussian):
        omegas = np.linspace(1.0, 30.0, 30)
        traces = [np.trace(asymptotic_mse_regression(reg_gaussian, om, 1000))
                  for om in omegas]
        assert all(a > b for a, b in zip(traces, traces[1:]))
        limit = np.trace(gaussian_crlb_regression(reg_gaussian, 1000))
        assert traces[-1] == pytest.approx(limit, rel=0.01)

    def test_refuses_collapsed_widths(self, reg_gaussian):
        """At 0 dB (seed 77, n = 300) the widths 0.02 and 0.05 leave fewer
        than 2 effective samples: the rule must not pick them for their
        vanishing sandwich trace (below 1e-30)."""
        x = make_regression_data(reg_gaussian, 300, 77)
        family = lambda om: projected_mt_function(reg_gaussian, om)
        sel = select_mt_parameter(
            x, family, [0.02, 0.05, 1.0, 5.0],
            lambda data, u: regression_moment_model(reg_gaussian, data, u))
        assert np.isnan(sel.traces[:2]).all()
        assert check_mt_condition(x, family(sel.omega_opt)).ess >= 2.0
        assert np.nanmin(sel.traces) > 1e-6

    def test_all_degenerate_raises(self, reg_t):
        x = make_regression_data(reg_t, 100, 18)
        zero_family = lambda om: mt_function_from_callable(
            lambda d: np.zeros(d.shape[0]))
        with pytest.raises(DegenerateWeights, match="all grid points"):
            select_mt_parameter(
                x, zero_family, [1.0, 2.0],
                lambda data, u: regression_moment_model(reg_t, data, u))

    def test_rule_sorts_and_ties_to_smallest_omega(self):
        sel = select_by_trace([3.0, 1.0, 2.0],
                              lambda om: (10 * om, 7.0 if om == 1.0 else 5.0,
                                          SPREAD))
        np.testing.assert_array_equal(sel.omegas, [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(sel.traces, [7.0, 5.0, 5.0])
        assert sel.omega_opt == 2.0 and sel.best_estimate == 20.0
        assert sel.status == ["ok"] * 3
        np.testing.assert_array_equal(sel.ess, [4.0, 4.0, 4.0])

    @pytest.mark.parametrize("error", [SingularMatrix, NotPositiveDefinite,
                                       DegenerateWeights, MTQMLEError])
    def test_rule_skips_typed_failures(self, error):
        def fit(om):
            if om == 1.0:
                raise error("stub")
            return om, om, SPREAD

        sel = select_by_trace([2.0, 1.0, 3.0], fit)
        assert np.isnan(sel.traces[0]) and sel.estimates[0] is None
        assert sel.omega_opt == 2.0
        assert sel.status == [error.__name__, "ok", "ok"]
        assert np.isnan(sel.ess[0]) and np.array_equal(sel.ess[1:], [4.0, 4.0])

    def test_rule_propagates_plain_value_error(self):
        def fit(om):
            if om == 2.0:
                raise ValueError("boom")
            return om, om, SPREAD

        with pytest.raises(ValueError, match="boom") as info:
            select_by_trace([1.0, 2.0], fit)
        assert info.type is ValueError

    def test_rule_all_failing_raises(self):
        def fit(om):
            raise (SingularMatrix if om < 2 else NotPositiveDefinite)("stub")

        with pytest.raises(DegenerateWeights, match="all grid points"):
            select_by_trace([1.0, 2.0], fit)

    def test_rule_ranks_matrix_mse_by_trace(self):
        # om = 2 has the largest single entry but the smallest trace
        mses = {1.0: np.diag([3.0, 3.0]),
                2.0: np.array([[1.0, 9.0], [9.0, 4.0]]),
                3.0: np.diag([2.0, 4.0])}
        sel = select_by_trace([3.0, 1.0, 2.0],
                              lambda om: (om, mses[om], SPREAD))
        np.testing.assert_array_equal(sel.traces, [6.0, 5.0, 6.0])
        assert sel.omega_opt == 2.0 and sel.best_estimate == 2.0

    def test_rule_one_candidate(self):
        sel = select_by_trace([4.0],
                              lambda om: ("est", np.eye(3) * om, SPREAD))
        np.testing.assert_array_equal(sel.omegas, [4.0])
        np.testing.assert_array_equal(sel.traces, [12.0])
        assert sel.omega_opt == 4.0 and sel.best_estimate == "est"

    def test_rule_skips_collapsed_candidate(self):
        """Among several widths, one below 2 effective samples is skipped
        like a failed fit; exactly 2 is kept."""
        phis = {1.0: COLLAPSED, 2.0: np.array([0.5, 0.5]), 3.0: SPREAD}
        sel = select_by_trace([3.0, 2.0, 1.0],
                              lambda om: (om, 4.0 - om, phis[om]))
        np.testing.assert_array_equal(sel.traces, [np.nan, 2.0, 1.0])
        assert sel.estimates[0] is None and sel.omega_opt == 3.0
        assert sel.status == ["ess", "ok", "ok"]
        np.testing.assert_array_equal(sel.ess, [1.0, 2.0, 4.0])

    def test_rule_keeps_lone_collapsed_candidate(self):
        """A fixed width is an estimate, not a choice: it is kept."""
        sel = select_by_trace([1.0], lambda om: ("est", 0.0, COLLAPSED))
        assert sel.omega_opt == 1.0 and sel.best_estimate == "est"
        np.testing.assert_array_equal(sel.traces, [0.0])
        assert sel.status == ["ok"] and sel.ess[0] == 1.0

    def test_status_on_the_generic_path(self, reg_gaussian):
        """The collapsed widths of test_refuses_collapsed_widths read "ess",
        and every ess equals check_mt_condition's at that width."""
        x = make_regression_data(reg_gaussian, 300, 77)
        family = lambda om: projected_mt_function(reg_gaussian, om)
        omegas = [0.02, 0.05, 1.0, 5.0]
        sel = select_mt_parameter(
            x, family, omegas,
            lambda data, u: regression_moment_model(reg_gaussian, data, u))
        assert sel.status == ["ess", "ess", "ok", "ok"]
        for om, ess in zip(omegas, sel.ess):
            assert ess == pytest.approx(check_mt_condition(x, family(om)).ess,
                                        rel=1e-12)

    def test_rule_all_collapsed_raises(self):
        with pytest.raises(DegenerateWeights, match="all grid points"):
            select_by_trace([1.0, 2.0], lambda om: (om, 0.0, COLLAPSED))


class TestFisherInformation:
    def test_gaussian_regression_closed_form(self, reg_gaussian):
        n = 10 ** 4
        x = make_regression_data(reg_gaussian, n, 19)
        fim = fisher_information(
            lambda data, th: gaussian_score_regression(data, th, reg_gaussian),
            x, THETA0_REG)
        closed = gaussian_fim_regression(reg_gaussian)
        assert np.linalg.norm(fim - closed) / np.linalg.norm(closed) < 0.05
        crlb = np.linalg.inv(fim) / n
        target = gaussian_crlb_regression(reg_gaussian, n)
        assert np.trace(crlb) == pytest.approx(np.trace(target), rel=0.05)

    def test_theta_independent_density_zero(self, rng):
        x = rng.standard_normal((50, 2)) + 1j * rng.standard_normal((50, 2))
        fim = fisher_information(
            lambda data, th: np.zeros((data.shape[0], 3)), x, np.zeros(3))
        np.testing.assert_array_equal(fim, np.zeros((3, 3)))

    def test_missing_score_raises(self, rng):
        x = rng.standard_normal((10, 2)) + 0j
        with pytest.raises(ValueError, match="likelihood unknown"):
            fisher_information(None, x, np.zeros(2))


class TestWeightedScoreIdentity:
    def test_identity_f_equals_u_psi_eta(self, reg_gaussian):
        """F_hat matches the mixed moment n^-1 sum u psi eta^T for the known
        Gaussian likelihood (statistical, 10% at n = 10^4)."""
        n = 10 ** 4
        x = make_regression_data(reg_gaussian, n, 20)
        omega = 4.0
        u = projected_mt_function(reg_gaussian, omega)
        mm = regression_moment_model(reg_gaussian, x, u)
        theta_hat = mt_gqmle_regression(x, reg_gaussian, omega)
        s = sandwich(x, theta_hat, mm, u)
        uvals = u.weights(x)
        psi = psi_u_batch(x, theta_hat, mm)
        eta = gaussian_score_regression(x, theta_hat, reg_gaussian)
        mixed = np.einsum("n,nk,nj->kj", uvals, psi, eta) / n
        assert np.linalg.norm(s.f_hat - mixed) / np.linalg.norm(s.f_hat) < 0.1


class TestCRLBDomination:
    def test_closed_form_dominates_crlb(self, reg_gaussian):
        crlb = np.trace(gaussian_crlb_regression(reg_gaussian, 1000))
        for om in np.linspace(1.0, 30.0, 30):
            tr = np.trace(asymptotic_mse_regression(reg_gaussian, om, 1000))
            assert tr >= 0.97 * crlb
        wide = np.trace(asymptotic_mse_regression(reg_gaussian, 1e4, 1000))
        assert wide == pytest.approx(crlb, rel=1e-4)


def influence_with(f_matrix):
    """influence at the regression model's first sample with F = f_matrix."""
    return lambda x, mm: influence(x[0], THETA0_REG, mm,
                                   constant_mt_function(), f_matrix)


NOT_REAL_4X4 = "f_matrix must be a real \\(4, 4\\) matrix"


@pytest.mark.parametrize("call, error, message", [
    pytest.param(influence_with(np.zeros((4, 4))), SingularMatrix,
                 "F matrix singular", id="influence singular F"),
    pytest.param(influence_with(np.full((4, 4), np.nan)), SingularMatrix,
                 "F matrix singular", id="influence non-finite F"),
    pytest.param(influence_with(np.eye(3)), ValueError, NOT_REAL_4X4,
                 id="influence F of a smaller dimension"),
    pytest.param(influence_with(np.ones((4, 3))), ValueError, NOT_REAL_4X4,
                 id="influence F not square"),
    pytest.param(influence_with(np.ones(4)), ValueError, NOT_REAL_4X4,
                 id="influence F 1-D"),
    pytest.param(influence_with([[1.0] * 4, [1.0] * 4, [1.0] * 4, [1.0]]),
                 ValueError, NOT_REAL_4X4, id="influence F ragged"),
    pytest.param(influence_with(np.eye(4) * (1 + 1j)), ValueError,
                 NOT_REAL_4X4, id="influence F complex"),
    pytest.param(lambda x, mm: fisher_information(
        lambda data, th: np.zeros((data.shape[0] - 1, 4)), x, THETA0_REG),
        ValueError, "score returned a wrong number of rows",
        id="fisher score rows"),
])
def test_input_checks(reg_gaussian, call, error, message):
    x = make_regression_data(reg_gaussian, 50, 3)
    mm = regression_moment_model(reg_gaussian, x, constant_mt_function())
    with pytest.raises(error, match=message):
        call(x, mm)
