"""Complex linear regression: X_n = A alpha0 + W_n with spherically contoured
noise, estimated through a projected Gaussian weight u(x) = exp(-||P_perp x||^2
/ omega^2) that only sees the component of x orthogonal to range(A).

Under that weight the noise keeps zero reweighted mean and a covariance of the
form r0 P_A + r1 I, so the estimator collapses to the closed form
alpha_hat = (A^H A)^-1 A^H mu_hat, and the asymptotic MSE, its empirical
estimate, and the influence function all have explicit expressions. The real
parameter is theta = [Re alpha; Im alpha] of dimension 2q.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass
import numpy as np

from .core import as_dataset, hermitize
from .estimator import ParameterSpace, ParametricMomentModel, _fit_cov_scalars
from .samplers import NoiseSpec, _over_square, texture_expectation
from .transform import (MTFunction, _weights, empirical_mt_moments,
                        gaussian_log_weights, squared_norms, width_squared)

_COLLINEARITY_TOL = 1e-8


def realify(alpha: np.ndarray) -> np.ndarray:
    """Stack [Re alpha; Im alpha] along the last axis."""
    alpha = np.asarray(alpha, dtype=complex)
    return np.concatenate([alpha.real, alpha.imag], axis=-1)


def unrealify(theta: np.ndarray) -> np.ndarray:
    """Inverse of realify along the last axis: [Re; Im] -> Re + i Im."""
    theta = np.asarray(theta, dtype=float)
    q = theta.shape[-1] // 2
    return theta[..., :q] + 1j * theta[..., q:]


def realify_matrix(c: np.ndarray) -> np.ndarray:
    """[[Re C, -Im C], [Im C, Re C]], the real form of a complex matrix."""
    c = np.asarray(c, dtype=complex)
    return np.block([[c.real, -c.imag], [c.imag, c.real]])


@dataclass
class RegressionModel:
    """Known regressors plus the noise description used by the closed forms.

    A must be tall with full column rank, as (A^H A)^-1 A^H mu_hat needs.
    """

    a_matrix: np.ndarray
    noise: NoiseSpec

    def __post_init__(self):
        a = np.asarray(self.a_matrix, dtype=complex)
        if a.ndim != 2 or a.shape[0] <= a.shape[1]:
            raise ValueError("regressor matrix must be tall (p > q)")
        if np.linalg.matrix_rank(a) < a.shape[1]:
            raise ValueError("regressor matrix must have full column rank")
        if self.noise.p != a.shape[0]:
            raise ValueError("noise dimension differs from observation dimension")
        self.a_matrix = a
        self.p, self.q = a.shape
        self.aha = a.conj().T @ a
        self.m_real = realify_matrix(self.aha)          # B^-1 in the real form
        self.b_matrix = np.linalg.inv(self.m_real)
        self.proj_a = hermitize(a @ np.linalg.solve(self.aha, a.conj().T))
        self.proj_perp = np.eye(self.p) - self.proj_a

    @property
    def sigma2_z(self) -> float:
        return self.noise.sigma2


def build_steering_regressors(p: int, angle0: float, angle1: float,
                           noise: NoiseSpec) -> RegressionModel:
    """Two-column unit-modulus regressors A = [a_0, a_1] / sqrt(2) with
    a_k = [1, e^{i angle_k}, ..., e^{i (p-1) angle_k}]^T / sqrt(p).

    Nearly equal angles are allowed but warned about (columns become
    collinear and the fit ill-conditioned); equal angles give a rank-one A,
    which RegressionModel refuses with ValueError.
    """
    if p < 2:
        raise ValueError("p must be at least 2")
    if abs(np.sin(angle0) - np.sin(angle1)) < _COLLINEARITY_TOL and \
            abs(np.cos(angle0) - np.cos(angle1)) < _COLLINEARITY_TOL:
        warnings.warn("regressor angles nearly equal; columns are close to "
                      "collinear", RuntimeWarning, stacklevel=2)
    cols = [np.exp(1j * np.arange(p) * ang) / np.sqrt(p)
            for ang in (angle0, angle1)]
    return RegressionModel(np.stack(cols, axis=1) / np.sqrt(2.0), noise)


def projected_mt_function(model: RegressionModel, omega: float) -> MTFunction:
    """Gaussian weight of width omega on the orthogonal complement of range(A)."""
    width_squared(omega)
    return MTFunction(
        lambda x: gaussian_log_weights(squared_norms(x, model.proj_perp), omega),
        params={"width": float(omega)})


def _least_squares(model: RegressionModel, mean: np.ndarray) -> np.ndarray:
    """Realified (A^H A)^-1 A^H mean."""
    return realify(np.linalg.solve(model.aha, model.a_matrix.conj().T @ mean))


def gqmle_regression(data, model: RegressionModel) -> np.ndarray:
    """Unweighted limit: least squares on the plain sample mean."""
    return _least_squares(model, as_dataset(data).mean(axis=0))


@functools.lru_cache(maxsize=256)
def _mean_weight(noise: NoiseSpec, expo: int, omega: float) -> float:
    s2 = noise.sigma2
    w2 = width_squared(omega)
    return texture_expectation(
        noise, lambda nu2: np.exp(expo * (np.log(w2) - np.log(s2 * nu2 + w2))))


def mean_weight_regression(model: RegressionModel, omega: float) -> float:
    """Expected weight E[u] = E[(w^2/(s^2 nu^2 + w^2))^(p-q)] over the texture."""
    return _mean_weight(model.noise, model.p - model.q, float(omega))


def _texture_ratio(model: RegressionModel, omega: float) -> float:
    """E[nu^2 (w^2/(2 s^2 nu^2 + w^2))^(p-q)] / E[(w^2/(s^2 nu^2 + w^2))^(p-q)]^2."""
    expo = model.p - model.q
    s2 = model.sigma2_z
    w2 = width_squared(omega)

    def numerator(nu2):
        with np.errstate(divide="ignore"):     # a zero draw's term is 0
            log_nu2 = np.log(nu2)
        # single exp keeps huge-texture tails at 0 instead of 0 * inf
        return np.exp(log_nu2 + expo * (np.log(w2) - np.log(2.0 * s2 * nu2 + w2)))

    num = texture_expectation(model.noise, numerator)
    return _over_square(num, mean_weight_regression(model, omega))


def asymptotic_mse_regression(model: RegressionModel, omega: float, n: int
                              ) -> np.ndarray:
    """Closed-form asymptotic MSE matrix: texture ratio times sigma2/(2n) B."""
    return _texture_ratio(model, omega) * (model.sigma2_z / (2.0 * n)) * model.b_matrix


def mt_fitter_regression(data, model: RegressionModel):
    """Per-dataset fitter: omega -> (theta_hat, empirical asymptotic MSE
    sum u^2 zeta zeta^T / (sum u)^2, weights phi); zeta = B [Re; Im](A^H (x -
    mu_hat^(u))) is z0 - theta_hat, z0 = B [Re; Im](A^H x_n). The norms and
    z0 are computed once per dataset."""
    x = as_dataset(data)
    norms = squared_norms(x, model.proj_perp)
    z0 = realify(x @ model.a_matrix.conj()) @ model.b_matrix.T

    def fit(omega: float) -> tuple:
        scaled, phi = _weights(gaussian_log_weights(norms, omega))
        theta = _least_squares(model, phi @ x)
        zeta = z0 - theta
        total = scaled.sum()
        # total * total, not total ** 2: a numpy scalar's pow can round the
        # last bit differently
        return theta, (scaled ** 2 * zeta.T) @ zeta / (total * total), phi

    return fit


def mt_gqmle_regression(data, model: RegressionModel, omega: float
                        ) -> np.ndarray:
    """Closed-form estimate realified (A^H A)^-1 A^H mu_hat^(u), the first
    output of the fitter."""
    return mt_fitter_regression(data, model)(omega)[0]


def empirical_asymptotic_mse_regression(data, model: RegressionModel,
                                        omega: float) -> np.ndarray:
    """Empirical asymptotic MSE matrix, the second output of the fitter."""
    return mt_fitter_regression(data, model)(omega)[1]


def influence_regression(y, theta0, model: RegressionModel, omega: float
                         ) -> np.ndarray:
    """Closed-form influence of a contamination point y.

    Grows without bound along range(A) but is damped by
    exp(-||P_perp y||^2 / omega^2) everywhere else.
    """
    y = np.asarray(y, dtype=complex).ravel()
    theta0 = np.asarray(theta0, dtype=float).ravel()
    pref = 1.0 / mean_weight_regression(model, omega)
    bracket = model.b_matrix @ realify(model.a_matrix.conj().T @ y) - theta0
    damp = projected_mt_function(model, omega).weights(y[None, :])[0]
    return pref * bracket * damp


def fit_noise_cov_scalars(model: RegressionModel, sigma_hat: np.ndarray
                          ) -> tuple:
    """Least-squares fit of Sigma_hat ~ r0 P_A + r1 I over the two-matrix basis."""
    p, q = model.p, model.q
    t_pa = float(np.trace(model.proj_a @ sigma_hat).real)
    return _fit_cov_scalars(sigma_hat, t_pa,
                            np.array([[q, q], [q, p]], dtype=float))


def regression_moment_model(model: RegressionModel, data, u: MTFunction
                            ) -> ParametricMomentModel:
    """Generic-path moment model for this application.

    The reweighted noise covariance scalars (r0, r1) are fitted to the
    empirical reweighted covariance of ``data``; the mean map is the exact
    affine A alpha. The closed-form solver reproduces the direct estimator
    (the (A^H A)-weighting cancels the structured covariance for any r0, r1).
    The space is [-3, 3]^(2q) with 9 points per axis; for the grid path or
    another box, use dataclasses.replace(mm, solver=None, space=...).
    """
    a = model.a_matrix
    p, q = model.p, model.q
    m = 2 * q
    r0, r1 = fit_noise_cov_scalars(model, empirical_mt_moments(data, u).mt_cov)
    cov_const = r0 * model.proj_a + r1 * np.eye(p)
    d_mean = np.concatenate([a.T, 1j * a.T], axis=0)       # (m, p)
    zero = np.broadcast_to(0j, (m, m, p, p))    # read-only: one element

    def solver(moments):
        return _least_squares(model, moments.mt_mean)

    space = ParameterSpace(lower=np.full(m, -3.0), upper=np.full(m, 3.0),
                           grid_sizes=9)
    return ParametricMomentModel(
        mt_mean=lambda theta: (a @ unrealify(theta)[..., None])[..., 0],
        mt_cov=lambda theta: np.broadcast_to(cov_const,
                                             np.shape(theta)[:-1] + (p, p)),
        d_mean=lambda theta: d_mean,
        d_cov=lambda theta: zero[0],
        d2_mean=lambda theta: zero[..., 0],
        d2_cov=lambda theta: zero,
        space=space,
        solver=solver,
        info={"r0": r0, "r1": r1})


def population_f_regression(model: RegressionModel, omega: float,
                            r_sum: float) -> np.ndarray:
    """Population weighted-curvature matrix E[u] (2 / (r0 + r1)) B^-1 for the
    structured covariance with the given r0 + r1 (pairs with the moment model
    that carries those scalars)."""
    return mean_weight_regression(model, omega) * (2.0 / r_sum) * model.m_real


# --- known-likelihood quantities (Gaussian noise only) ------------------------

def _require_gaussian(model: RegressionModel):
    if model.noise.kind != "gaussian":
        raise ValueError("likelihood unknown")


def gaussian_score_regression(data, theta, model: RegressionModel) -> np.ndarray:
    """Likelihood score (2/sigma2)[Re h; Im h], h = A^H (x - A alpha), (n, 2q)."""
    _require_gaussian(model)
    x = as_dataset(data)
    resid = x - model.a_matrix @ unrealify(theta)
    return (2.0 / model.sigma2_z) * realify(resid @ model.a_matrix.conj())


def gaussian_fim_regression(model: RegressionModel) -> np.ndarray:
    """Per-sample Fisher information (2/sigma2) B^-1 under Gaussian noise."""
    _require_gaussian(model)
    return (2.0 / model.sigma2_z) * model.m_real


def gaussian_crlb_regression(model: RegressionModel, n: int) -> np.ndarray:
    """sigma2/(2n) B, the n-sample Gaussian CRLB for theta."""
    _require_gaussian(model)
    return model.sigma2_z / (2.0 * n) * model.b_matrix
