"""Single-source direction finding on a half-wavelength uniform linear array.

The estimator scans a reweighted spatial spectrum a(theta)^H C_hat a(theta)
over a dense angle grid, where C_hat is the reweighted second moment of the
snapshots under a Gaussian weight exp(-||x||^2 / omega^2); the constant-weight
limit is the classical Bartlett scan. Closed forms ship for the asymptotic
MSE, its empirical estimate, the influence function and the jointly-Gaussian
CRLB.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .core import as_dataset, hermitize
from .estimator import ParameterSpace, ParametricMomentModel, _fit_cov_scalars
from .exceptions import NotPositiveDefinite, SingularMatrix
from .samplers import NoiseSpec, _over_square, texture_expectation
from .transform import (GaussianWeights, constant_mt_function,
                        empirical_mt_moments, gaussian_mt_function,
                        width_squared)

_DELTA = 1e-3
_DEFAULT_GRID = 10_000


@dataclass
class ULAModel:
    """Array geometry plus source/noise description.

    The angle space is [-pi/2, pi/2 - _DELTA]; the small gap keeps cos(theta)
    in the closed forms away from zero. Grid and basis are _basis(p, k_theta).
    """

    p: int
    sigma2_s: float
    noise: NoiseSpec

    def __post_init__(self):
        if self.p < 2:
            raise ValueError("need at least 2 sensors")
        if not self.sigma2_s > 0:
            raise ValueError("sigma2_s must be positive")
        if self.noise.p != self.p:
            raise ValueError("noise dimension differs from sensor count")

    theta_bounds = (-np.pi / 2.0, np.pi / 2.0 - _DELTA)     # not a field

    @staticmethod
    def grid(k_theta: int = _DEFAULT_GRID) -> np.ndarray:
        if k_theta < 2:
            raise ValueError("need at least 2 grid points")
        return np.linspace(*ULAModel.theta_bounds, k_theta)


@functools.lru_cache(maxsize=8)
def _basis(p: int, k_theta: int) -> tuple:
    """(k_theta-point grid, (2p-1, G) real basis [1; 2 Re a_d; 2 Im a_d] of
    its steering vectors), read-only and built once per (p, k_theta)."""
    thetas = ULAModel.grid(k_theta)
    steer = steering_grid(thetas, p)[:, 1:].T
    basis = np.vstack([np.ones(k_theta), 2.0 * steer.real, 2.0 * steer.imag])
    thetas.flags.writeable = basis.flags.writeable = False
    return thetas, basis


def steering(theta: float, p: int, order: int = 0) -> np.ndarray:
    """Steering vector a(theta) with phases exp(-i pi k sin theta), or its
    first/second derivative in theta (order 1 or 2); theta of shape (..., 1)
    gives (..., p)."""
    k = np.arange(p)
    base = np.exp(-1j * np.pi * k * np.sin(theta))
    if order == 0:
        return base
    if order == 1:
        return -1j * np.pi * k * np.cos(theta) * base
    if order == 2:
        return (1j * np.pi * k * np.sin(theta)
                - (np.pi * k * np.cos(theta)) ** 2) * base
    raise ValueError("order must be 0, 1 or 2")


def steering_grid(thetas: np.ndarray, p: int) -> np.ndarray:
    """Steering vectors for many angles at once, shape (len(thetas), p)."""
    k = np.arange(p)
    return np.exp(-1j * np.pi * np.outer(np.sin(thetas), k))


@dataclass
class SpectrumCurve:
    thetas: np.ndarray
    values: np.ndarray

    @property
    def argmax_theta(self) -> float:
        # first maximum == smallest angle on exact ties
        return float(self.thetas[int(np.argmax(self.values))])


def _lag_scan(thetas, basis, mean, cov) -> SpectrumCurve:
    """a^H C a over thetas, C = cov + mean mean^H, in lag form: r_0 + 2 sum_d
    Re(r_d e^{i pi d sin theta}) with r_d the sum of the d-th subdiagonal of
    C; basis is _basis's. NotPositiveDefinite when C, its lag sums or the
    spectrum overflow: argmax would read a NaN as the first angle."""
    with np.errstate(over="ignore", invalid="ignore"):      # checked below
        c_hat = hermitize(cov + np.outer(mean, mean.conj()))
        lags = np.array([np.trace(c_hat, offset=-d) for d in range(len(mean))])
        values = np.concatenate([lags.real, lags[1:].imag]) @ basis
    if not np.all(np.isfinite(values)):
        raise NotPositiveDefinite("spectrum is not finite")
    return SpectrumCurve(thetas=thetas, values=values)


def mt_spectrum(data, model: ULAModel, omega: float,
                k_theta: int = _DEFAULT_GRID) -> SpectrumCurve:
    """Reweighted spatial spectrum over the k_theta-point grid."""
    m = empirical_mt_moments(data, gaussian_mt_function(omega))
    return _lag_scan(*_basis(model.p, k_theta), m.mt_mean, m.mt_cov)


def estimate_doa(data, model: ULAModel, omega: float,
                 k_theta: int = _DEFAULT_GRID) -> float:
    """Angle maximizing the reweighted spectrum on a k_theta-point grid."""
    return mt_spectrum(data, model, omega, k_theta=k_theta).argmax_theta


def bartlett_doa(data, model: ULAModel, k_theta: int = _DEFAULT_GRID) -> float:
    """Constant-weight (classical Bartlett) scan over the same grid."""
    m = empirical_mt_moments(data, constant_mt_function())
    return _lag_scan(*_basis(model.p, k_theta), m.mt_mean, m.mt_cov).argmax_theta


def _h_factor(p: int, s_abs2, nu2, omega2):
    """((nu2 + w2)/w2)^-(p+2) exp(-|s|^2/(nu2 + w2)) with log-space powers."""
    return np.exp(-(p + 2) * (np.log(nu2 + omega2) - np.log(omega2))
                  - s_abs2 / (nu2 + omega2))


def asymptotic_mse_doa(model: ULAModel, theta0: float, omega: float, n: int
                       ) -> float:
    """Closed-form asymptotic MSE of the reweighted scan at theta0.

    The source expectation collapses under BPSK (|S|^2 = sigma2_s); the
    texture expectation is evaluated by the shared deterministic quadrature.
    """
    p = model.p
    s2z = model.noise.sigma2
    s2s = model.sigma2_s
    w2 = width_squared(omega)

    def f_num(nu2):
        v2 = nu2 * s2z
        d2 = 2.0 * v2 + w2
        with np.errstate(divide="ignore"):     # a zero draw's term is 0
            log_v2 = np.log(v2)
        log_d2 = np.log(d2)
        # log-space sum keeps extreme texture draws finite
        log_gain = np.logaddexp(2.0 * log_v2,
                                log_v2 + np.log(w2 * p * s2s) - log_d2)
        log_h = -(p + 2) * (log_d2 - np.log(w2)) - 2.0 * p * s2s / d2
        return np.exp(log_gain + log_h)

    def f_den(nu2):
        v2 = nu2 * s2z
        return p * s2s * _h_factor(p, p * s2s, v2, w2)

    num = texture_expectation(model.noise, f_num)
    den = texture_expectation(model.noise, f_den)
    scale = 6.0 / (np.pi ** 2 * np.cos(theta0) ** 2 * (p ** 2 - 1) * n)
    return _over_square(num, den) * scale


def gaussian_crlb_doa(model: ULAModel, theta0: float, n: int) -> float:
    """n-sample CRLB for jointly Gaussian signal and noise."""
    p = model.p
    s2z = model.noise.sigma2
    s2s = model.sigma2_s
    return 6.0 * s2z * (s2z + s2s * p) / (
        s2s ** 2 * np.pi ** 2 * np.cos(theta0) ** 2 * p ** 2 * (p ** 2 - 1) * n)


def _slope_curvature(x: np.ndarray, theta: float, p: int) -> tuple:
    """Per-sample spectrum slope alpha and curvature beta statistics at theta."""
    with np.errstate(over="ignore", invalid="ignore"):
        ax, dax, ddax = (x @ steering(theta, p, k).conj() for k in range(3))
        np.conjugate(ax, out=ax)
        alpha = 2.0 * np.real(dax * ax)
        beta = 2.0 * np.real(ddax * ax + np.abs(dax) ** 2)
    return alpha, beta


def _empirical_mse(alpha: np.ndarray, beta: np.ndarray, scaled) -> float:
    """sum u^2 alpha^2 / (sum u beta)^2 over the samples of nonzero weight,
    whose statistics stay finite; scaled is u up to a common factor. alpha
    and the curvature sum are divided by the sum's power of two before they
    are squared: exact, so the squares stay finite on scaled-up data."""
    with np.errstate(over="ignore", invalid="ignore"):
        kept = scaled > 0
        denom = float(np.sum(np.where(kept, beta * scaled, 0.0)))
        if denom == 0.0 or not np.isfinite(denom):
            raise SingularMatrix("degenerate curvature")
        mant, exp = np.frexp(denom)
        alpha = np.ldexp(alpha, -exp)
        num = float(np.sum(np.where(kept, alpha ** 2 * scaled ** 2, 0.0)))
    return num / float(mant) ** 2


def empirical_asymptotic_mse_doa(data, model: ULAModel, theta_hat: float,
                                 omega: float) -> float:
    """Empirical asymptotic MSE: sum u^2 alpha^2 / (sum u beta)^2 with the
    spectrum slope alpha and curvature beta statistics at theta_hat."""
    x = as_dataset(data)
    scaled = GaussianWeights(x).weigh(omega)[0]
    return _empirical_mse(*_slope_curvature(x, theta_hat, model.p), scaled)


def _lag_table(x: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """(n, 2p-1) per-sample lags [r_0, Re r_d, Im r_d], r_{d,n} = sum_k
    x_{n,k+d} conj(x_{n,k}), so phi @ table is the lag vector of sum phi_n
    x_n x_n^H. Rows whose norm overflows (weight 0 at every width) are 0."""
    n, p = x.shape
    table = np.empty((n, 2 * p - 1))
    table[:, 0] = norms
    with np.errstate(over="ignore", invalid="ignore"):
        for d in range(1, p):
            r = np.einsum("nk,nk->n", x[:, d:], x[:, :-d].conj())
            table[:, d], table[:, d - p] = r.real, r.imag
    table[~np.isfinite(norms)] = 0.0
    return table


def mt_fitter_doa(data, model: ULAModel, k_theta: int = _DEFAULT_GRID):
    """Per-dataset fitter: omega -> (estimate_doa, empirical_asymptotic_mse_doa
    at it, normalized weights phi). As sum phi = 1, the scanned C = cov +
    mean mean^H is sum phi_n x_n x_n^H: a width needs only phi @ lag table.
    Norms and table are built once per dataset, the basis once per geometry;
    slope and curvature are kept for the latest angle only."""
    x = as_dataset(data)
    kernel = GaussianWeights(x)
    lags = _lag_table(x, kernel.norms)
    thetas, basis = _basis(model.p, k_theta)
    latest = {}                                 # {theta: (alpha, beta)}

    def fit(omega: float) -> tuple:
        scaled, phi = kernel.weigh(omega)
        lag_vector = phi @ lags
        if not np.all(np.isfinite(lag_vector)):
            raise NotPositiveDefinite("reweighted lags are not finite")
        theta = SpectrumCurve(thetas, lag_vector @ basis).argmax_theta
        if theta not in latest:
            latest.clear()                      # free before recomputing
            latest[theta] = _slope_curvature(x, theta, model.p)
        return theta, _empirical_mse(*latest[theta], scaled), phi

    return fit


@functools.lru_cache(maxsize=256)
def _influence_prefactor(noise: NoiseSpec, sigma2_s: float, p: int,
                         omega: float) -> float:
    s2z = noise.sigma2
    w2 = width_squared(omega)

    def f_num(nu2):
        v2 = nu2 * s2z
        return (1.0 + v2 / w2) ** 2 * _h_factor(p, p * sigma2_s, v2, w2)

    def f_den(nu2):
        v2 = nu2 * s2z
        return sigma2_s * _h_factor(p, p * sigma2_s, v2, w2)

    return texture_expectation(noise, f_num) / texture_expectation(noise, f_den)


def influence_doa(y, theta0: float, model: ULAModel, omega: float) -> float:
    """Closed-form influence of a contamination point y (scalar).

    Bounded over all of C^p and decaying to zero as ||y|| grows: the scan
    statistic grows quadratically while the weight decays exponentially. The
    point-independent prefactor is cached across calls.
    """
    y = np.asarray(y, dtype=complex).ravel()
    p = model.p
    pref = _influence_prefactor(model.noise, model.sigma2_s, p, float(omega))
    damp = gaussian_mt_function(omega).weights(y[None, :])[0]
    if damp == 0.0:                             # y may overflow the statistic
        return 0.0
    stat = 12.0 * np.real((steering(theta0, p, 1).conj() @ y)
                          * (y.conj() @ steering(theta0, p)))
    return pref * stat * damp / (np.pi ** 2 * np.cos(theta0) ** 2
                                 * p ** 2 * (p ** 2 - 1))


def fit_spectrum_cov_scalars(model: ULAModel, sigma_hat: np.ndarray,
                             theta: float) -> tuple:
    """Least-squares fit of Sigma_hat ~ r_s a a^H + r_w I at the given angle."""
    p = model.p
    a = steering(theta, p)
    t_a = float(np.real(a.conj() @ sigma_hat @ a))
    return _fit_cov_scalars(sigma_hat, t_a,
                            np.array([[p ** 2, p], [p, p]], dtype=float))


def doa_moment_model(model: ULAModel, data, omega: float,
                     k_theta: int = _DEFAULT_GRID,
                     use_solver: bool = True) -> ParametricMomentModel:
    """Generic-path moment model: zero mean, covariance r_s a a^H + r_w I.

    (r_s, r_w) are fitted to the empirical reweighted covariance at the
    direct scan estimate. The solver hook replays the spectrum scan, which
    maximizes the fit objective exactly for this covariance structure.
    """
    p = model.p
    moments = empirical_mt_moments(data, gaussian_mt_function(omega))
    basis = _basis(p, k_theta)
    theta_ref = _lag_scan(*basis, moments.mt_mean, moments.mt_cov).argmax_theta
    r_s, r_w = fit_spectrum_cov_scalars(model, moments.mt_cov, theta_ref)
    eye = np.eye(p)
    zeros = np.broadcast_to(0j, (1, 1, p))      # read-only: one element

    def mt_cov(theta):
        a = steering(np.asarray(theta)[..., :1], p)
        return r_s * (a[..., :, None] * a.conj()[..., None, :]) + r_w * eye

    def d_cov(theta):
        a = steering(float(theta[0]), p)
        da = steering(float(theta[0]), p, 1)
        return (r_s * (np.outer(da, a.conj()) + np.outer(a, da.conj())))[None]

    def d2_cov(theta):
        a = steering(float(theta[0]), p)
        da = steering(float(theta[0]), p, 1)
        dda = steering(float(theta[0]), p, 2)
        block = r_s * (np.outer(dda, a.conj()) + 2.0 * np.outer(da, da.conj())
                       + np.outer(a, dda.conj()))
        return block[None, None]

    def solver(mom):
        return np.array([_lag_scan(*basis, mom.mt_mean, mom.mt_cov).argmax_theta])

    lo, hi = model.theta_bounds
    space = ParameterSpace(lower=[lo], upper=[hi], grid_sizes=k_theta)
    return ParametricMomentModel(
        mt_mean=lambda theta: np.zeros(np.shape(theta)[:-1] + (p,),
                                       dtype=complex),
        mt_cov=mt_cov,
        d_mean=lambda theta: zeros[0],
        d_cov=d_cov,
        d2_mean=lambda theta: zeros,
        d2_cov=d2_cov,
        space=space,
        solver=solver if use_solver else None,
        info={"r_s": r_s, "r_w": r_w, "theta_ref": theta_ref})


def gaussian_score_doa(data, theta, model: ULAModel) -> np.ndarray:
    """Likelihood score for jointly Gaussian signal and noise, shape (n, 1)."""
    if model.noise.kind != "gaussian":
        raise ValueError("likelihood unknown")
    x = as_dataset(data)
    th = float(np.asarray(theta).ravel()[0])
    p = model.p
    a = steering(th, p)
    da = steering(th, p, 1)
    cov = model.sigma2_s * np.outer(a, a.conj()) + model.noise.sigma2 * np.eye(p)
    d_cov = model.sigma2_s * (np.outer(da, a.conj()) + np.outer(a, da.conj()))
    cinv_d = np.linalg.solve(cov, d_cov)
    mid = cinv_d @ np.linalg.inv(cov)
    quad = np.einsum("ni,ij,nj->n", x.conj(), mid, x).real
    return (quad - np.trace(cinv_d).real)[:, None]
