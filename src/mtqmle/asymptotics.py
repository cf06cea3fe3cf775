"""Score and curvature of the fitted Gaussian log-density, the sandwich
estimate of the asymptotic MSE, influence functions, and data-driven width
selection.

With phi(x; theta) the circular Gaussian density carrying the model's
reweighted mean m(theta) and covariance S(theta), the score is

    psi_k(x; theta) = d/dtheta_k log phi(x; theta)
                    = -tr[S^-1 dS_k] + 2 Re{(x-m)^H S^-1 dm_k}
                      + tr[S^-1 dS_k S^-1 (x-m)(x-m)^H],

its Hessian Gamma(x; theta) has a closed form given second moment
derivatives, and the large-sample MSE of the fit is the sandwich

    C_hat = n^-1 F_hat^-1 G_hat F_hat^-1,
    G_hat = n^-1 sum u^2(x_n) psi psi^T,   F_hat = -n^-1 sum u(x_n) Gamma.

C_hat is invariant to rescaling u; the internals max-normalize the weights so
sharply decaying u never underflows the solve.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .core import as_dataset, cholesky_pd, logdet_pd
from .estimator import EstimationResult, ParametricMomentModel, estimate_mt_gqmle
from .exceptions import DegenerateWeights, NotPositiveDefinite, SingularMatrix
from .transform import MTFunction, _weights

_COND_LIMIT = 1e14
_FD_STEP = 1e-5


def log_phi_u(data, theta, model: ParametricMomentModel) -> np.ndarray:
    """log of the fitted Gaussian density at each sample, shape (n,)."""
    x = as_dataset(data)
    theta = np.asarray(theta, dtype=float).ravel()
    sigma = model.mt_cov(theta)
    p = sigma.shape[0]
    chol = cholesky_pd(sigma)
    resid = np.linalg.solve(chol, (x - model.mt_mean(theta)).T)
    quad = np.einsum("pn,pn->n", resid.conj(), resid).real
    return -p * np.log(np.pi) - logdet_pd(sigma) - quad


def psi_u_batch(data, theta, model: ParametricMomentModel) -> np.ndarray:
    """Score vectors for every sample, shape (n, m)."""
    x = as_dataset(data)
    theta = np.asarray(theta, dtype=float).ravel()
    sigma = model.mt_cov(theta)
    mean = model.mt_mean(theta)
    d_mean = np.asarray(model.d_mean(theta))          # (m, p)
    d_cov = np.asarray(model.d_cov(theta))            # (m, p, p)
    chol = cholesky_pd(sigma)

    def solve(b):
        return np.linalg.solve(chol.conj().T, np.linalg.solve(chol, b))

    e = x - mean                                      # (n, p)
    w = solve(e.T).T                                  # (n, p) rows S^-1 e_n
    sinv_dmean = solve(d_mean.T)                      # (p, m)
    a_k = np.stack([solve(d_cov[k]) for k in range(d_cov.shape[0])])  # (m,p,p)

    term1 = -np.trace(a_k, axis1=1, axis2=2).real     # (m,)
    term2 = 2.0 * np.real(e.conj() @ sinv_dmean)      # (n, m)
    term3 = np.einsum("ni,kij,nj->nk", w.conj(), d_cov, w).real
    return term1[None, :] + term2 + term3


def psi_u(x, theta, model: ParametricMomentModel) -> np.ndarray:
    """Score at a single observation, shape (m,)."""
    return psi_u_batch(np.atleast_2d(np.asarray(x, dtype=complex)), theta,
                       model)[0]


def _gamma_analytic_batch(x: np.ndarray, theta: np.ndarray,
                          model: ParametricMomentModel) -> np.ndarray:
    """Hessians of log phi for all samples, shape (n, m, m), exact.

    With A_k = S^-1 dS_k, b_k = S^-1 dm_k and w = S^-1 (x - m):

        Gamma_kj = tr[A_j A_k] - tr[S^-1 dS_kj] - 2 Re{dm_j^H b_k}
                   + 2 Re{w^H dm_kj} - 2 Re{w^H dS_j b_k} - 2 Re{w^H dS_k b_j}
                   + w^H dS_kj w - w^H dS_j A_k w - w^H dS_k A_j w.
    """
    sigma = model.mt_cov(theta)
    mean = model.mt_mean(theta)
    m = model.theta_dim
    d_mean = np.asarray(model.d_mean(theta))           # (m, p)
    d_cov = np.asarray(model.d_cov(theta))             # (m, p, p)
    d2_mean = np.asarray(model.d2_mean(theta))         # (m, m, p)
    d2_cov = np.asarray(model.d2_cov(theta))           # (m, m, p, p)
    chol = cholesky_pd(sigma)

    def solve(rhs):
        return np.linalg.solve(chol.conj().T, np.linalg.solve(chol, rhs))

    sinv = solve(np.eye(sigma.shape[0], dtype=complex))
    e = x - mean
    w = solve(e.T).T                                   # (n, p)
    b = solve(d_mean.T).T                              # (m, p) rows S^-1 dm_k
    a = np.stack([solve(d_cov[k]) for k in range(m)])  # (m, p, p) S^-1 dS_k

    tr_ajak = np.einsum("jab,kba->kj", a, a).real
    tr_s_d2 = np.einsum("ab,kjba->kj", sinv, d2_cov).real
    mean_cross = 2.0 * np.einsum("ja,ka->kj", d_mean.conj(), b).real
    const = tr_ajak - tr_s_d2 - mean_cross             # (m, m)

    wc = w.conj()
    lin_mu = 2.0 * np.einsum("na,kja->nkj", wc, d2_mean).real
    sj_bk = np.einsum("jab,kb->kja", d_cov, b)         # (k, j, a) = dS_j b_k
    lin_cross = 2.0 * np.einsum("na,kja->nkj", wc, sj_bk).real
    lin_cross = lin_cross + np.swapaxes(lin_cross, 1, 2)

    quad_d2 = np.einsum("na,kjab,nb->nkj", wc, d2_cov, w).real
    ak_w = np.einsum("kab,nb->kna", a, w)              # (k, n, a) = A_k w_n
    quad_cross = np.einsum("na,jab,knb->nkj", wc, d_cov, ak_w).real
    quad_cross = quad_cross + np.swapaxes(quad_cross, 1, 2)

    out = const[None, :, :] + lin_mu - lin_cross + quad_d2 - quad_cross
    return 0.5 * (out + np.swapaxes(out, 1, 2))


def gamma_u_batch(data, theta, model: ParametricMomentModel) -> np.ndarray:
    """Hessians of log phi per sample: analytic when the model carries second
    derivatives, else central differences of the score with a scaled step."""
    x = as_dataset(data)
    theta = np.asarray(theta, dtype=float).ravel()
    if model.has_second_derivatives:
        return _gamma_analytic_batch(x, theta, model)
    m = theta.size
    out = np.empty((x.shape[0], m, m))
    for j in range(m):
        step = _FD_STEP * (1.0 + abs(theta[j]))
        hi = theta.copy()
        lo = theta.copy()
        hi[j] += step
        lo[j] -= step
        out[:, :, j] = (psi_u_batch(x, hi, model)
                        - psi_u_batch(x, lo, model)) / (2.0 * step)
    return 0.5 * (out + np.swapaxes(out, 1, 2))


def gamma_u(x, theta, model: ParametricMomentModel) -> np.ndarray:
    return gamma_u_batch(np.atleast_2d(np.asarray(x, dtype=complex)), theta,
                         model)[0]


@dataclass
class SandwichMatrices:
    g_hat: np.ndarray      # (m, m) symmetric PSD
    f_hat: np.ndarray      # (m, m) symmetric
    c_hat: np.ndarray      # (m, m) symmetric PSD, the asymptotic MSE estimate
    n_samples: int

    @property
    def trace(self) -> float:
        return float(np.trace(self.c_hat))


def _symmetrize(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.T)


def sandwich(data, theta_hat, model: ParametricMomentModel, u: MTFunction
             ) -> SandwichMatrices:
    """Empirical asymptotic MSE matrices at the estimate.

    Warns (without refusing) when theta_hat sits on the parameter-space
    boundary, where the asymptotic normality argument does not apply.
    """
    x = as_dataset(data)
    theta_hat = np.asarray(theta_hat, dtype=float).ravel()
    n = x.shape[0]
    lw = u.log_weights(x)
    scaled = _weights(lw)[0]                         # u / max(u), in (0, 1]
    if model.space.on_boundary(theta_hat):
        warnings.warn("estimate lies on the parameter-space boundary; "
                      "the sandwich asymptotics assume an interior optimum",
                      RuntimeWarning, stacklevel=2)
    psi = psi_u_batch(x, theta_hat, model)           # (n, m)
    gam = gamma_u_batch(x, theta_hat, model)         # (n, m, m)
    g_scaled = np.einsum("n,nk,nj->kj", scaled ** 2, psi, psi) / n
    f_scaled = -np.einsum("n,nkj->kj", scaled, gam) / n
    if not np.all(np.isfinite(f_scaled)) or \
            np.linalg.cond(f_scaled) > _COND_LIMIT:
        raise SingularMatrix("F matrix singular")
    finv_g = np.linalg.solve(f_scaled, g_scaled)
    c_hat = _symmetrize(np.linalg.solve(f_scaled, finv_g.T) / n)
    umax = np.exp(np.max(lw))                        # <= 1 for Gaussian u
    return SandwichMatrices(g_hat=_symmetrize(g_scaled) * umax ** 2,
                            f_hat=_symmetrize(f_scaled) * umax,
                            c_hat=c_hat, n_samples=n)


def score_identity_check(data, theta_hat, model: ParametricMomentModel,
                         u: MTFunction) -> float:
    """|| n^-1 sum u(x_n) psi(x_n; theta_hat) ||, zero at an interior maximizer."""
    x = as_dataset(data)
    uvals = u.weights(x)
    psi = psi_u_batch(x, theta_hat, model)
    return float(np.linalg.norm(uvals @ psi / x.shape[0]))


def influence(y, theta0, model: ParametricMomentModel, u: MTFunction,
              f_matrix: Optional[np.ndarray] = None,
              reference_data=None) -> np.ndarray:
    """Influence of a contamination point: F^-1 psi(y; theta0) u(y).

    ``f_matrix`` may come from an application closed form; otherwise it is
    estimated from ``reference_data`` as the weighted negative mean Hessian.
    """
    y = np.asarray(y, dtype=complex).ravel()
    theta0 = np.asarray(theta0, dtype=float).ravel()
    if f_matrix is None:
        if reference_data is None:
            raise ValueError("provide f_matrix or reference_data")
        ref = as_dataset(reference_data)
        uvals = u.weights(ref)
        gam = gamma_u_batch(ref, theta0, model)
        f_matrix = -np.einsum("n,nkj->kj", uvals, gam) / ref.shape[0]
    f_matrix = np.asarray(f_matrix, dtype=float)
    if not np.all(np.isfinite(f_matrix)) or \
            np.linalg.cond(f_matrix) > _COND_LIMIT:
        raise SingularMatrix("F matrix singular")
    uy = float(u.weights(y[None, :])[0])
    if uy == 0.0:
        return np.zeros(theta0.size)
    return np.linalg.solve(f_matrix, psi_u(y, theta0, model) * uy)


ModelOrFactory = Union[ParametricMomentModel,
                       Callable[[np.ndarray, MTFunction], ParametricMomentModel]]


@dataclass
class SelectionResult:
    omega_opt: float
    omegas: np.ndarray
    traces: np.ndarray                    # NaN where a grid point degenerated
    estimates: list = field(default_factory=list)  # EstimationResult or None

    @property
    def best_estimate(self) -> EstimationResult:
        idx = int(np.nanargmin(self.traces))
        return self.estimates[idx]


def select_by_trace(omegas: Sequence[float],
                    fit: Callable[[float], tuple]) -> SelectionResult:
    """The width-selection rule: the omega whose ``fit(omega) -> (estimate,
    trace)`` has the smallest empirical asymptotic MSE trace.

    Candidates are visited in sorted order. One whose fit raises
    DegenerateWeights, SingularMatrix or NotPositiveDefinite gets a NaN trace
    and is skipped; any other error propagates. Raises DegenerateWeights when
    every candidate fails. Ties resolve to the smallest omega.
    """
    omegas = np.sort(np.asarray(list(omegas), dtype=float))
    traces = np.full(omegas.size, np.nan)
    estimates: list = [None] * omegas.size
    for i, omega in enumerate(omegas):
        try:
            estimates[i], traces[i] = fit(float(omega))
        except (DegenerateWeights, SingularMatrix, NotPositiveDefinite):
            continue
    if np.all(np.isnan(traces)):
        raise DegenerateWeights("all grid points degenerate")
    idx = int(np.nanargmin(traces))  # first minimum == smallest omega on ties
    return SelectionResult(omega_opt=float(omegas[idx]), omegas=omegas,
                           traces=traces, estimates=estimates)


def select_mt_parameter(data, family: Callable[[float], MTFunction],
                        omegas: Sequence[float], model: ModelOrFactory
                        ) -> SelectionResult:
    """``select_by_trace`` with the sandwich MSE trace of a full re-estimate
    of theta on the same dataset for every candidate omega."""
    x = as_dataset(data)

    def fit(omega):
        u = family(omega)
        model_i = model(x, u) if callable(model) else model
        est = estimate_mt_gqmle(x, u, model_i)
        return est, sandwich(x, est.theta, model_i, u).trace

    return select_by_trace(omegas, fit)


def fisher_information(score: Optional[Callable], data, theta0) -> np.ndarray:
    """Sample-average Fisher information E[eta eta^T] of a known likelihood.

    ``score(X, theta)`` must return the (n, m) likelihood score at each
    sample. Raises when no score is available for the model at hand.
    """
    if score is None:
        raise ValueError("likelihood unknown")
    x = as_dataset(data)
    theta0 = np.asarray(theta0, dtype=float).ravel()
    eta = np.atleast_2d(np.asarray(score(x, theta0), dtype=float))
    if eta.shape[0] != x.shape[0]:
        raise ValueError("score returned a wrong number of rows")
    return _symmetrize(eta.T @ eta / x.shape[0])
