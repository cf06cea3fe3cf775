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
from typing import Callable, Optional, Sequence

import numpy as np

from .core import _logdet_cholesky, as_dataset, cholesky_pd, hermitize
from .estimator import EstimationResult, ParametricMomentModel, _estimate
from .exceptions import DegenerateWeights, MTQMLEError, SingularMatrix
from .transform import MTFunction, _ess, _moments, _weights

_COND_LIMIT = 1e14
# Least Kish ESS 1 / sum phi^2 of a selectable width: below 2, x_n - mu_hat
# vanishes with the dominant sample, and so does the empirical MSE.
_ESS_FLOOR = 2.0
_FD_STEP = 1e-5


def log_phi_u(data, theta, model: ParametricMomentModel) -> np.ndarray:
    """log of the fitted Gaussian density at each sample, shape (n,)."""
    x = as_dataset(data)
    theta = model.space._point(theta)
    chol = cholesky_pd(model.mt_cov(theta))
    resid = np.linalg.solve(chol, (x - model.mt_mean(theta)).T)
    quad = np.einsum("pn,pn->n", resid.conj(), resid).real
    return -chol.shape[0] * np.log(np.pi) - _logdet_cholesky(chol) - quad


def _score(x: np.ndarray, theta: np.ndarray, model: ParametricMomentModel
           ) -> tuple:
    """Score of log phi for every sample, shape (n, m), from one Cholesky
    factor of S(theta), with the pieces it is built from: S^-1, formed once
    from that factor, dm_k (m, p), w = S^-1 (x - m) (p, n), b_k = S^-1 dm_k
    (p, m), A_k = S^-1 dS_k (m, p, p) and dS_k (m, p, p). When dS = 0, w and
    A_k are None and their score terms, exact zeros, are skipped."""
    d_mean = np.asarray(model.d_mean(theta))
    d_cov = np.asarray(model.d_cov(theta))
    l_inv = np.linalg.inv(cholesky_pd(model.mt_cov(theta)))
    s_inv = l_inv.conj().T @ l_inv
    e = x - model.mt_mean(theta)                      # (n, p)
    b = s_inv @ d_mean.T
    if not np.any(d_cov):
        return 2.0 * np.real(e.conj() @ b), (s_inv, d_mean, None, b, None, d_cov)
    w = s_inv @ e.T
    a = s_inv @ d_cov
    psi = (-np.trace(a, axis1=1, axis2=2).real + 2.0 * np.real(e.conj() @ b)
           + np.einsum("kna,an->nk", w.T.conj() @ d_cov, w).real)
    return psi, (s_inv, d_mean, w, b, a, d_cov)


def _psi_gamma(x: np.ndarray, theta: np.ndarray, model: ParametricMomentModel,
               weights: Optional[np.ndarray] = None) -> tuple:
    """Score (n, m) of log phi for every sample, and its Hessian: per sample
    (n, m, m), or the weighted sum sum_n weights_n Gamma_n (m, m).

    The Hessian is analytic when the model carries second derivatives, built
    from the score's own pieces: with A_k = S^-1 dS_k, b_k = S^-1 dm_k and
    w = S^-1 (x - m),

        Gamma_kj = tr[A_j A_k] - tr[S^-1 dS_kj] - 2 Re{dm_j^H b_k}
                   + 2 Re{w^H dm_kj} - 2 Re{w^H dS_j b_k} - 2 Re{w^H dS_k b_j}
                   + w^H dS_kj w - w^H dS_j A_k w - w^H dS_k A_j w,

    which is linear in 1, w and w w^H. One formula takes those statistics
    per sample or as the weighted sums s0 = sum u, s1 = sum u w and
    s2 = sum u w w^H. Terms of zero dS, dS_kj or dm_kj blocks are skipped,
    and w is formed only when a remaining term reads it; the rest add in
    order. Otherwise it is central differences of the score with a scaled
    step, per sample, then contracted with the weights.
    """
    psi, (s_inv, d_mean, w, b, a, d_cov) = _score(x, theta, model)
    m = theta.size
    if weights is not None:     # a zero-weight sample adds exactly 0, also
        zero = weights == 0     # where its statistics overflow (0 * inf)
        psi[zero] = 0.0
    if model.has_second_derivatives:
        d2_mean = np.asarray(model.d2_mean(theta))    # (m, m, p)
        d2_cov = np.asarray(model.d2_cov(theta))      # (m, m, p, p)
        has_d2m, has_d2s = np.any(d2_mean), np.any(d2_cov)
        if w is None and (has_d2m or has_d2s):        # dS = 0 left it unformed
            w = s_inv @ (x - model.mt_mean(theta)).T
        s0 = np.ones(x.shape[0]) if weights is None else np.sum(weights)
        if w is not None:    # per sample (w_n, w_n w_n^H), or weighted sums
            if weights is not None:
                w[:, zero] = 0.0
            s1 = w.T if weights is None else w @ weights
            s2 = (s1[:, :, None] * s1.conj()[:, None, :] if weights is None
                  else (w * weights) @ w.T.conj())
        const = -2.0 * (d_mean.conj() @ b).real.T
        if a is not None:
            const = const + np.einsum("jab,kba->kj", a, a).real
        if has_d2s:
            const = const - np.trace(s_inv @ d2_cov, axis1=2, axis2=3).real
        out = np.multiply.outer(s0, const)
        if has_d2m:
            out = out + 2.0 * np.einsum("...a,kja->...kj", s1.conj(),
                                        d2_mean).real
        if has_d2s:
            out = out + np.einsum("kjab,...ba->...kj", d2_cov, s2).real
        if a is not None:
            # X_kj = 2 Re{w^H dS_j b_k} + w^H dS_j A_k w enters as -(X_kj + X_jk)
            cross = (2.0 * np.einsum("...a,jak->...kj", s1.conj(),
                                     d_cov @ b).real
                     + np.einsum("jkab,...ba->...kj", d_cov[:, None] @ a,
                                 s2).real)
            out = out - cross - np.swapaxes(cross, -1, -2)
    else:
        out = np.empty((x.shape[0], m, m))
        for j in range(m):
            step = _FD_STEP * (1.0 + abs(theta[j]))
            h = step * np.eye(m)[j]
            out[:, :, j] = (_score(x, theta + h, model)[0]
                            - _score(x, theta - h, model)[0]) / (2.0 * step)
        if weights is not None:
            out[zero] = 0.0
            out = np.einsum("n,nkj->kj", weights, out)
    return psi, 0.5 * (out + np.swapaxes(out, -1, -2))


def psi_u_batch(data, theta, model: ParametricMomentModel) -> np.ndarray:
    """Score vectors for every sample, shape (n, m)."""
    theta = model.space._point(theta)
    return _score(as_dataset(data), theta, model)[0]


def psi_u(x, theta, model: ParametricMomentModel) -> np.ndarray:
    """Score at a single observation, shape (m,)."""
    return psi_u_batch(np.atleast_2d(np.asarray(x, dtype=complex)), theta,
                       model)[0]


def gamma_u_batch(data, theta, model: ParametricMomentModel) -> np.ndarray:
    """Hessians of log phi per sample, shape (n, m, m): analytic when the
    model carries second derivatives, else central differences of the score."""
    theta = model.space._point(theta)
    return _psi_gamma(as_dataset(data), theta, model)[1]


@dataclass
class SandwichMatrices:
    g_hat: np.ndarray      # (m, m) symmetric PSD
    f_hat: np.ndarray      # (m, m) symmetric
    c_hat: np.ndarray      # (m, m) symmetric PSD, the asymptotic MSE estimate

    @property
    def trace(self) -> float:
        return float(np.trace(self.c_hat))


def sandwich(data, theta_hat, model: ParametricMomentModel, u: MTFunction
             ) -> SandwichMatrices:
    """Empirical asymptotic MSE matrices at the estimate.

    Warns (without refusing) when theta_hat sits on the parameter-space
    boundary, where the asymptotic normality argument does not apply.
    """
    x = as_dataset(data)
    lw = u._log_weights(x)
    return _sandwich(x, model.space._point(theta_hat), model, lw,
                     _weights(lw)[0])


def _sandwich(x: np.ndarray, theta_hat: np.ndarray,
              model: ParametricMomentModel, lw: np.ndarray, scaled: np.ndarray
              ) -> SandwichMatrices:
    """``sandwich`` from validated data, the log-weights ``lw`` of u on it and
    their max-shifted weights ``scaled`` = u / max(u), in [0, 1]."""
    n = x.shape[0]
    if model.space.on_boundary(theta_hat):
        # stacklevel 3: the line that called the public entry
        warnings.warn("estimate lies on the parameter-space boundary; "
                      "the sandwich asymptotics assume an interior optimum",
                      RuntimeWarning, stacklevel=3)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        psi, gam_sum = _psi_gamma(x, theta_hat, model, scaled)  # (n,m), (m,m)
        g_scaled = (psi.T * scaled ** 2) @ psi / n
    f_scaled = -gam_sum / n
    if not np.all(np.isfinite(g_scaled)):
        raise SingularMatrix("G matrix is not finite")
    if not np.all(np.isfinite(f_scaled)) or \
            np.linalg.cond(f_scaled) > _COND_LIMIT:
        raise SingularMatrix("F matrix singular")
    finv_g = np.linalg.solve(f_scaled, g_scaled)
    c_hat = hermitize(np.linalg.solve(f_scaled, finv_g.T) / n)
    umax = np.exp(np.max(lw))                        # <= 1 for Gaussian u
    return SandwichMatrices(g_hat=hermitize(g_scaled) * umax ** 2,
                            f_hat=hermitize(f_scaled) * umax,
                            c_hat=c_hat)


def score_identity_check(data, theta_hat, model: ParametricMomentModel,
                         u: MTFunction) -> float:
    """|| n^-1 sum u(x_n) psi(x_n; theta_hat) ||, zero at an interior maximizer."""
    x = as_dataset(data)
    lw = u._log_weights(x)
    scaled = _weights(lw)[0]                    # weighed as the sandwich is
    with np.errstate(over="ignore", invalid="ignore"):  # in zeroed rows only
        psi = _psi_gamma(x, model.space._point(theta_hat), model, scaled)[0]
    return float(np.linalg.norm(scaled @ psi) * np.exp(lw.max()) / len(x))


def influence(y, theta0, model: ParametricMomentModel, u: MTFunction,
              f_matrix: np.ndarray) -> np.ndarray:
    """Influence of a contamination point: F^-1 psi(y; theta0) u(y).

    ``f_matrix`` is a real (m, m) F: an application closed form, or the
    sandwich's estimate ``sandwich(x, theta0, model, u).f_hat`` from data x.
    """
    y = np.asarray(y, dtype=complex).ravel()
    theta0 = model.space._point(theta0)
    try:
        f_matrix = np.asarray(f_matrix)
    except ValueError:                          # a ragged nested list
        f_matrix = np.empty(0)
    if f_matrix.shape != theta0.shape * 2 or f_matrix.dtype.kind not in "biuf":
        raise ValueError(f"f_matrix must be a real {theta0.shape * 2} matrix")
    if not np.all(np.isfinite(f_matrix)) or \
            np.linalg.cond(f_matrix) > _COND_LIMIT:
        raise SingularMatrix("F matrix singular")
    uy = float(u.weights(y[None, :])[0])
    if uy == 0.0:
        return np.zeros(theta0.size)
    return np.linalg.solve(f_matrix, psi_u(y, theta0, model) * uy)


@dataclass
class SelectionResult:
    omega_opt: float
    omegas: np.ndarray
    traces: np.ndarray                    # NaN where a grid point degenerated
    estimates: list = field(default_factory=list)  # as best_estimate, or None
    status: list = field(default_factory=list)  # "ok", error name or "ess"
    ess: np.ndarray = field(default_factory=lambda: np.empty(0))  # NaN: raised

    @property
    def best_estimate(self) -> EstimationResult | np.ndarray | float:
        """select_mt_parameter's EstimationResult; mt_fitter_*'s theta_hat."""
        return self.estimates[int(np.nanargmin(self.traces))]


def select_by_trace(omegas: Sequence[float],
                    fit: Callable[[float], tuple]) -> SelectionResult:
    """The width-selection rule: the omega whose ``fit(omega) -> (estimate,
    mse, normalized weights phi)`` has the smallest trace of its empirical
    asymptotic MSE (a scalar or a square matrix).

    Candidates are visited in sorted order. One whose fit raises an
    MTQMLEError gets a NaN trace and is skipped; any other error propagates.
    So is one whose Kish ESS 1 / sum phi^2 is below _ESS_FLOOR, unless it is
    the only candidate: a fixed width is an estimate, not a choice. Raises
    DegenerateWeights when every candidate fails. Ties resolve to the
    smallest omega. Each candidate's status is "ok", the name of the
    MTQMLEError its fit raised, or "ess" when the floor skipped it; its ess is
    the Kish ESS of the weights its fit returned, NaN where the fit raised.
    """
    omegas = np.sort(np.asarray(list(omegas), dtype=float))
    if omegas.size == 0:
        raise ValueError("no candidate widths")
    traces = np.full(omegas.size, np.nan)
    ess = np.full(omegas.size, np.nan)
    status = ["ok"] * omegas.size
    estimates: list = [None] * omegas.size
    for i, omega in enumerate(omegas):
        try:
            estimate, mse, phi = fit(float(omega))
        except MTQMLEError as err:
            status[i] = type(err).__name__
            continue
        ess[i] = _ess(phi)
        if omegas.size > 1 and ess[i] < _ESS_FLOOR:
            status[i] = "ess"
            continue
        estimates[i], traces[i] = estimate, np.trace(np.atleast_2d(mse))
    if np.all(np.isnan(traces)):
        raise DegenerateWeights("all grid points degenerate")
    idx = int(np.nanargmin(traces))  # first minimum == smallest omega on ties
    return SelectionResult(omega_opt=float(omegas[idx]), omegas=omegas,
                           traces=traces, estimates=estimates, status=status,
                           ess=ess)


def select_mt_parameter(data, family: Callable[[float], MTFunction],
                        omegas: Sequence[float],
                        model: Callable[[np.ndarray, MTFunction],
                                        ParametricMomentModel]
                        ) -> SelectionResult:
    """``select_by_trace`` with the sandwich MSE of a full re-estimate of
    theta on the same dataset for every candidate omega.

    Each candidate's fit builds the weights and moments of u = family(omega)
    once, for the factory, the estimator and the sandwich: ``model(x, u)``
    gets a read-only view of x, bound to u for that call only, on which
    ``empirical_mt_moments`` returns them. The data is validated once.
    """
    x = as_dataset(data)
    view = x.view()
    view.flags.writeable = False        # the bound moments stay those of x

    def fit(omega):
        u = family(omega)
        lw = u._log_weights(x)
        scaled, phi = _weights(lw)
        moments = _moments(x, phi)
        u._bound = (view, moments)
        try:
            model_i = model(view, u)
        finally:
            u._bound = None
        est = _estimate(moments, model_i)
        return (est, _sandwich(x, est.theta, model_i, lw, scaled).c_hat, phi)

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
    return hermitize(eta.T @ eta / x.shape[0])
