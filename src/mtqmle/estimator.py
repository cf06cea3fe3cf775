"""Parametric moment models, the quasi-likelihood objective, and its maximizer.

The estimator fits a parametric family of (possibly reweighted) means and
covariances to the empirical reweighted moments of the data by maximizing

    J_u(theta) = -D_LD[S_hat || S(theta)] - ||m_hat - m(theta)||^2_{S(theta)^-1},

which is <= 0 up to rounding, and 0 iff the empirical moments match the model.
Maximization runs through a model-supplied closed-form solver when present,
otherwise over an exhaustive grid of the (compact, box-shaped) parameter
space; both paths are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .core import _logdet_cholesky, cholesky_pd
from .exceptions import NotPositiveDefinite
from .transform import EmpiricalMTMoments, MTFunction, constant_mt_function, empirical_mt_moments

_GRID_CHUNK = 512  # grid points per batched factorization: ~0.8 MB at p = 10


@dataclass(frozen=True)
class ParameterSpace:
    """Compact box with a fixed search grid (endpoints included)."""

    lower: np.ndarray
    upper: np.ndarray
    grid_sizes: np.ndarray

    def __init__(self, lower, upper, grid_sizes):
        lower = np.atleast_1d(np.asarray(lower, dtype=float))
        upper = np.atleast_1d(np.asarray(upper, dtype=float))
        grid_sizes = np.atleast_1d(np.asarray(grid_sizes, dtype=int))
        if grid_sizes.size == 1:
            grid_sizes = np.full(lower.size, int(grid_sizes[0]))
        if not (lower.size == upper.size == grid_sizes.size):
            raise ValueError("lower, upper and grid_sizes sizes differ")
        if not np.all(np.isfinite(lower)) or not np.all(np.isfinite(upper)):
            raise ValueError("bounds must be finite")
        if np.any(lower > upper):
            raise ValueError("lower bound exceeds upper bound")
        if np.any(grid_sizes < 1):
            raise ValueError("grid sizes must be >= 1")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "grid_sizes", grid_sizes)

    def axes(self) -> list:
        return [np.linspace(lo, hi, k) for lo, hi, k in
                zip(self.lower, self.upper, self.grid_sizes)]

    def grid_points(self) -> np.ndarray:
        """All grid points, shape (prod(grid_sizes), dim), lowest index first."""
        dim = self.lower.size
        if dim == 0:
            return np.empty((1, 0))
        grids = np.meshgrid(*self.axes(), indexing="ij")
        return np.stack(grids, axis=-1).reshape(-1, dim)

    def _point(self, theta) -> np.ndarray:
        """theta as a float vector, refused unless it has the space's size."""
        theta = np.asarray(theta, dtype=float).ravel()
        if theta.size != self.lower.size:
            raise ValueError(f"theta of wrong dimension {theta.size} for a "
                             f"{self.lower.size}-dimensional space")
        return theta

    def on_boundary(self, theta) -> bool:
        theta = self._point(theta)
        tol = 1e-9 * np.maximum(self.upper - self.lower, 1e-300)
        return bool(np.any((theta - self.lower) <= tol)
                    or np.any((self.upper - theta) <= tol))


@dataclass
class ParametricMomentModel:
    """Maps a real parameter vector to model mean/covariance and derivatives.

    theta has the space's dimension m; public entries refuse another size.
    mt_mean(theta) -> (p,), mt_cov(theta) -> (p, p) positive definite on the
    space; both broadcast, (..., m) -> (..., p) and (..., p, p), so a grid is
    one call. d_mean(theta) -> (m, p) and d_cov(theta) -> (m, p, p) take one
    point and stack the first derivatives along the parameter axis. Second
    derivatives (d2_mean -> (m, m, p), d2_cov -> (m, m, p, p)) are optional;
    when absent the curvature machinery falls back to finite differences of
    the score. ``solver``, if set, maps empirical moments to the maximizer.
    """

    mt_mean: Callable[[np.ndarray], np.ndarray]
    mt_cov: Callable[[np.ndarray], np.ndarray]
    d_mean: Callable[[np.ndarray], np.ndarray]
    d_cov: Callable[[np.ndarray], np.ndarray]
    space: ParameterSpace
    d2_mean: Optional[Callable[[np.ndarray], np.ndarray]] = None
    d2_cov: Optional[Callable[[np.ndarray], np.ndarray]] = None
    solver: Optional[Callable[[EmpiricalMTMoments], np.ndarray]] = None
    info: dict = field(default_factory=dict)

    @property
    def has_second_derivatives(self) -> bool:
        return self.d2_mean is not None and self.d2_cov is not None


@dataclass
class EstimationResult:
    theta: np.ndarray
    method: str
    moments: EmpiricalMTMoments    # the reweighted moments J_u was built from
    model: ParametricMomentModel = field(repr=False)

    @property
    def objective(self) -> float:  # J_u at theta, evaluated when read
        return objective_j_u(self.moments, self.model, self.theta)


def objective_j_u(moments: EmpiricalMTMoments, model: ParametricMomentModel,
                  theta) -> float:
    """J_u(theta); <= 0 up to rounding, zero iff the moments match the model."""
    return float(_grid_objective(moments, model,
                                 model.space._point(theta)[None])[0])


def _grid_objective(moments: EmpiricalMTMoments, model: ParametricMomentModel,
                    points: np.ndarray) -> np.ndarray:
    """J_u at each row of ``points``: one batched Cholesky factor of S(theta)
    per chunk, or ``cholesky_pd`` point by point if the batch is rejected."""
    s_hat = np.asarray(moments.mt_cov, dtype=complex)
    logdet_hat = _logdet_cholesky(cholesky_pd(s_hat))
    vals = np.empty(len(points))
    for start in range(0, len(points), _GRID_CHUNK):
        chunk = points[start:start + _GRID_CHUNK]
        sigmas = np.asarray(model.mt_cov(chunk), dtype=complex)
        if not np.all(np.isfinite(sigmas)):
            raise NotPositiveDefinite("model covariance is not finite")
        try:
            chols = np.linalg.cholesky(sigmas)
        except np.linalg.LinAlgError:
            chols = np.array([cholesky_pd(sigma) for sigma in sigmas])
        s_inv_s_hat = np.linalg.solve(chols.conj().swapaxes(-1, -2),
                                      np.linalg.solve(chols, s_hat))
        div = (np.trace(s_inv_s_hat, axis1=-2, axis2=-1).real
               - (logdet_hat - _logdet_cholesky(chols)) - s_hat.shape[0])
        resid = moments.mt_mean - model.mt_mean(chunk)
        with np.errstate(over="ignore", invalid="ignore"):
            # a huge or infinite model mean gives -inf/NaN, which never wins
            y = np.linalg.solve(chols, resid[..., None])[..., 0]
            quad = (y.conj()[..., None, :] @ y[..., None])[..., 0, 0].real
        vals[start:start + len(chunk)] = -(div + quad)
    return vals


def estimate_mt_gqmle(data, u: MTFunction, model: ParametricMomentModel
                      ) -> EstimationResult:
    """Maximize J_u built from the empirical reweighted moments of ``data``.

    Uses the model's closed-form solver when available, else the exhaustive
    grid: ties go to the lowest grid index, NaN never wins, and a grid with
    no finite objective raises ValueError.
    """
    return _estimate(empirical_mt_moments(data, u), model)


def _estimate(moments: EmpiricalMTMoments, model: ParametricMomentModel
              ) -> EstimationResult:
    """``estimate_mt_gqmle`` from moments already built."""
    if model.solver is not None:
        theta = model.space._point(model.solver(moments))
        return EstimationResult(theta, "closed-form", moments, model)
    points = model.space.grid_points()
    if points.size == 0:
        raise ValueError("empty parameter grid")
    vals = _grid_objective(moments, model, points)
    best = int(np.argmax(np.where(np.isnan(vals), -np.inf, vals)))  # first max
    if not vals[best] > -np.inf:
        raise ValueError(f"no finite objective on the {len(points)}-point grid")
    return EstimationResult(points[best], "grid", moments, model)


def estimate_gqmle(data, model: ParametricMomentModel) -> EstimationResult:
    """Unweighted special case: estimate_mt_gqmle with u == 1."""
    return estimate_mt_gqmle(data, constant_mt_function(), model)


def _fit_cov_scalars(sigma_hat: np.ndarray, t_basis: float,
                     gram: np.ndarray) -> tuple:
    """Least-squares fit of Sigma_hat ~ r_b B + r_i I from t_basis = tr(B
    Sigma_hat) and the Gram matrix of {B, I}, floored to r_b >= 0, r_i > 0."""
    t_i = float(np.trace(sigma_hat).real)
    r_b, r_i = np.linalg.solve(gram, np.array([t_basis, t_i]))
    r_i = max(r_i, 1e-12 * max(t_i / sigma_hat.shape[0], 1e-30))
    return float(max(r_b, 0.0)), float(r_i)


@dataclass
class IdentifiabilityReport:
    flagged: list          # (theta, mean_dist, cov_dist) triples
    n_checked: int

    @property
    def ok(self) -> bool:
        return not self.flagged


def check_identifiability(model: ParametricMomentModel, theta0
                          ) -> IdentifiabilityReport:
    """Flag points of the model's grid whose moments collide with those at
    theta0.

    A collision (both the mean and covariance distances below 1e-8) at
    theta != theta0 means the fit objective cannot separate the two points.
    The maps see _GRID_CHUNK points per call, as in the grid search.
    """
    theta0 = model.space._point(theta0)
    points = model.space.grid_points()
    chunks = np.split(points, range(_GRID_CHUNK, len(points), _GRID_CHUNK))
    mean0, cov0 = model.mt_mean(theta0), model.mt_cov(theta0)
    mean_dist = np.concatenate([np.linalg.norm(model.mt_mean(c) - mean0,
                                               axis=-1) for c in chunks])
    cov_dist = np.concatenate([np.linalg.norm(model.mt_cov(c) - cov0,
                                              axis=(-2, -1)) for c in chunks])
    hit = ((np.linalg.norm(points - theta0, axis=-1) >= 1e-12)
           & (mean_dist < 1e-8) & (cov_dist < 1e-8))
    flagged = list(zip(points[hit], mean_dist[hit].tolist(),
                       cov_dist[hit].tolist()))
    return IdentifiabilityReport(flagged=flagged, n_checked=len(points))
