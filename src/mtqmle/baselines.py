"""Comparison estimators for the regression problem: Tukey bi-square
M-estimation with a MAD scale, the t-noise maximum likelihood fixed point
and the median-location initializer.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import as_dataset
from .exceptions import DegenerateWeights, MTQMLEError
from .regression import RegressionModel, realify

# Two MAD scalings: the default divides by erfinv(3/4) = 0.81341..., the
# second by the normal quartile sqrt(2) erfinv(1/2) (the conventional 1.4826).
GAMMA_ERFINV = 1.0 / 0.8134198475976184
GAMMA_NORMAL_QUARTILE = 1.0 / (math.sqrt(2.0) * 0.4769362762044699)

# Fixed-point budget and relative step that counts as converged.
_MAX_ITER = 100
_REL_TOL = 1e-6


@dataclass
class BaselineResult:
    theta: np.ndarray
    converged: bool
    n_iter: int


def _medians(block: np.ndarray) -> np.ndarray:
    """np.median(block, axis=1) bit for bit from one single-rank selection
    that reorders each row in place. Like np.median's mean, it adds the
    middle order statistics to +0.0, so it never returns -0.0."""
    n = block.shape[1]
    k = (n - 1) // 2
    block.partition(k, axis=1)
    lo = block[:, k] + 0.0
    return lo if n % 2 else (lo + block[:, k + 1:].min(axis=1)) / 2.0


def _split_medians(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Re/Im medians per coordinate, interleaved, and their reordered block."""
    block = np.ascontiguousarray(x).view(float).reshape(len(x), -1).T.copy()
    return _medians(block), block


def median_location(data) -> np.ndarray:
    """Marginal median of the real and imaginary parts, per coordinate."""
    x = as_dataset(data)
    if x.shape[0] == 0:
        raise ValueError("empty dataset")
    med, _ = _split_medians(x)
    return med[0::2] + 1j * med[1::2]


def _location_and_scale(x: np.ndarray, gamma: float) -> tuple:
    """median_location and mad_scale from one selection per coordinate."""
    if x.shape[0] < 2:
        raise MTQMLEError("scale estimation needs at least 2 samples")
    med, block = _split_medians(x)
    # A median ignores the order within a row: reuse the reordered block.
    mad = _medians(np.abs(block - med[:, None]))
    per_coord = gamma ** 2 * (mad[0::2] ** 2 + mad[1::2] ** 2)
    if np.all(per_coord == 0.0):
        raise MTQMLEError("degenerate scale")
    return med[0::2] + 1j * med[1::2], float(np.sqrt(per_coord.mean()))


def mad_scale(data, gamma: float = GAMMA_ERFINV) -> float:
    """Robust scale sqrt((1/p) sum_k gamma^2 (MAD(Re x_k)^2 + MAD(Im x_k)^2)).

    ``gamma`` defaults to 1/erfinv(3/4); pass GAMMA_NORMAL_QUARTILE for the
    conventional 1.4826... normal-consistency constant.
    """
    return _location_and_scale(as_dataset(data), gamma)[1]


def _fixed_point(x: np.ndarray, model: RegressionModel, start: np.ndarray,
                 weight_fn: Callable[[np.ndarray], np.ndarray]
                 ) -> BaselineResult:
    """alpha <- (A^H A)^-1 A^H (sum_n w_n x_n / sum_n w_n) from the location
    ``start`` until relative change drops below tolerance; returns the last
    iterate flagged when the budget runs out."""
    a = model.a_matrix
    alpha = np.linalg.solve(model.aha, a.conj().T @ start)
    converged = False
    it = 0
    with np.errstate(over="ignore"):    # an inf residual gets weight 0
        for it in range(1, _MAX_ITER + 1):
            resid = np.linalg.norm(x - (a @ alpha)[None, :], axis=1)
            w = weight_fn(resid)
            total = w.sum()
            if total == 0.0:
                raise DegenerateWeights("all samples rejected")
            alpha_new = np.linalg.solve(model.aha,
                                        a.conj().T @ ((w @ x) / total))
            denom = np.linalg.norm(alpha)
            step = np.linalg.norm(alpha_new - alpha)
            alpha = alpha_new
            if denom > 0 and step / denom < _REL_TOL:
                converged = True
                break
            if denom == 0.0 and step == 0.0:
                converged = True
                break
    return BaselineResult(theta=realify(alpha), converged=converged, n_iter=it)


def tukey_weights(r: np.ndarray, c: float) -> np.ndarray:
    """Bi-square weights (1 - (r/c)^2)^2 on r <= c, zero beyond the cutoff."""
    r = np.asarray(r, dtype=float)
    inside = r <= c
    w = np.zeros_like(r)
    w[inside] = (1.0 - (r[inside] / c) ** 2) ** 2
    return w


def tukey_m_estimator(data, model: RegressionModel, c: float,
                      gamma: float = GAMMA_ERFINV) -> BaselineResult:
    """Tukey bi-square fixed point with residuals normalized by the MAD scale."""
    x = as_dataset(data)
    start, sigma = _location_and_scale(x, gamma)
    return _fixed_point(x, model, start, lambda r: tukey_weights(r / sigma, c))


def mle_t_noise(data, model: RegressionModel, lam: float) -> BaselineResult:
    """Maximum likelihood under t-distributed noise via the same fixed point
    with weights (1 + 2 r^2 / (lam sigma2))^-1, sigma2 the model's noise
    power."""
    if not lam > 0:
        raise ValueError("lam must be positive")
    x = as_dataset(data)
    s2 = model.sigma2_z
    return _fixed_point(x, model, median_location(x),
                        lambda r: 1.0 / (1.0 + 2.0 * r ** 2 / (lam * s2)))


class _IntegralUnderflow(ValueError):
    """Every ARE integral is 0: the residual density underflows below c."""


def _residual_density(p: int) -> Callable[[np.ndarray], np.ndarray]:
    """r -> 2 r^(2p-1) e^(-r^2) / (p-1)!, the density of R below, in log
    space so that large p cannot overflow."""
    log_norm = math.log(2.0) - math.lgamma(p)
    return lambda r: np.exp(log_norm + (2 * p - 1) * np.log(r) - r * r)


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """96-point Gauss-Legendre rule on [-1, 1], built once, on first use."""
    return np.polynomial.legendre.leggauss(96)


def are_tukey(c: float, p: int) -> float:
    """Asymptotic relative efficiency of the bi-square estimator vs the
    Gaussian CRLB, as a function of the cutoff c.

    The normalized residual R of a unit-dispersion complex p-vector satisfies
    sqrt(2) R ~ chi with 2p degrees of freedom. With g = 1 - (R/c)^2 on
    R <= c, integration by parts gives ARE = E[g^2 R^2]^2 / (p E[g^4 R^2]),
    both from one Gauss-Legendre rule on the part of [0, c] within 12 of
    sqrt(p), where the density lives; ValueError if they underflow to 0.
    """
    if not c > 0:
        raise ValueError("c must be positive")
    lo, hi = max(0.0, min(c, math.sqrt(p)) - 12.0), min(c, math.sqrt(p) + 12.0)
    nodes, weights = _gauss_legendre()
    r = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
    g2 = (1.0 - (r / c) ** 2) ** 2
    mass = weights * _residual_density(p)(r) * r ** 2 * g2
    denom = p * (mass @ g2)
    if denom == 0.0:
        raise _IntegralUnderflow(f"ARE integrals underflow at c = {c:g}")
    return 0.5 * (hi - lo) * mass.sum() ** 2 / denom


def tune_c_for_are(target: float, p: int) -> float:
    """Bisection on the monotone ARE curve over c in [0.5, 1e3] to
    |ARE - target| < 1e-4."""
    if not 0.0 < target < 1.0:
        raise ValueError("target must lie in (0, 1)")

    def are(c):
        try:
            return are_tukey(c, p)
        except _IntegralUnderflow:  # below target: ARE -> 0 as c -> 0
            return 0.0

    lo, hi = 0.5, 1.0
    if are(lo) > target:
        raise ValueError(f"target {target} unreachable above c = 0.5")
    while are(hi) < target:
        hi *= 2.0
        if hi > 1e3:
            raise ValueError(f"target {target} unreachable below c = 1e3")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        val = are(mid)
        if abs(val - target) < 1e-4:
            return mid
        if val < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
