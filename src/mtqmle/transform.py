"""Weight functions on C^p and the reweighted (transformed) sample moments.

A weight function u >= 0 turns the empirical distribution of a dataset into a
reweighted one with normalized weights u(x_n) / sum_m u(x_m). The weighted
mean and covariance under that reweighting generalize the standard sample
mean vector and (biased) sample covariance, which are recovered exactly for
constant u.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .core import as_dataset, hermitize
from .exceptions import DegenerateWeights, NotPositiveDefinite

# Weights below this are counted as numerically annihilated in diagnostics.
_TINY_WEIGHT = 1e-300
_ESS_WARN = 10.0


class MTFunction:
    """Non-negative deterministic weight function on C^p.

    Evaluation happens in log space so that sharply decaying weights (e.g.
    Gaussian with a small width on large-norm samples) normalize without
    underflow.

    Parameters
    ----------
    log_fn : callable
        Maps an (n, p) complex array to the (n,) array of log-weights
        (-inf encodes a zero weight).
    params : dict
        Parameter values describing the member of the family.
    """

    # (read-only x, moments) during asymptotics.select_mt_parameter's factory
    _bound: Optional[tuple] = None
    # (width, projector) of a gaussian_mt_function: GaussianWeights' arguments
    _gaussian: Optional[tuple] = None

    def __init__(self, log_fn: Callable[[np.ndarray], np.ndarray],
                 params: Optional[dict] = None):
        self._log_fn = log_fn
        self.params = dict(params or {})

    def __repr__(self):
        inner = ", ".join(f"{k}={v!r}" for k, v in self.params.items())
        return f"MTFunction({inner})"

    def log_weights(self, data) -> np.ndarray:
        return self._log_weights(as_dataset(data))

    def _log_weights(self, x: np.ndarray) -> np.ndarray:
        """``log_weights`` of a dataset that ``as_dataset`` has validated."""
        lw = np.asarray(self._log_fn(x), dtype=float)
        if lw.shape != (x.shape[0],):
            raise ValueError("log weight evaluator returned a wrong shape")
        if np.any(np.isnan(lw)) or np.any(lw == np.inf):
            raise ValueError("weight function produced NaN or +inf")
        return lw

    def weights(self, data) -> np.ndarray:
        """Raw (unnormalized) weights u(x_n)."""
        return np.exp(self.log_weights(data))


def constant_mt_function() -> MTFunction:
    """u(x) = 1, reproducing the unweighted sample moments."""
    return MTFunction(lambda x: np.zeros(x.shape[0]))


def width_squared(omega) -> float:
    """omega^2; ValueError unless omega > 0 with a finite, nonzero square."""
    try:
        w2 = float(omega) ** 2
    except OverflowError:
        w2 = 0.0  # rejected below
    if not (omega > 0 and 0.0 < w2 < np.inf):
        try:
            shown = f"{float(omega):g}"
        except OverflowError:  # an int too large for a float
            shown = "an integer outside the float range"
        raise ValueError(f"omega must be > 0 with a finite, nonzero square, got {shown}")
    return w2


def gaussian_mt_function(width: float, projector=None) -> MTFunction:
    """Gaussian weight u(x) = exp(-||P x||^2 / width^2) (P = identity if
    None), the one-width ``MTFunction`` view of ``GaussianWeights``."""
    width_squared(width)
    u = MTFunction(lambda x: GaussianWeights(x, projector).log_weights(width),
                   params={"width": float(width)})
    u._gaussian = (width, projector)
    return u


class GaussianWeights:
    """Gaussian weights at any width from the squared norms ||P x_n||^2 of a
    validated dataset, taken once; an inf or NaN (inf - inf) norm reads inf."""

    def __init__(self, x: np.ndarray, projector=None):
        with np.errstate(over="ignore", invalid="ignore"):
            y = x if projector is None else x @ projector.T
            self.norms = np.fmin(np.einsum("ni,ni->n", y, y.conj()).real, np.inf)

    def log_weights(self, omega) -> np.ndarray:
        """-norms / omega^2; an overflow is -inf, the log of a zero weight."""
        with np.errstate(over="ignore"):
            return -self.norms / width_squared(omega)

    def weigh(self, omega) -> tuple:
        """``_weights`` at width omega: (max-shifted, normalized) weights."""
        return _weights(self.log_weights(omega))


@dataclass
class EmpiricalMTMoments:
    """Normalized weights and the reweighted mean/covariance of a dataset."""

    weights: Optional[np.ndarray]  # (n,) normalized, sums to 1
    mt_mean: np.ndarray            # (p,)
    mt_cov: np.ndarray             # (p, p) Hermitian PSD


@dataclass
class MTDiagnostic:
    """Health report for a weight function applied to a dataset."""

    mean_weight: float
    tiny_fraction: float
    ess: float
    degenerate: bool
    warnings: list = field(default_factory=list)


def _weights(lw: np.ndarray) -> tuple:
    """Max-shifted weights exp(lw - max lw), which any common scale of u
    leaves unchanged, and their normalization; DegenerateWeights when every
    weight vanishes or the sample is empty."""
    top = lw.max(initial=-np.inf)
    if top == -np.inf:
        raise DegenerateWeights("MT-function annihilates sample")
    w = np.exp(lw - top)
    return w, w / w.sum()


def _ess(phi: np.ndarray) -> float:
    """Kish effective sample size 1 / sum phi^2 of normalized weights."""
    return float(1.0 / (phi @ phi))


def _weighted_mean(phi: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_n phi_n x_n of real weights and a validated (C-contiguous) dataset
    as one real product over its (n, 2p) float view; phi is not cast."""
    return (phi @ x.view(float)).view(complex)


def _moments(x: np.ndarray, phi: np.ndarray) -> EmpiricalMTMoments:
    """Reweighted mean and covariance of a validated dataset under normalized
    weights ``phi``; NotPositiveDefinite when the covariance overflows."""
    mean = _weighted_mean(phi, x)
    with np.errstate(over="ignore", invalid="ignore"):
        # sqrt-weighted rows keep huge rejected outliers (weight ~ 0) finite
        y = np.sqrt(phi)[:, None] * (x - mean)
        cov = hermitize(y.T @ y.conj())
    if not np.all(np.isfinite(cov)):
        raise NotPositiveDefinite("reweighted covariance is not finite")
    return EmpiricalMTMoments(weights=phi, mt_mean=mean, mt_cov=cov)


def empirical_mt_moments(data, u: MTFunction) -> EmpiricalMTMoments:
    """Reweighted mean and covariance with their normalized weights
    u(x_n) / sum_m u(x_m), normalized in log space (max-shifted) so that any
    common scale of u cancels exactly; DegenerateWeights when every weight
    vanishes, NotPositiveDefinite when the covariance overflows. During
    select_mt_parameter's factory call, the data bound to u returns the
    fit's own moments."""
    bound = u._bound                # read once: another thread may clear it
    if bound is not None and data is bound[0]:
        return bound[1]
    x = as_dataset(data)
    return _moments(x, _weights(u._log_weights(x))[1])


def check_mt_condition(data, u: MTFunction) -> MTDiagnostic:
    """Diagnose weight degeneracy; never raises.

    Reports the empirical mean of u, the fraction of numerically annihilated
    samples, and the effective sample size 1 / sum phi^2 (n for constant u,
    about 1 when a single sample dominates). ``asymptotics.select_by_trace``
    refuses widths whose ESS is below 2 when it chooses among several.
    """
    lw = u.log_weights(data)
    notes = []
    try:
        phi = _weights(lw)[1]
    except DegenerateWeights:
        notes.append("all weights are zero" if lw.size else "empty dataset")
        return MTDiagnostic(mean_weight=0.0, tiny_fraction=1.0, ess=0.0,
                            degenerate=True, warnings=notes)
    mean_weight = float(np.exp(lw).mean())
    tiny = float(np.mean(lw < np.log(_TINY_WEIGHT)))
    ess = _ess(phi)
    if ess < _ESS_WARN:
        notes.append(f"effective sample size {ess:.2f} < {_ESS_WARN:g}")
    return MTDiagnostic(mean_weight=mean_weight, tiny_fraction=tiny, ess=ess,
                        degenerate=False, warnings=notes)
