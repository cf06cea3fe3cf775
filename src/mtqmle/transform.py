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
from .exceptions import DegenerateWeights

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
    family : str
        Family label, e.g. "constant", "gaussian".
    params : dict
        Parameter values describing the member of the family.
    """

    def __init__(self, log_fn: Callable[[np.ndarray], np.ndarray],
                 family: str = "custom", params: Optional[dict] = None):
        self._log_fn = log_fn
        self.family = family
        self.params = dict(params or {})

    def __repr__(self):
        inner = ", ".join(f"{k}={v!r}" for k, v in self.params.items())
        return f"MTFunction({self.family}{', ' + inner if inner else ''})"

    def log_weights(self, data) -> np.ndarray:
        x = as_dataset(data)
        lw = np.asarray(self._log_fn(x), dtype=float)
        if lw.shape != (x.shape[0],):
            raise ValueError("log weight evaluator returned a wrong shape")
        if np.any(np.isnan(lw)) or np.any(lw == np.inf):
            raise ValueError("weight function produced NaN or +inf")
        return lw

    def weights(self, data) -> np.ndarray:
        """Raw (unnormalized) weights u(x_n)."""
        return np.exp(self.log_weights(data))

    @classmethod
    def from_callable(cls, fn: Callable[[np.ndarray], np.ndarray],
                      family: str = "custom", params: Optional[dict] = None
                      ) -> "MTFunction":
        """Wrap a plain (vectorized, nonnegative) weight evaluator."""

        def log_fn(x):
            u = np.asarray(fn(x), dtype=float)
            if np.any(u < 0):
                raise ValueError("weight function returned negative values")
            with np.errstate(divide="ignore"):
                return np.log(u)

        return cls(log_fn, family=family, params=params)


def constant_mt_function() -> MTFunction:
    """u(x) = 1, reproducing the unweighted sample moments."""
    return MTFunction(lambda x: np.zeros(x.shape[0]), family="constant")


def gaussian_mt_function(width: float, projector: Optional[np.ndarray] = None
                         ) -> MTFunction:
    """Zero-centered Gaussian weight u(x) = exp(-||P x||^2 / width^2).

    ``projector`` defaults to the identity; when given it must be Hermitian
    idempotent (an orthogonal projector) to 1e-10.
    """
    if not width > 0:
        raise ValueError("width must be positive")
    if projector is not None:
        proj = np.asarray(projector, dtype=complex)
        if not np.allclose(proj, proj.conj().T, atol=1e-10):
            raise ValueError("projector is not Hermitian")
        if not np.allclose(proj @ proj, proj, atol=1e-10):
            raise ValueError("projector is not idempotent")
    else:
        proj = None

    def log_fn(x):
        return gaussian_log_weights(squared_norms(x, proj), width)

    params = {"width": float(width), "projected": proj is not None}
    return MTFunction(log_fn, family="gaussian", params=params)


def squared_norms(x: np.ndarray, projector=None) -> np.ndarray:
    """||P x_n||^2 per row of a validated dataset (P = identity if None)."""
    y = x if projector is None else x @ projector.T
    return np.einsum("ni,ni->n", y, y.conj()).real


def gaussian_log_weights(sq_norms: np.ndarray, width: float) -> np.ndarray:
    """-||P x||^2 / width^2; many widths can share one ``squared_norms``."""
    if not width > 0:
        raise ValueError("width must be positive")
    return -sq_norms / float(width) ** 2


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
    top = np.max(lw, initial=-np.inf)
    if top == -np.inf:
        raise DegenerateWeights("MT-function annihilates sample")
    w = np.exp(lw - top)
    return w, w / w.sum()


def mt_weights(data, u: MTFunction) -> np.ndarray:
    """Normalized weights u(x_n) / sum_m u(x_m).

    Raises DegenerateWeights when every weight vanishes. Normalization is
    done in log space (max-shifted), so any common scale of u cancels exactly.
    """
    return _weights(u.log_weights(data))[1]


def empirical_mt_moments(data, u: MTFunction) -> EmpiricalMTMoments:
    """Reweighted mean and covariance with their normalized weights."""
    x = as_dataset(data)
    phi = _weights(u.log_weights(x))[1]
    mean, cov = _moments(x, phi)
    return EmpiricalMTMoments(weights=phi, mt_mean=mean, mt_cov=cov)


def _moments(x: np.ndarray, phi: np.ndarray) -> tuple:
    """Weighted mean and covariance of a validated dataset."""
    mean = phi @ x
    # sqrt-weighted rows keep huge rejected outliers (weight ~ 0) finite
    y = np.sqrt(phi)[:, None] * (x - mean)
    return mean, hermitize(y.T @ y.conj())


def check_mt_condition(data, u: MTFunction) -> MTDiagnostic:
    """Diagnose weight degeneracy; never raises.

    Reports the empirical mean of u, the fraction of numerically annihilated
    samples, and the effective sample size 1 / sum phi^2 (n for constant u,
    about 1 when a single sample dominates).
    """
    x = as_dataset(data)
    lw = u.log_weights(x)
    notes = []
    try:
        phi = _weights(lw)[1]
    except DegenerateWeights:
        notes.append("all weights are zero" if lw.size else "empty dataset")
        return MTDiagnostic(mean_weight=0.0, tiny_fraction=1.0, ess=0.0,
                            degenerate=True, warnings=notes)
    mean_weight = float(np.exp(lw).mean())
    tiny = float(np.mean(lw < np.log(_TINY_WEIGHT)))
    ess = float(1.0 / np.sum(phi ** 2))
    if ess < _ESS_WARN:
        notes.append(f"effective sample size {ess:.2f} < {_ESS_WARN:g}")
    return MTDiagnostic(mean_weight=mean_weight, tiny_fraction=tiny, ess=ess,
                        degenerate=False, warnings=notes)
