"""Dataset coercion and the matrix primitives of the fit objective.

Datasets are complex arrays of shape (n, p), one observation per row. All
functions are pure and safe to call concurrently.
"""

from __future__ import annotations

import numpy as np

from .exceptions import NotPositiveDefinite

# Relative jitter added once when a Cholesky factorization fails; weighted
# covariances can be nearly singular for small effective sample sizes.
_CHOLESKY_JITTER = 1e-10


def as_dataset(data) -> np.ndarray:
    """Coerce ``data`` to a complex (n, p) array.

    A 1-D input is read as n scalar (p = 1) observations. Non-finite entries
    are rejected.
    """
    x = np.asarray(data, dtype=complex)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2:
        raise ValueError(f"dataset must be 1-D or 2-D, got ndim={x.ndim}")
    if not np.all(np.isfinite(x)):
        raise ValueError("dataset contains non-finite entries")
    return x


def hermitize(a: np.ndarray) -> np.ndarray:
    """(A + A^H)/2, killing round-off drift after accumulation."""
    return (a + a.conj().T) / 2.0


def cholesky_pd(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor with one jittered retry.

    Raises NotPositiveDefinite when the factorization still fails after
    adding ``1e-10 * trace/p`` to the diagonal.
    """
    a = np.asarray(a)
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        pass
    p = a.shape[0]
    jitter = _CHOLESKY_JITTER * float(np.trace(a).real) / max(p, 1)
    try:
        return np.linalg.cholesky(a + jitter * np.eye(p))
    except np.linalg.LinAlgError:
        raise NotPositiveDefinite("matrix not positive definite") from None


def _logdet_cholesky(chol: np.ndarray):
    """log det A from the lower Cholesky factor of A, or of each A in a stack."""
    return 2.0 * np.sum(np.log(np.abs(chol.diagonal(0, -2, -1))), axis=-1)
