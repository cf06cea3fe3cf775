"""Complex-vector sample moments and the matrix primitives of the fit objective.

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


def sample_mean(data) -> np.ndarray:
    """Standard sample mean vector, (1/n) sum_i x_i."""
    x = as_dataset(data)
    if x.shape[0] == 0:
        raise ValueError("empty dataset")
    return x.mean(axis=0)


def sample_covariance(data) -> np.ndarray:
    """Biased sample covariance (1/n) sum_i (x_i - mean)(x_i - mean)^H."""
    x = as_dataset(data)
    n = x.shape[0]
    if n == 0:
        raise ValueError("empty dataset")
    xc = x - x.mean(axis=0)
    return hermitize(xc.T @ xc.conj() / n)


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


def log_det_divergence(a: np.ndarray, b: np.ndarray) -> float:
    """Log-determinant divergence tr[AB^-1] - log det[AB^-1] - p.

    Nonnegative for positive-definite A, B of equal size, zero iff A = B.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("A and B must be square matrices of equal size")
    chol_b = cholesky_pd(b)
    b_inv_a = np.linalg.solve(chol_b.conj().T, np.linalg.solve(chol_b, a))
    trace_term = float(np.trace(b_inv_a).real)
    logdet_ratio = _logdet_cholesky(cholesky_pd(a)) - _logdet_cholesky(chol_b)
    return trace_term - logdet_ratio - a.shape[0]


def weighted_norm_sq(a: np.ndarray, c: np.ndarray) -> float:
    """Squared weighted norm a^H C a for positive-definite weighting C."""
    a = np.asarray(a, dtype=complex).ravel()
    c = np.asarray(c, dtype=complex)
    if c.shape != (a.size, a.size):
        raise ValueError(
            f"dimension mismatch: vector of length {a.size}, matrix {c.shape}"
        )
    return float((a.conj() @ c @ a).real)


def inv_quad_form(d: np.ndarray, sigma: np.ndarray) -> float:
    """d^H Sigma^-1 d for positive-definite Sigma, via one triangular solve."""
    chol = cholesky_pd(sigma)
    y = np.linalg.solve(chol, np.asarray(d, dtype=complex).ravel())
    return float(np.real(y.conj() @ y))
