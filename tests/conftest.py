import functools

import numpy as np
import pytest
from scipy import integrate, special

from mtqmle import samplers
from mtqmle.asymptotics import _FD_STEP
from mtqmle.core import _logdet_cholesky, as_dataset, cholesky_pd, hermitize
from mtqmle.doa import ULAModel
from mtqmle.estimator import ParameterSpace
from mtqmle.regression import build_steering_regressors, unrealify
from mtqmle.samplers import NoiseSpec, _texture_nu2_draws, stream_rng
from mtqmle.transform import MTFunction

THETA0_REG = np.array([0.3, 0.5, 0.6, 0.8])
THETA0_DOA = np.deg2rad(30.0)


def random_pd(rng, p, scale=1.0):
    """Random Hermitian positive-definite matrix with eigenvalues in [0.2, ~2]."""
    z = rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p))
    q, _ = np.linalg.qr(z)
    eigs = scale * (0.2 + rng.random(p) * 1.8)
    return q @ np.diag(eigs) @ q.conj().T


def regression_box(bound, size):
    """[-bound, bound]^4 with size points per axis, a space to swap into the
    two-column regression moment model with dataclasses.replace."""
    return ParameterSpace(np.full(4, -bound), np.full(4, bound), size)


def random_dataset(rng, n, p, scale=1.0):
    return scale * (rng.standard_normal((n, p)) + 1j * rng.standard_normal((n, p)))


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


def mt_function_from_callable(fn) -> MTFunction:
    """Wrap a plain (vectorized, nonnegative) weight evaluator."""

    def log_fn(x):
        u = np.asarray(fn(x), dtype=float)
        if np.any(u < 0):
            raise ValueError("weight function returned negative values")
        with np.errstate(divide="ignore"):
            return np.log(u)

    return MTFunction(log_fn)


@functools.lru_cache(maxsize=None)
def oracle_are_tukey(c: float, p: int) -> float:
    """The ARE in its three-integral form (before the integration by parts
    baselines.are_tukey uses), by adaptive quadrature to a relative 1e-13
    with no absolute floor, so that integrals of 1e-70 keep their digits,
    against the chi density from scipy's special functions; memoised so that
    the bisections of several targets share their evaluations."""
    if not c > 0:
        raise ValueError("c must be positive")
    log_norm = np.log(2.0) - special.gammaln(p)

    def pdf(r):
        return np.exp(log_norm + special.xlogy(2 * p - 1, r) - r * r)

    def expect(fn):
        val, _ = integrate.quad(lambda r: fn(r) * pdf(r), 0.0, c,
                                epsabs=0.0, epsrel=1e-13, limit=200)
        return val

    t_lin = expect(lambda r: (1.0 - (r / c) ** 2) * r ** 2)
    t_sq = expect(lambda r: (1.0 - (r / c) ** 2) ** 2)
    denom = expect(lambda r: (1.0 - (r / c) ** 2) ** 4 * r ** 2) / p
    return (2.0 * t_lin / (c ** 2 * p) - t_sq) ** 2 / denom


def oracle_tune_c_for_are(target: float, p: int) -> float:
    """baselines.tune_c_for_are bisecting oracle_are_tukey."""
    if not 0.0 < target < 1.0:
        raise ValueError("target must lie in (0, 1)")
    lo, hi = 0.5, 1.0
    if oracle_are_tukey(lo, p) > target:
        raise ValueError(f"target {target} unreachable above c = 0.5")
    while oracle_are_tukey(hi, p) < target:
        hi *= 2.0
        if hi > 1e3:
            raise ValueError(f"target {target} unreachable below c = 1e3")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        val = oracle_are_tukey(mid, p)
        if abs(val - target) < 1e-4:
            return mid
        if val < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def masked_mean(vals):
    """Mean of all the values at once, non-finite ones read as 0."""
    vals = np.asarray(vals, dtype=float)
    return float(np.where(np.isfinite(vals), vals, 0.0).mean())


def whole_array_texture_mean(noise, fn):
    """E[fn(nu^2)] from one call of fn on all the cached texture draws, with
    non-finite values read as 0: the oracle for the blockwise
    samplers.texture_expectation."""
    return masked_mean(fn(_texture_nu2_draws(noise.kind, noise.lam)))


def out_of_place_texture(kind, lam, n, rng):
    """samplers.sample_texture written out of place, each step a new array:
    the oracle for the in-place version."""
    if kind == "gaussian":
        return np.ones(n)
    if kind == "t":
        g = rng.standard_gamma(lam / 2.0, n)
        g = np.maximum(g, 1e-300)
        return np.sqrt(lam / (2.0 * g))
    return np.sqrt(rng.gamma(lam, 1.0 / lam, n))


def out_of_place_complex_gaussian(p, sigma2, n, rng):
    """samplers.sample_complex_gaussian written out of place: the oracle for
    the version that builds one buffer."""
    scale = np.sqrt(sigma2 / 2.0)
    return scale * (rng.standard_normal((n, p)) + 1j * rng.standard_normal((n, p)))


def out_of_place_noise(spec, n, rng):
    """samplers.sample_noise written out of place."""
    z = out_of_place_complex_gaussian(spec.p, spec.sigma2, n, rng)
    nu = out_of_place_texture(spec.kind, spec.lam, n, rng)
    return nu[:, None] * z


def out_of_place_regression(a_matrix, alpha0, noise, n, rng):
    """samplers.synthesize_regression written out of place."""
    a_matrix = np.asarray(a_matrix, dtype=complex)
    alpha0 = np.asarray(alpha0, dtype=complex).ravel()
    return (a_matrix @ alpha0)[None, :] + out_of_place_noise(noise, n, rng)


def out_of_place_doa(p, theta0, sigma2_s, noise, n, rng):
    """samplers.synthesize_doa written out of place."""
    steer = np.exp(-1j * np.pi * np.arange(p) * np.sin(theta0))
    s = samplers.sample_bpsk(sigma2_s, n, rng)
    return s[:, None] * steer[None, :] + out_of_place_noise(noise, n, rng)


def out_of_place_nu2_draws(kind, lam):
    """The texture quadrature draws as nu ** 2 of the out-of-place texture."""
    rng = stream_rng(samplers._TEXTURE_SEED, 0)
    return out_of_place_texture(kind, lam, samplers._TEXTURE_DRAWS, rng) ** 2


def dense_score(x, theta, model):
    """The score with every derivative block contracted, zero or not: the
    oracle for asymptotics._score, which skips exactly-zero blocks."""
    d_mean = np.asarray(model.d_mean(theta))
    d_cov = np.asarray(model.d_cov(theta))
    l_inv = np.linalg.inv(cholesky_pd(model.mt_cov(theta)))
    s_inv = l_inv.conj().T @ l_inv
    e = x - model.mt_mean(theta)                      # (n, p)
    w = s_inv @ e.T
    b = s_inv @ d_mean.T
    a = s_inv @ d_cov
    psi = (-np.trace(a, axis1=1, axis2=2).real + 2.0 * np.real(e.conj() @ b)
           + np.einsum("kna,an->nk", w.T.conj() @ d_cov, w).real)
    return psi, (s_inv, d_mean, w, b, a, d_cov)


def dense_psi_gamma(x, theta, model, weights=None):
    """Score and Hessian (per sample, or summed with ``weights``) with every
    term computed, zero or not: the oracle for asymptotics._psi_gamma."""
    psi, (s_inv, d_mean, w, b, a, d_cov) = dense_score(x, theta, model)
    m = theta.size
    if model.has_second_derivatives:
        d2_mean = np.asarray(model.d2_mean(theta))    # (m, m, p)
        d2_cov = np.asarray(model.d2_cov(theta))      # (m, m, p, p)
        if weights is None:
            s0, s1 = np.ones(x.shape[0]), w.T
            s2 = s1[:, :, None] * s1.conj()[:, None, :]
        else:
            s0, s1 = np.sum(weights), w @ weights
            s2 = (w * weights) @ w.T.conj()
        const = (-2.0 * (d_mean.conj() @ b).real.T
                 + np.einsum("jab,kba->kj", a, a).real
                 - np.trace(s_inv @ d2_cov, axis1=2, axis2=3).real)
        out = (np.multiply.outer(s0, const)
               + 2.0 * np.einsum("...a,kja->...kj", s1.conj(), d2_mean).real
               + np.einsum("kjab,...ba->...kj", d2_cov, s2).real)
        # X_kj = 2 Re{w^H dS_j b_k} + w^H dS_j A_k w enters as -(X_kj + X_jk)
        cross = (2.0 * np.einsum("...a,jak->...kj", s1.conj(), d_cov @ b).real
                 + np.einsum("jkab,...ba->...kj", d_cov[:, None] @ a, s2).real)
        out = out - cross - np.swapaxes(cross, -1, -2)
    else:
        out = np.empty((x.shape[0], m, m))
        for j in range(m):
            step = _FD_STEP * (1.0 + abs(theta[j]))
            hi = theta.copy()
            lo = theta.copy()
            hi[j] += step
            lo[j] -= step
            out[:, :, j] = (dense_score(x, hi, model)[0]
                            - dense_score(x, lo, model)[0]) / (2.0 * step)
        if weights is not None:
            out = np.einsum("n,nkj->kj", weights, out)
    return psi, 0.5 * (out + np.swapaxes(out, -1, -2))


def finite_diff_moment_derivatives(model, theta, k: int, step: float):
    """Central differences of mt_mean and mt_cov in coordinate k."""
    if not step > 0:
        raise ValueError("step must be positive")
    theta = np.asarray(theta, dtype=float).ravel()
    lo = theta.copy()
    hi = theta.copy()
    hi[k] += step
    lo[k] -= step
    space = model.space
    for point in (hi, lo):
        if not (np.all(point >= space.lower - 1e-12)
                and np.all(point <= space.upper + 1e-12)):
            raise ValueError("finite-difference stencil leaves the parameter space")
    d_mean = (model.mt_mean(hi) - model.mt_mean(lo)) / (2.0 * step)
    d_cov = (model.mt_cov(hi) - model.mt_cov(lo)) / (2.0 * step)
    return d_mean, d_cov


def by(rows, estimator: str) -> list:
    """The rows of run_experiment that belong to one estimator."""
    return [r for r in rows if r.estimator == estimator]


def read_csv(path) -> list:
    """Parse a file written by emit_csv back into dictionaries."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    header = lines[0].split(",")
    out = []
    for ln in lines[1:]:
        cells = ln.split(",")
        rec = {}
        for key, cell in zip(header, cells):
            if key == "estimator":
                rec[key] = cell
            elif key in ("failures", "trials"):
                rec[key] = int(cell)
            else:
                rec[key] = float(cell)
        out.append(rec)
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def reg_gaussian():
    """Two steering-vector regressors in dimension 10, Gaussian noise at
    SNR 0 dB (sigma2 = 1)."""
    noise = NoiseSpec("gaussian", 1.0, 10)
    return build_steering_regressors(10, np.pi / 3, np.pi / 6, noise)


@pytest.fixture
def reg_t():
    """Same regressors with t noise (lam = 0.2) at SNR -10 dB."""
    noise = NoiseSpec("t", 10.0, 10, lam=0.2)
    return build_steering_regressors(10, np.pi / 3, np.pi / 6, noise)


@pytest.fixture
def alpha0():
    return unrealify(THETA0_REG)


@pytest.fixture
def ula_gaussian():
    """4-element ULA, Gaussian noise at SNR -5 dB, unit-power source."""
    return ULAModel(4, 1.0, NoiseSpec("gaussian", 10 ** 0.5, 4))


@pytest.fixture
def ula_k():
    """4-element ULA, K noise (lam = 0.75) at SNR -15 dB."""
    return ULAModel(4, 1.0, NoiseSpec("k", 10 ** 1.5, 4, lam=0.75))
