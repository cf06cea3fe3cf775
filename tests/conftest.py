import numpy as np
import pytest

from mtqmle.asymptotics import _FD_STEP
from mtqmle.core import cholesky_pd
from mtqmle.doa import ULAModel
from mtqmle.regression import build_steering_regressors, unrealify
from mtqmle.samplers import NoiseSpec, _texture_nu2_draws

THETA0_REG = np.array([0.3, 0.5, 0.6, 0.8])
THETA0_DOA = np.deg2rad(30.0)


def random_pd(rng, p, scale=1.0):
    """Random Hermitian positive-definite matrix with eigenvalues in [0.2, ~2]."""
    z = rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p))
    q, _ = np.linalg.qr(z)
    eigs = scale * (0.2 + rng.random(p) * 1.8)
    return q @ np.diag(eigs) @ q.conj().T


def random_dataset(rng, n, p, scale=1.0):
    return scale * (rng.standard_normal((n, p)) + 1j * rng.standard_normal((n, p)))


def whole_array_texture_mean(noise, fn):
    """E[fn(nu^2)] from one call of fn on all the cached texture draws, with
    non-finite values read as 0: the oracle for the chunked
    samplers.texture_expectation."""
    vals = np.asarray(fn(_texture_nu2_draws(noise.kind, noise.lam)), dtype=float)
    return float(np.where(np.isfinite(vals), vals, 0.0).mean())


def dense_score(x, theta, model):
    """The score with every derivative block contracted, zero or not: the
    oracle for asymptotics._score, which skips exactly-zero blocks."""
    d_mean = np.asarray(model.d_mean(theta))
    d_cov = np.asarray(model.d_cov(theta))
    chol = cholesky_pd(model.mt_cov(theta))

    def solve(rhs):
        return np.linalg.solve(chol.conj().T, np.linalg.solve(chol, rhs))

    e = x - model.mt_mean(theta)                      # (n, p)
    w = solve(e.T)
    b = solve(d_mean.T)
    a = solve(d_cov)
    w_ds = w.T.conj() @ d_cov
    psi = (-np.trace(a, axis1=1, axis2=2).real + 2.0 * np.real(e.conj() @ b)
           + np.einsum("kna,an->nk", w_ds, w).real)
    return psi, (solve, d_mean, w, b, a, w_ds)


def dense_psi_gamma(x, theta, model):
    """Score and Hessian with every term computed, zero or not: the oracle
    for asymptotics._psi_gamma."""
    psi, (solve, d_mean, w, b, a, w_ds) = dense_score(x, theta, model)
    m = theta.size
    if model.has_second_derivatives:
        d2_mean = np.asarray(model.d2_mean(theta))    # (m, m, p)
        d2_cov = np.asarray(model.d2_cov(theta))      # (m, m, p, p)
        wc = w.T.conj()
        out = (np.einsum("jab,kba->kj", a, a).real
               - np.trace(solve(d2_cov), axis1=2, axis2=3).real
               - 2.0 * (d_mean.conj() @ b).real.T
               + 2.0 * np.einsum("na,kja->nkj", wc, d2_mean).real
               + np.stack([np.einsum("jna,an->nj", wc @ d2_cov[k], w)
                           for k in range(m)], axis=1).real)
        # X_kj = 2 Re{w^H dS_j b_k} + w^H dS_j A_k w enters as -(X_kj + X_jk)
        cross = (2.0 * (w_ds @ b).real.transpose(1, 2, 0)
                 + np.einsum("jna,kan->nkj", w_ds, a @ w).real)
        out = out - cross - np.swapaxes(cross, 1, 2)
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
    return psi, 0.5 * (out + np.swapaxes(out, 1, 2))


def finite_diff_moment_derivatives(model, theta, k: int, step: float):
    """Central differences of mt_mean and mt_cov in coordinate k."""
    if not step > 0:
        raise ValueError("step must be positive")
    theta = np.asarray(theta, dtype=float).ravel()
    lo = theta.copy()
    hi = theta.copy()
    hi[k] += step
    lo[k] -= step
    for point in (hi, lo):
        if not model.space.contains(point):
            raise ValueError("finite-difference stencil leaves the parameter space")
    d_mean = (model.mt_mean(hi) - model.mt_mean(lo)) / (2.0 * step)
    d_cov = (model.mt_cov(hi) - model.mt_cov(lo)) / (2.0 * step)
    return d_mean, d_cov


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
