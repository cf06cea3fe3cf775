import numpy as np
import pytest

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
