"""Reproducible generators for the simulation data models.

All randomness flows through counter-based Philox streams keyed by
(seed, stream id), so parallel Monte Carlo trials reproduce bit-identically
regardless of scheduling.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

_NOISE_KINDS = ("gaussian", "t", "k")

# Fixed seed for the deterministic texture-expectation quadrature draws.
_TEXTURE_SEED = 20_170_814
_TEXTURE_DRAWS = 10 ** 6


def stream_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Independent generator for (seed, stream); same pair, same sequence."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([int(seed), int(stream)])))


@dataclass(frozen=True)
class NoiseSpec:
    """Spherically contoured noise: texture * isotropic complex Gaussian.

    kind: 'gaussian' (texture 1), 't' (lam degrees of freedom) or 'k'
    (Gamma texture with shape lam, unit mean). sigma2 is the dispersion of
    the Gaussian factor, p the dimension.
    """

    kind: str
    sigma2: float
    p: int
    lam: Optional[float] = None

    def __post_init__(self):
        if self.kind not in _NOISE_KINDS:
            raise ValueError(f"unsupported noise kind {self.kind!r}")
        if not self.sigma2 > 0:
            raise ValueError("sigma2 must be positive")
        if self.kind in ("t", "k") and not (self.lam is not None and self.lam > 0):
            raise ValueError(f"{self.kind}-noise requires lam > 0")
        if self.p < 1:
            raise ValueError("p must be at least 1")


def sample_complex_gaussian(p: int, sigma2: float, n: int,
                            rng: np.random.Generator) -> np.ndarray:
    """n i.i.d. circular complex Gaussian p-vectors with covariance sigma2*I."""
    if not sigma2 > 0:
        raise ValueError("sigma2 must be positive")
    scale = np.sqrt(sigma2 / 2.0)
    return scale * (rng.standard_normal((n, p)) + 1j * rng.standard_normal((n, p)))


def sample_texture(kind: str, lam: Optional[float], n: int,
                   rng: np.random.Generator) -> np.ndarray:
    """Positive texture values nu, one per snapshot.

    't'      : nu^2 = lam / (2 G), G ~ Gamma(lam/2, 1), so that the compound
               noise is complex multivariate-t with lam degrees of freedom.
    'k'      : nu^2 ~ Gamma(lam, 1/lam), unit mean.
    'gaussian': nu = 1.
    """
    if kind == "gaussian":
        return np.ones(n)
    if kind == "t":
        g = rng.standard_gamma(lam / 2.0, n)
        g = np.maximum(g, 1e-300)  # guard subnormal underflow of the mixer
        return np.sqrt(lam / (2.0 * g))
    if kind == "k":
        return np.sqrt(rng.gamma(lam, 1.0 / lam, n))
    raise ValueError(f"unsupported noise kind {kind!r}")


def sample_noise(spec: NoiseSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    """n draws of W = nu * Z under the given spec."""
    z = sample_complex_gaussian(spec.p, spec.sigma2, n, rng)
    nu = sample_texture(spec.kind, spec.lam, n, rng)
    return nu[:, None] * z


def sample_bpsk(sigma2_s: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """Equiprobable +/- sqrt(sigma2_s) symbols (real-valued)."""
    if not sigma2_s > 0:
        raise ValueError("sigma2_s must be positive")
    return (rng.integers(0, 2, n) * 2.0 - 1.0) * np.sqrt(sigma2_s)


def synthesize_regression(a_matrix: np.ndarray, alpha0: np.ndarray,
                          noise: NoiseSpec, n: int,
                          rng: np.random.Generator) -> np.ndarray:
    """X_n = A alpha0 + W_n."""
    a_matrix = np.asarray(a_matrix, dtype=complex)
    alpha0 = np.asarray(alpha0, dtype=complex).ravel()
    if a_matrix.shape[1] != alpha0.size:
        raise ValueError("regressor matrix and coefficient dimensions differ")
    if noise.p != a_matrix.shape[0]:
        raise ValueError("noise dimension differs from observation dimension")
    return (a_matrix @ alpha0)[None, :] + sample_noise(noise, n, rng)


def synthesize_doa(p: int, theta0: float, sigma2_s: float, noise: NoiseSpec,
                   n: int, rng: np.random.Generator) -> np.ndarray:
    """X_n = S_n a(theta0) + W_n on a half-wavelength ULA, BPSK source."""
    if noise.p != p:
        raise ValueError("noise dimension differs from sensor count")
    steer = np.exp(-1j * np.pi * np.arange(p) * np.sin(theta0))
    s = sample_bpsk(sigma2_s, n, rng)
    return s[:, None] * steer[None, :] + sample_noise(noise, n, rng)


def regression_snr(a_matrix: np.ndarray, sigma2_z: float) -> float:
    """SNR = tr[A^H A] / sigma2_z (linear scale)."""
    a_matrix = np.asarray(a_matrix, dtype=complex)
    return float(np.trace(a_matrix.conj().T @ a_matrix).real) / sigma2_z


def regression_sigma2_for_snr_db(a_matrix: np.ndarray, snr_db: float) -> float:
    return regression_snr(a_matrix, 1.0) / 10.0 ** (snr_db / 10.0)


def doa_sigma2_for_snr_db(sigma2_s: float, snr_db: float) -> float:
    return sigma2_s / 10.0 ** (snr_db / 10.0)


@functools.lru_cache(maxsize=16)
def _texture_nu2_draws(kind: str, lam: Optional[float]) -> np.ndarray:
    rng = stream_rng(_TEXTURE_SEED, 0)
    nu = sample_texture(kind, lam, _TEXTURE_DRAWS, rng)
    return nu ** 2


def texture_expectation(noise: NoiseSpec, fn) -> float:
    """E[fn(nu^2)] under the texture law of ``noise``.

    Deterministic: Gaussian textures evaluate exactly at nu^2 = 1; heavy
    textures use a fixed-seed 10^6-draw Monte Carlo average shared across
    calls (common random numbers across e.g. an omega sweep). Integrands
    are nonnegative: a zero (underflowed) or infinite average raises.
    """
    nu2 = (np.asarray([1.0]) if noise.kind == "gaussian"
           else _texture_nu2_draws(noise.kind, noise.lam))
    vals = np.asarray(fn(nu2), dtype=float)
    vals = np.where(np.isfinite(vals), vals, 0.0)  # 0 * huge tail guard
    out = float(vals.mean())
    if not (np.isfinite(out) and out != 0.0):
        raise ValueError(f"texture expectation is {out!r}: underflowed or "
                         "not integrable")
    return out


# --- dataset serialization ---------------------------------------------------
#
# CSV layout: one observation per row, real and imaginary parts interleaved,
# header "re_0,im_0,...,re_{p-1},im_{p-1}". 17 significant digits round-trip
# float64 exactly.

def save_dataset(data: np.ndarray, path) -> None:
    x = np.asarray(data, dtype=complex)
    if x.ndim != 2:
        raise ValueError("dataset must be 2-D")
    p = x.shape[1]
    flat = np.empty((x.shape[0], 2 * p))
    flat[:, 0::2] = x.real
    flat[:, 1::2] = x.imag
    header = ",".join(f"re_{k},im_{k}" for k in range(p))
    np.savetxt(path, flat, delimiter=",", header=header, comments="",
               fmt="%.17g")


def load_dataset(path) -> np.ndarray:
    flat = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if flat.shape[1] % 2 != 0:
        raise ValueError("malformed dataset file: odd column count")
    return flat[:, 0::2] + 1j * flat[:, 1::2]
