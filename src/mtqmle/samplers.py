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

from .exceptions import MTQMLEError

_NOISE_KINDS = ("gaussian", "t", "k")

# Fixed seed for the deterministic texture-expectation quadrature draws.
_TEXTURE_SEED = 20_170_814
_TEXTURE_DRAWS = 10 ** 6
_TEXTURE_CHUNK = 2 ** 13  # draws per integrand call: 64 KiB temporaries, below malloc's mmap threshold


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
    z = np.empty((n, p), dtype=complex)
    z.real = rng.standard_normal((n, p))
    z.imag = rng.standard_normal((n, p))
    z *= np.sqrt(sigma2 / 2.0)
    return z


def sample_texture(kind: str, lam: Optional[float], n: int,
                   rng: np.random.Generator) -> np.ndarray:
    """Positive texture values nu, one per snapshot, computed in place in the
    generator's output array (n draws hold n floats).

    't'      : nu^2 = lam / (2 G), G ~ Gamma(lam/2, 1), so that the compound
               noise is complex multivariate-t with lam degrees of freedom.
    'k'      : nu^2 ~ Gamma(lam, 1/lam), unit mean.
    'gaussian': nu = 1.
    """
    if kind == "gaussian":
        return np.ones(n)
    if kind == "t":
        g = rng.standard_gamma(lam / 2.0, n)
        np.maximum(g, 1e-300, out=g)  # guard subnormal underflow of the mixer
        np.divide(lam, np.multiply(2.0, g, out=g), out=g)
    elif kind == "k":
        g = rng.gamma(lam, 1.0 / lam, n)
    else:
        raise ValueError(f"unsupported noise kind {kind!r}")
    return np.sqrt(g, out=g)


def sample_noise(spec: NoiseSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    """n draws of W = nu * Z under the given spec, Z drawn before nu."""
    z = sample_complex_gaussian(spec.p, spec.sigma2, n, rng)
    z *= sample_texture(spec.kind, spec.lam, n, rng)[:, None]
    return z


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
    x = sample_noise(noise, n, rng)
    x += a_matrix @ alpha0
    return x


def synthesize_doa(p: int, theta0: float, sigma2_s: float, noise: NoiseSpec,
                   n: int, rng: np.random.Generator) -> np.ndarray:
    """X_n = S_n a(theta0) + W_n on a half-wavelength ULA, BPSK S_n drawn first."""
    if noise.p != p:
        raise ValueError("noise dimension differs from sensor count")
    steer = np.exp(-1j * np.pi * np.arange(p) * np.sin(theta0))
    s = sample_bpsk(sigma2_s, n, rng)
    x = sample_noise(noise, n, rng)
    x += s[:, None] * steer
    return x


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
    nu2 = sample_texture(kind, lam, _TEXTURE_DRAWS, stream_rng(_TEXTURE_SEED, 0))
    np.square(nu2, out=nu2)  # square the sampled nu: skipping the sqrt changes bits
    nu2.flags.writeable = False  # shared by every closed form
    return nu2


def texture_expectation(noise: NoiseSpec, fn) -> float:
    """E[fn(nu^2)] under the texture law of ``noise``.

    Deterministic: Gaussian textures evaluate exactly at nu^2 = 1; heavy
    textures use a fixed-seed 10^6-draw Monte Carlo average shared across
    calls (common random numbers across e.g. an omega sweep). ``fn`` must be
    element-wise: it is called on consecutive blocks of at most 2^13 draws,
    split where numpy's pairwise sum splits the whole array, so the mean is
    bit for bit that of one whole-array call. Non-finite values (0 * huge
    tail) count as 0. Integrands are nonnegative: a zero (underflowed) or
    infinite average raises.
    """
    nu2 = (np.asarray([1.0]) if noise.kind == "gaussian"
           else _texture_nu2_draws(noise.kind, noise.lam))

    def block_sum(lo: int, hi: int) -> float:
        if hi - lo > _TEXTURE_CHUNK:
            mid = lo + (hi - lo) // 2 - (hi - lo) // 2 % 8
            return block_sum(lo, mid) + block_sum(mid, hi)
        vals = np.broadcast_to(np.asarray(fn(nu2[lo:hi]), dtype=float), hi - lo)
        return np.add.reduce(np.where(np.isfinite(vals), vals, 0.0))

    out = float(block_sum(0, nu2.size) / nu2.size)
    if not (np.isfinite(out) and out != 0.0):
        raise MTQMLEError(f"texture expectation is {out!r}: underflowed or "
                          "not integrable")
    return out


def _over_square(num: float, den: float) -> float:
    """num / den ** 2; MTQMLEError where the square underflows to 0."""
    den2 = den ** 2
    if den2 == 0.0:
        raise MTQMLEError("squared texture expectation underflows")
    return num / den2


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
