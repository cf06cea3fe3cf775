"""Properties that hold exactly for the reweighted estimators.

Rescaling by a power of two is exact in floating point, so the (x, omega)
scaling laws are asserted bit for bit. Permutations and shifts reorder or
perturb sums, so those are asserted to rtol 1e-12.
"""

import numpy as np
import pytest

from mtqmle.doa import ULAModel, mt_fitter_doa
from mtqmle.regression import (build_steering_regressors, mt_fitter_regression,
                               realify)
from mtqmle.samplers import (NoiseSpec, doa_sigma2_for_snr_db, stream_rng,
                             synthesize_doa, synthesize_regression)
from mtqmle.transform import (constant_mt_function, empirical_mt_moments,
                              gaussian_mt_function)

SEEDS = [0, 1, 2]
OMEGAS = [1.5, 4.0, 7.3]
K_THETA = 2001
RTOL = 1e-12

REG = build_steering_regressors(10, np.pi / 3, np.pi / 6,
                                NoiseSpec("t", 10.0, 10, lam=0.2))
ULA = ULAModel(4, 1.0, NoiseSpec("k", doa_sigma2_for_snr_db(1.0, -5.0), 4,
                                 lam=0.75))


def regression_data(seed):
    alpha0 = np.array([0.3 + 0.6j, 0.5 + 0.8j])
    return synthesize_regression(REG.a_matrix, alpha0, REG.noise, 300,
                                 stream_rng(seed, 0))


def doa_data(seed):
    return synthesize_doa(4, np.deg2rad(30.0), 1.0, ULA.noise, 300,
                          stream_rng(seed, 1))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("c", [2.0 ** -20, 0.25, 8.0, 2.0 ** 30, 2.0 ** 255,
                               2.0 ** 300])
def test_power_of_two_rescaling(seed, c):
    """(x, omega) -> (c x, c omega): alpha_hat -> c alpha_hat and its MSE
    -> c^2 MSE; the DOA theta_hat and its MSE do not move."""
    x, xd = regression_data(seed), doa_data(seed)
    fit, fit_c = mt_fitter_regression(x, REG), mt_fitter_regression(c * x, REG)
    fit_d, fit_dc = mt_fitter_doa(xd, ULA, K_THETA), mt_fitter_doa(c * xd, ULA,
                                                                   K_THETA)
    for omega in OMEGAS:
        theta, mse = fit(omega)[:2]
        theta_c, mse_c = fit_c(c * omega)[:2]
        np.testing.assert_array_equal(theta_c, c * theta)
        np.testing.assert_array_equal(mse_c, c * c * mse)
        assert fit_dc(c * omega)[:2] == fit_d(omega)[:2]


@pytest.mark.parametrize("seed", SEEDS)
def test_sample_order_is_irrelevant(seed):
    x, xd = regression_data(seed), doa_data(seed)
    perm = np.random.default_rng(seed).permutation(x.shape[0])
    for u in (constant_mt_function(), gaussian_mt_function(3.0)):
        m, m_perm = empirical_mt_moments(x, u), empirical_mt_moments(x[perm], u)
        np.testing.assert_allclose(m_perm.weights, m.weights[perm], rtol=RTOL)
        np.testing.assert_allclose(m_perm.mt_mean, m.mt_mean, rtol=RTOL)
        np.testing.assert_allclose(m_perm.mt_cov, m.mt_cov, rtol=RTOL)
    fits = [(mt_fitter_regression(x, REG), mt_fitter_regression(x[perm], REG)),
            (mt_fitter_doa(xd, ULA, K_THETA),
             mt_fitter_doa(xd[perm], ULA, K_THETA))]
    for fit, fit_perm in fits:
        for omega in OMEGAS:
            for got, want in zip(fit_perm(omega)[:2], fit(omega)[:2]):
                np.testing.assert_allclose(got, want, rtol=RTOL)


@pytest.mark.parametrize("seed", SEEDS)
def test_shift_along_regressor_range(seed):
    """x -> x + A beta gives alpha_hat -> alpha_hat + beta; the projected
    weight does not see the shift, so the MSE stays put."""
    x = regression_data(seed)
    beta = np.array([1.0 - 2.0j, -0.5 + 0.25j])
    fit = mt_fitter_regression(x, REG)
    fit_shift = mt_fitter_regression(x + REG.a_matrix @ beta, REG)
    for omega in OMEGAS:
        theta, mse = fit(omega)[:2]
        theta_s, mse_s = fit_shift(omega)[:2]
        np.testing.assert_allclose(theta_s - realify(beta), theta, rtol=RTOL)
        np.testing.assert_allclose(mse_s, mse, rtol=RTOL)


@pytest.mark.parametrize("seed", SEEDS)
def test_unitary_map_of_gaussian_weight_moments(seed):
    """x -> U x for unitary U leaves every norm, hence every Gaussian weight,
    unchanged, so the moments map to (U m_hat, U S_hat U^H)."""
    rng = np.random.default_rng(seed)
    for x in (regression_data(seed), doa_data(seed)):
        p = x.shape[1]
        q, r = np.linalg.qr(rng.standard_normal((p, p))
                            + 1j * rng.standard_normal((p, p)))
        unitary = q * (np.diag(r) / np.abs(np.diag(r)))
        for omega in OMEGAS:
            u = gaussian_mt_function(omega)
            m = empirical_mt_moments(x, u)
            m_rot = empirical_mt_moments(x @ unitary.T, u)
            np.testing.assert_allclose(m_rot.weights, m.weights, rtol=RTOL)
            np.testing.assert_allclose(m_rot.mt_mean, unitary @ m.mt_mean,
                                       rtol=RTOL)
            np.testing.assert_allclose(
                m_rot.mt_cov, unitary @ m.mt_cov @ unitary.conj().T, rtol=RTOL)
