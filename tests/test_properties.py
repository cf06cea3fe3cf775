"""Properties that hold exactly for the reweighted estimators.

Rescaling by a power of two is exact in floating point, so the (x, omega)
scaling laws are asserted bit for bit. Permutations, shifts and rescaling u
reorder or perturb sums, so those are asserted to rtol 1e-12.
"""

import dataclasses

import numpy as np
import pytest

from mtqmle import asymptotics, transform
from mtqmle.asymptotics import (influence, sandwich, score_identity_check,
                                select_by_trace, select_mt_parameter)
from mtqmle.baselines import mad_scale, median_location
from mtqmle.doa import (ULAModel, bartlett_doa, doa_moment_model, estimate_doa,
                        mt_fitter_doa)
from mtqmle.estimator import estimate_mt_gqmle
from mtqmle.exceptions import MTQMLEError
from mtqmle.regression import (build_steering_regressors,
                               empirical_asymptotic_mse_regression,
                               gqmle_regression, influence_regression,
                               mt_fitter_regression, mt_gqmle_regression,
                               projected_mt_function, realify,
                               regression_moment_model)
from mtqmle.samplers import (NoiseSpec, doa_sigma2_for_snr_db, stream_rng,
                             synthesize_doa, synthesize_regression)
from mtqmle.transform import (MTFunction, check_mt_condition,
                              constant_mt_function, empirical_mt_moments,
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
    -> c^2 MSE; the DOA theta_hat and its MSE do not move, nor do the
    public scans' angles."""
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
        assert doa_scans(c * xd, c * omega) == doa_scans(xd, omega)
    assert bartlett_doa(c * xd, ULA, K_THETA) == bartlett_doa(xd, ULA, K_THETA)


def doa_scans(xd, omega) -> tuple:
    """The Gaussian-weighted scans' angles: estimate_doa and theta_ref."""
    return (estimate_doa(xd, ULA, omega, K_THETA),
            doa_moment_model(ULA, xd, omega, K_THETA).info["theta_ref"])


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


GRID = np.linspace(1.0, 30.0, 30)


def doa_model(data, u):
    return doa_moment_model(ULA, data, u.params["width"], k_theta=721,
                            use_solver=False)


def doa_model_without_d2(data, u):
    """The DOA moment model with no second derivatives: its Hessians are
    central differences of the score."""
    return dataclasses.replace(doa_model(data, u), d2_mean=None, d2_cov=None)


# (family, widths, moment model) of select_mt_parameter on each application.
GENERIC = {
    "regression": (lambda om: projected_mt_function(REG, om), GRID,
                   lambda data, u: regression_moment_model(REG, data, u)),
    "doa": (gaussian_mt_function, (1.0, 3.0, 10.0), doa_model),
}
# Each width path as a selection on the regression and DOA datasets.
WIDTH_PATHS = {
    "regression fitter":
        lambda x, xd: select_by_trace(GRID, mt_fitter_regression(x, REG)),
    "doa fitter":
        lambda x, xd: select_by_trace(GRID, mt_fitter_doa(xd, ULA, K_THETA)),
    "generic regression":
        lambda x, xd: select_mt_parameter(x, *GENERIC["regression"]),
    "generic doa": lambda x, xd: select_mt_parameter(xd, *GENERIC["doa"]),
    "generic doa, finite-difference Hessian": lambda x, xd:
        select_mt_parameter(xd, *GENERIC["doa"][:2], doa_model_without_d2),
}
OUTLIER_SIZES = [1e155, 1e200, 1.7e308]


def outlier_data(seed, magnitude):
    """Both datasets with row 0 replaced by entries +-magnitude
    +-magnitude i (quarter turns)."""
    x, xd = regression_data(seed), doa_data(seed)
    for data in (x, xd):
        data[0] = magnitude * np.resize([1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j],
                                        data.shape[1])
    return x, xd


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("path", list(WIDTH_PATHS))
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("size", OUTLIER_SIZES)
def test_one_gross_outlier_leaves_the_selection(path, seed, size):
    """Row 0 replaced by entries +-size +-size i: its weight is 0 at every
    width, as at 1e80, so the selected width, the estimate and every
    candidate's trace are those of the 1e80 row, bit for bit, also where
    its norm or its statistics overflow."""
    got, want = (WIDTH_PATHS[path](*outlier_data(seed, magnitude))
                 for magnitude in (size, 1e80))
    assert got.omega_opt == want.omega_opt
    assert np.array_equal(got.traces, want.traces)
    best = [getattr(sel.best_estimate, "theta", sel.best_estimate)
            for sel in (got, want)]             # EstimationResult or array
    assert np.array_equal(*best)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("size", OUTLIER_SIZES)
def test_one_gross_outlier_leaves_the_scans(seed, size):
    """The Gaussian-weighted scans give the 1e80 row's angles bit for bit.
    Bartlett weighs the row fully: it gives the 1e80 row's angle or raises
    a typed error, never a NaN spectrum's first angle."""
    xd, ref = (outlier_data(seed, magnitude)[1] for magnitude in (size, 1e80))
    for omega in OMEGAS:
        assert doa_scans(xd, omega) == doa_scans(ref, omega)
    want = bartlett_doa(ref, ULA, K_THETA)
    try:
        assert bartlett_doa(xd, ULA, K_THETA) == want
    except MTQMLEError:
        pass


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("kind, omega", [("regression", 4.0), ("doa", 3.0)])
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("size", OUTLIER_SIZES)
def test_one_gross_outlier_leaves_the_score_identity(kind, omega, seed, size):
    """score_identity_check weighs as the sandwich does, so the outlier's
    score, which may overflow, adds exactly 0 and the residual at the
    estimate is that of the 1e80 row."""
    family, _, model = GENERIC[kind]

    def residual(magnitude):
        x, xd = outlier_data(seed, magnitude)
        data = x if kind == "regression" else xd
        u = family(omega)
        mm = model(data, u)
        return score_identity_check(data, estimate_mt_gqmle(data, u, mm).theta,
                                    mm, u)

    want = residual(1e80)
    assert np.isfinite(want)
    assert residual(size) == want


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("kind, omega", [("regression", 4.0), ("doa", 3.0)])
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("size", [None, 1e155, 1.7e308])
def test_score_identity_reads_the_score_alone(kind, omega, seed, size):
    """score_identity_check equals the norm of the weighted score that the
    sandwich forms next to its Hessian, with or without a gross outlier,
    and reads no second derivative of the model."""
    x, xd = (outlier_data(seed, size) if size
             else (regression_data(seed), doa_data(seed)))
    data = x if kind == "regression" else xd
    family, _, model = GENERIC[kind]
    u = family(omega)
    mm = model(data, u)
    theta = estimate_mt_gqmle(data, u, mm).theta
    lw = u.log_weights(data)
    scaled = transform._weights(lw)[0]
    with np.errstate(over="ignore", invalid="ignore"):
        psi = asymptotics._psi_gamma(data, theta, mm, scaled)[0]
    want = float(np.linalg.norm(scaled @ psi) * np.exp(lw.max()) / len(data))
    calls = []
    d2_cov = mm.d2_cov
    mm = dataclasses.replace(mm, d2_cov=lambda th: calls.append(th) or d2_cov(th))
    assert score_identity_check(data, theta, mm, u) == want
    assert calls == []


# The public non-DOA entries on the regression dataset at width omega.
# Each weighs the outlier row 0 at every width, so it must give the 1e80
# row's answer bit for bit.
WEIGHTED_ENTRIES = {
    "gaussian moments": lambda x, omega:
        empirical_mt_moments(x, gaussian_mt_function(omega)),
    "projected moments": lambda x, omega:
        empirical_mt_moments(x, projected_mt_function(REG, omega)),
    "gaussian check_mt_condition": lambda x, omega:
        check_mt_condition(x, gaussian_mt_function(omega)),
    "projected check_mt_condition": lambda x, omega:
        check_mt_condition(x, projected_mt_function(REG, omega)),
    "mt_gqmle_regression": lambda x, omega: mt_gqmle_regression(x, REG, omega),
    "empirical_asymptotic_mse_regression": lambda x, omega:
        empirical_asymptotic_mse_regression(x, REG, omega),
    "influence_regression": lambda x, omega:
        influence_regression(x[0], np.array([0.3, 0.5, 0.6, 0.8]), REG, omega),
    "median_location": lambda x, omega: median_location(x),
    "mad_scale": lambda x, omega: mad_scale(x),
}
# Entries that weigh the outlier fully: the answer is finite or a typed error.
UNWEIGHTED_ENTRIES = {
    "gqmle_regression": lambda x: gqmle_regression(x, REG),
    "constant moments": lambda x: empirical_mt_moments(x, constant_mt_function()),
}


def values(result) -> list:
    """The fields of a dataclass result, or the result itself, as a list."""
    if dataclasses.is_dataclass(result):
        return [getattr(result, f.name) for f in dataclasses.fields(result)]
    return [result]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("entry", list(WEIGHTED_ENTRIES))
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("size", OUTLIER_SIZES)
def test_one_gross_outlier_leaves_the_regression_entries(entry, seed, size):
    """Row 0 replaced by entries +-size +-size i: every Gaussian or
    projected weight of it is 0, as at 1e80, and the median and MAD do not
    see its size, so each entry gives the 1e80 row's answer bit for bit."""
    x, ref = (outlier_data(seed, magnitude)[0] for magnitude in (size, 1e80))
    for omega in OMEGAS:
        got, want = (values(WEIGHTED_ENTRIES[entry](data, omega))
                     for data in (x, ref))
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("entry", list(UNWEIGHTED_ENTRIES))
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("size", OUTLIER_SIZES)
def test_one_gross_outlier_unweighted_is_finite_or_typed(entry, seed, size):
    """With the outlier weighed fully, the answer is finite or a typed
    error, never a NaN or an inf."""
    try:
        got = values(UNWEIGHTED_ENTRIES[entry](outlier_data(seed, size)[0]))
    except MTQMLEError:
        return
    assert all(np.all(np.isfinite(a)) for a in got)


def assert_close_in_norm(got, want):
    """||got - want|| <= RTOL ||want||: relative to the vector, as a small
    entry of a rounded solve is not to RTOL of itself."""
    assert np.linalg.norm(got - want) <= RTOL * np.linalg.norm(want)


def shifted(family, k):
    """The family with every log-weight shifted by k: u -> e^k u."""
    def member(omega):
        u = family(omega)
        return MTFunction(lambda x: u._log_weights(x) + k, u.params)
    return member


@pytest.mark.parametrize("kind", list(GENERIC))
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("k", [-800.0, -5.0, 5.0])
def test_rescaling_u(kind, seed, k):
    """u -> e^k u leaves the selection and the influence (with the
    sandwich's F_hat) as they are, and scales the DOA score identity by e^k.
    At k = -800 every raw weight underflows; the max-shifted weights do
    not."""
    family, omegas, model = GENERIC[kind]
    data = regression_data(seed) if kind == "regression" else doa_data(seed)
    sel = select_mt_parameter(data, family, omegas, model)
    sel_k = select_mt_parameter(data, shifted(family, k), omegas, model)
    assert sel_k.omega_opt == sel.omega_opt
    np.testing.assert_allclose(sel_k.traces, sel.traces, rtol=RTOL)
    for est_k, est in zip(sel_k.estimates, sel.estimates):
        assert (est_k is None) == (est is None)     # None: a skipped width
        if est is not None:
            assert_close_in_norm(est_k.theta, est.theta)
    u, u_k = family(sel.omega_opt), shifted(family, k)(sel.omega_opt)
    mm, theta = model(data, u), sel.best_estimate.theta
    if k > -800.0:      # else e^k u(y) and e^k F_hat underflow
        y = data[np.argmax(u.log_weights(data))]     # a weight far from 0
        want = influence(y, theta, mm, u, sandwich(data, theta, mm, u).f_hat)
        assert np.any(want)
        assert_close_in_norm(influence(y, theta, mm, u_k,
                                       sandwich(data, theta, mm, u_k).f_hat),
                             want)
    if kind == "doa":   # the regression residual is at rounding level
        np.testing.assert_allclose(
            score_identity_check(data, theta, mm, u_k),
            np.exp(k) * score_identity_check(data, theta, mm, u), rtol=RTOL)
