import numpy as np
import pytest

import mtqmle
from mtqmle.asymptotics import select_by_trace
from mtqmle.baselines import mle_t_noise
from mtqmle.core import as_dataset
from mtqmle.exceptions import (DegenerateWeights, MTQMLEError,
                               NotPositiveDefinite, SingularMatrix)
from mtqmle.regression import (build_steering_regressors, mt_fitter_regression,
                               projected_mt_function)
from mtqmle.samplers import NoiseSpec
from mtqmle.transform import empirical_mt_moments, gaussian_mt_function

from conftest import (inv_quad_form, log_det_divergence, random_dataset,
                      random_pd, sample_covariance, sample_mean,
                      weighted_norm_sq)


@pytest.mark.parametrize("error", [DegenerateWeights, NotPositiveDefinite,
                                   SingularMatrix])
def test_typed_errors_share_one_package_base(error):
    """Every typed failure is an MTQMLEError, which callers that catch
    ValueError still catch; the package exports the base with them."""
    assert issubclass(error, MTQMLEError) and issubclass(MTQMLEError, ValueError)
    assert mtqmle.MTQMLEError is MTQMLEError and "MTQMLEError" in mtqmle.__all__
    assert getattr(mtqmle, error.__name__) is error


REG = build_steering_regressors(10, np.pi / 3, np.pi / 6,
                                NoiseSpec("t", 10.0, 10, lam=0.2))
# Non-contiguous views of a C-contiguous (n, p) dataset.
LAYOUTS = {
    "fortran": np.asfortranarray,
    "column-reversed": lambda x: x[:, ::-1],
    "row-strided": lambda x: np.repeat(x, 2, axis=0)[::2],
}


class TestAsDataset:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_non_finite_entry_rejected(self, bad):
        x = np.ones((3, 2), dtype=complex)
        x[1, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            as_dataset(x)

    def test_three_dimensional_input_rejected(self):
        with pytest.raises(ValueError, match="ndim=3"):
            as_dataset(np.zeros((2, 3, 4)))

    def test_zero_dimensional_input_rejected(self):
        with pytest.raises(ValueError, match="ndim=0"):
            as_dataset(np.complex128(1.0 + 2.0j))

    def test_contiguous_input_is_not_copied(self):
        x = random_dataset(np.random.default_rng(0), 5, 3)
        assert as_dataset(x) is x

    def test_strided_one_dimensional_input_is_one_column(self):
        z = random_dataset(np.random.default_rng(1), 9, 1).ravel()
        x = as_dataset(z[::2])
        assert x.flags.c_contiguous and x.shape == (5, 1)
        assert np.array_equal(x[:, 0], z[::2])

    @pytest.mark.parametrize("layout", list(LAYOUTS))
    def test_layout_leaves_every_bit(self, layout):
        """A Fortran-ordered, column-reversed or row-strided dataset gives
        the bits of its C-contiguous copy: the weighted means read the
        dataset as one real (n, 2p) array."""
        rng = np.random.default_rng(2)
        x = LAYOUTS[layout](random_dataset(rng, 600, REG.p, scale=3.0))
        assert not x.flags.c_contiguous
        results = []
        for data in (x, np.ascontiguousarray(x)):
            moments = [empirical_mt_moments(data, u) for u in
                       (gaussian_mt_function(4.0), projected_mt_function(REG, 4.0))]
            sel = select_by_trace(np.linspace(1.0, 30.0, 30),
                                  mt_fitter_regression(data, REG))
            results.append([a for m in moments
                            for a in (m.weights, m.mt_mean, m.mt_cov)]
                           + [sel.omega_opt, sel.traces, sel.best_estimate,
                              mle_t_noise(data, REG, 0.2).theta])
        for got, want in zip(*results):     # a degenerate width's trace is NaN
            assert np.array_equal(got, want, equal_nan=True)


class TestSampleMean:
    def test_single_sample_is_identity(self):
        x = np.array([[1.0 + 2.0j, -0.5j]])
        np.testing.assert_allclose(sample_mean(x), x[0])

    def test_scalar_pair(self):
        assert sample_mean([1 + 0j, 3 + 2j])[0] == pytest.approx(2 + 1j)

    def test_large_sample_clt_bound(self):
        rng = np.random.default_rng(0)
        p, n = 4, 10 ** 5
        x = random_dataset(rng, n, p, scale=np.sqrt(0.5))  # unit complex variance
        assert np.linalg.norm(sample_mean(x)) < 3 * np.sqrt(p / n)

    def test_empty_dataset_raises(self):
        with pytest.raises(ValueError, match="empty dataset"):
            sample_mean(np.empty((0, 3), dtype=complex))


class TestSampleCovariance:
    def test_identical_samples_zero(self):
        x = np.tile(np.array([1 + 1j, 2.0, -3j]), (7, 1))
        np.testing.assert_allclose(sample_covariance(x), np.zeros((3, 3)),
                                   atol=1e-14)

    def test_plus_minus_one(self):
        assert sample_covariance([1 + 0j, -1 + 0j])[0, 0] == pytest.approx(1.0)

    def test_large_sample_identity(self):
        rng = np.random.default_rng(3)
        x = random_dataset(rng, 10 ** 5, 3, scale=np.sqrt(0.5))
        err = np.linalg.norm(sample_covariance(x) - np.eye(3))
        assert err < 0.05

    @pytest.mark.parametrize("seed", range(5))
    def test_hermitian_psd(self, seed):
        rng = np.random.default_rng(seed)
        cov = sample_covariance(random_dataset(rng, 20, 4))
        np.testing.assert_allclose(cov, cov.conj().T, atol=1e-14)
        eigs = np.linalg.eigvalsh(cov)
        assert eigs.min() >= -1e-10 * np.trace(cov).real


class TestLogDetDivergence:
    def test_identity_pair_zero(self):
        eye = np.eye(3, dtype=complex)
        assert abs(log_det_divergence(eye, eye)) < 1e-12

    def test_two_eye_formula(self):
        val = log_det_divergence(2 * np.eye(2, dtype=complex), np.eye(2))
        assert val == pytest.approx(4 - 2 * np.log(2) - 2, abs=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_eigen_oracle_and_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        a = random_pd(rng, 4)
        b = random_pd(rng, 4)
        val = log_det_divergence(a, b)
        # oracle: eigenvalues of B^-1/2 A B^-1/2 give sum(lam - log lam - 1)
        w_b, v_b = np.linalg.eigh(b)
        b_inv_half = v_b @ np.diag(w_b ** -0.5) @ v_b.conj().T
        lam = np.linalg.eigvalsh(b_inv_half @ a @ b_inv_half)
        oracle = float(np.sum(lam - np.log(lam) - 1.0))
        assert val == pytest.approx(oracle, rel=1e-9)
        assert val >= -1e-12

    def test_zero_iff_equal(self, rng):
        a = random_pd(rng, 3)
        assert abs(log_det_divergence(a, a.copy())) < 1e-10
        b = a + 0.05 * np.eye(3)
        assert log_det_divergence(a, b) > 0

    def test_non_pd_raises(self):
        bad = np.diag([1.0, -1.0]).astype(complex)
        with pytest.raises(NotPositiveDefinite, match="not positive definite"):
            log_det_divergence(bad, np.eye(2, dtype=complex))


class TestWeightedNormSq:
    def test_zero_vector(self):
        assert weighted_norm_sq(np.zeros(3, dtype=complex), np.eye(3)) == 0.0

    def test_identity_weight(self, rng):
        a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        assert weighted_norm_sq(a, np.eye(4)) == pytest.approx(
            np.linalg.norm(a) ** 2)

    def test_elementwise_oracle(self, rng):
        a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        c = random_pd(rng, 3)
        oracle = sum(a[i].conjugate() * c[i, j] * a[j]
                     for i in range(3) for j in range(3))
        assert abs(oracle.imag) < 1e-12 * abs(oracle.real)
        assert weighted_norm_sq(a, c) == pytest.approx(oracle.real)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            weighted_norm_sq(np.ones(3, dtype=complex), np.eye(2))

    def test_inv_quad_form_consistency(self, rng):
        d = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        c = random_pd(rng, 4)
        assert inv_quad_form(d, c) == pytest.approx(
            weighted_norm_sq(d, np.linalg.inv(c)), rel=1e-10)
