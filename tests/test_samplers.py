import tracemalloc

import numpy as np
import pytest

from mtqmle import doa, samplers
from mtqmle.regression import unrealify
from mtqmle.samplers import (
    NoiseSpec,
    doa_sigma2_for_snr_db,
    load_dataset,
    regression_sigma2_for_snr_db,
    regression_snr,
    sample_bpsk,
    sample_complex_gaussian,
    sample_noise,
    sample_texture,
    save_dataset,
    stream_rng,
    synthesize_doa,
    synthesize_regression,
    texture_expectation,
)

from conftest import (
    THETA0_DOA,
    THETA0_REG,
    masked_mean,
    out_of_place_complex_gaussian,
    out_of_place_doa,
    out_of_place_noise,
    out_of_place_nu2_draws,
    out_of_place_regression,
    out_of_place_texture,
    random_dataset,
    whole_array_texture_mean,
)


class TestComplexGaussian:
    def test_covariance_close_to_isotropic(self):
        rng = stream_rng(0, 0)
        sigma2 = 2.5
        x = sample_complex_gaussian(3, sigma2, 10 ** 5, rng)
        cov = (x.T @ x.conj()) / x.shape[0]
        assert np.linalg.norm(cov - sigma2 * np.eye(3)) < 0.05 * np.linalg.norm(
            sigma2 * np.eye(3))

    def test_circularity(self):
        rng = stream_rng(1, 0)
        x = sample_complex_gaussian(3, 1.0, 10 ** 5, rng)
        pseudo = (x.T @ x) / x.shape[0]
        assert np.linalg.norm(pseudo) < 0.02

    def test_stream_determinism(self):
        a = sample_complex_gaussian(2, 1.0, 100, stream_rng(42, 7))
        b = sample_complex_gaussian(2, 1.0, 100, stream_rng(42, 7))
        assert a.tobytes() == b.tobytes()
        c = sample_complex_gaussian(2, 1.0, 100, stream_rng(42, 8))
        assert a.tobytes() != c.tobytes()


class TestTexture:
    def test_k_texture_unit_mean(self):
        nu = sample_texture("k", 0.75, 10 ** 6, stream_rng(2, 0))
        assert np.mean(nu ** 2) == pytest.approx(1.0, abs=0.01)

    def test_gaussian_texture_is_one(self):
        np.testing.assert_array_equal(
            sample_texture("gaussian", None, 50, stream_rng(3, 0)), np.ones(50))

    def test_t_texture_heavy_tails(self):
        # with lam = 0.2 an excursion beyond 50 sigma appears in most runs
        hits = 0
        for seed in range(4):
            spec = NoiseSpec("t", 1.0, 2, lam=0.2)
            w = sample_noise(spec, 10 ** 4, stream_rng(100 + seed, 0))
            hits += np.abs(w).max() > 50.0
        assert hits >= 2

    def test_unsupported_kind(self):
        with pytest.raises(ValueError, match="unsupported"):
            sample_texture("cauchy", 1.0, 5, stream_rng(0, 0))


class TestBPSK:
    def test_constant_modulus(self):
        s = sample_bpsk(4.0, 1000, stream_rng(4, 0))
        np.testing.assert_allclose(np.abs(s), 2.0)

    def test_zero_mean_band(self):
        n = 10 ** 5
        s = sample_bpsk(1.0, n, stream_rng(5, 0))
        assert abs(s.mean()) < 3 * np.sqrt(1.0 / n)

    def test_sign_symmetry(self):
        s = sample_bpsk(1.0, 10 ** 4, stream_rng(6, 0))
        flipped = -s
        assert sorted(np.abs(s)) == sorted(np.abs(flipped))
        assert abs(np.mean(s) + np.mean(flipped)) < 1e-12


class TestSynthesize:
    def test_noiseless_limit_regression(self, reg_gaussian, alpha0):
        quiet = NoiseSpec("gaussian", 1e-20, 10)
        x = synthesize_regression(reg_gaussian.a_matrix, alpha0, quiet, 5,
                                  stream_rng(7, 0))
        target = reg_gaussian.a_matrix @ alpha0
        assert np.abs(x - target[None, :]).max() < 1e-8

    def test_noiseless_limit_doa(self):
        quiet = NoiseSpec("gaussian", 1e-20, 4)
        x = synthesize_doa(4, 0.3, 1.0, quiet, 3, stream_rng(8, 0))
        steer = np.exp(-1j * np.pi * np.arange(4) * np.sin(0.3))
        ratios = x / steer[None, :]
        np.testing.assert_allclose(np.abs(ratios), 1.0, atol=1e-8)

    def test_snr_bookkeeping(self, reg_gaussian):
        a = reg_gaussian.a_matrix
        sigma2 = regression_sigma2_for_snr_db(a, 0.0)
        assert regression_snr(a, sigma2) == pytest.approx(1.0)
        assert doa_sigma2_for_snr_db(1.0, -15.0) == pytest.approx(10 ** 1.5)

    def test_reproducible_hash(self, reg_gaussian, alpha0):
        runs = [synthesize_regression(reg_gaussian.a_matrix, alpha0,
                                      reg_gaussian.noise, 64,
                                      stream_rng(9, 3)).tobytes()
                for _ in range(2)]
        assert runs[0] == runs[1]

    def test_dimension_mismatch(self, reg_gaussian, alpha0):
        bad = NoiseSpec("gaussian", 1.0, 7)
        with pytest.raises(ValueError):
            synthesize_regression(reg_gaussian.a_matrix, alpha0, bad, 3,
                                  stream_rng(0, 0))


class TestSphericalStructure:
    def test_direction_uniformity(self):
        # |u^H W|^2 / ||W||^2 ~ Beta(1, p-1) for isotropic W
        p, n = 4, 10 ** 5
        spec = NoiseSpec("k", 1.0, p, lam=0.75)
        w = sample_noise(spec, n, stream_rng(10, 0))
        u = np.full(p, 1 / np.sqrt(p), dtype=complex)
        t = np.abs(w @ u.conj()) ** 2 / np.sum(np.abs(w) ** 2, axis=1)
        assert t.mean() == pytest.approx(1.0 / p, abs=0.005)
        var_expected = (p - 1) / (p ** 2 * (p + 1))
        assert t.var() == pytest.approx(var_expected, rel=0.1)

    def test_texture_gaussian_independence(self):
        n = 10 ** 5
        rng = stream_rng(11, 0)
        z = sample_complex_gaussian(3, 1.0, n, rng)
        nu = sample_texture("k", 0.75, n, rng)
        corr = np.corrcoef(nu ** 2, np.sum(np.abs(z) ** 2, axis=1))[0, 1]
        assert abs(corr) < 0.01


class TestTextureExpectation:
    def test_gaussian_exact(self):
        spec = NoiseSpec("gaussian", 1.0, 4)
        assert texture_expectation(spec, lambda nu2: nu2 ** 3 + 1.0) == 2.0

    def test_k_texture_against_quadrature(self):
        from scipy import integrate, stats
        lam = 0.75
        spec = NoiseSpec("k", 1.0, 4, lam=lam)
        fn = lambda nu2: 1.0 / (1.0 + nu2)
        mc = texture_expectation(spec, fn)
        dist = stats.gamma(lam, scale=1 / lam)
        quad, _ = integrate.quad(lambda v: fn(v) * dist.pdf(v), 0, np.inf)
        assert mc == pytest.approx(quad, rel=5e-3)

    @pytest.mark.parametrize("kind", ["gaussian", "t"])
    def test_constant_integrand_is_broadcast(self, kind):
        """A scalar from fn stands for every draw of its block."""
        spec = NoiseSpec(kind, 1.0, 4, lam=1.0)
        assert texture_expectation(spec, lambda nu2: 2.0) == 2.0

    def test_deterministic_across_calls(self):
        spec = NoiseSpec("t", 1.0, 4, lam=0.2)
        f = lambda nu2: np.exp(-nu2)
        assert texture_expectation(spec, f) == texture_expectation(spec, f)

    @pytest.mark.parametrize("kind, lam", [("t", 0.2), ("k", 0.75)])
    def test_chunks_equal_whole_array_mean(self, kind, lam):
        spec = NoiseSpec(kind, 1.0, 4, lam=lam)

        def fn(nu2):
            # on the t tail nu2^6 overflows and 0 * inf is NaN, read as 0
            with np.errstate(over="ignore", invalid="ignore"):
                return nu2 ** 6 * np.exp(-nu2) + 1.0 / (1.0 + nu2)

        draws = samplers._texture_nu2_draws(kind, lam)
        assert (~np.isfinite(fn(draws))).any() == (kind == "t")
        for f in (fn, lambda nu2: np.exp(np.log(nu2) - 3.0 * np.log1p(nu2))):
            assert texture_expectation(spec, f) == whole_array_texture_mean(spec, f)

    @pytest.mark.parametrize("kind, lam", [("t", 0.2), ("k", 0.75)])
    def test_non_finite_values_in_the_partial_last_chunk(self, kind, lam):
        """10^6 = 120 * 2^13 + 16960: inf and NaN only in the last 16960
        draws are read as 0 there and nowhere else."""
        chunk = samplers._TEXTURE_CHUNK
        assert chunk == 2 ** 13
        assert samplers._TEXTURE_DRAWS == 120 * chunk + 16960
        spec = NoiseSpec(kind, 1.0, 4, lam=lam)
        draws = samplers._texture_nu2_draws(kind, lam)
        tail = draws[120 * chunk:]

        def fn(nu2):
            return np.where(np.isin(nu2, tail[::3]), np.inf,
                            np.where(np.isin(nu2, tail[1::3]), np.nan,
                                     1.0 / (1.0 + nu2)))

        bad = np.flatnonzero(~np.isfinite(fn(draws)))
        assert bad.min() >= 120 * chunk and bad.size >= len(tail) // 2
        got = texture_expectation(spec, fn)
        assert got == whole_array_texture_mean(spec, fn)
        assert got < texture_expectation(spec, lambda nu2: 1.0 / (1.0 + nu2))


def _peak_bytes(fn, *args):
    """Peak bytes traced (numpy's buffers included) while fn runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestTextureDraws:
    @pytest.mark.parametrize("kind, lam", [
        ("t", 0.2), ("t", 3.0), ("k", 0.75), ("k", 5.0)])
    def test_cached_draws_equal_out_of_place_formula(self, kind, lam):
        assert np.array_equal(samplers._texture_nu2_draws(kind, lam),
                              out_of_place_nu2_draws(kind, lam))

    @pytest.mark.parametrize("kind, lam", [("gaussian", None), ("t", 0.2), ("k", 0.75)])
    @pytest.mark.parametrize("n", [1, 7, 5000])
    def test_sample_texture_equals_out_of_place_formula(self, kind, lam, n):
        assert np.array_equal(sample_texture(kind, lam, n, stream_rng(n, 1)),
                              out_of_place_texture(kind, lam, n, stream_rng(n, 1)))

    def test_cached_draws_are_read_only(self):
        draws = samplers._texture_nu2_draws("k", 0.75)
        with pytest.raises(ValueError, match="read-only"):
            draws[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            draws *= 2.0

    def test_sampling_the_draws_holds_one_array(self):
        """Sampled and squared in place: about the 8 MB of the result."""
        peak = _peak_bytes(samplers._texture_nu2_draws.__wrapped__, "t", 0.2)
        assert peak <= 1.1 * 8 * samplers._TEXTURE_DRAWS


def assert_same_bits(got, want):
    """Equal values and equal signs, so that -0.0 and 0.0 differ."""
    assert got.dtype == want.dtype and np.array_equal(got, want)
    for part in (np.real, np.imag):
        assert np.array_equal(np.signbit(part(got)), np.signbit(part(want)))


class TestOneBufferSynthesis:
    """Each dataset is built in one buffer, bit for bit the out-of-place
    expression on the same stream. A dispersion of 5e-324 makes the scale
    sqrt(sigma2 / 2) round to 0, so the noise is all signed zeros."""

    @pytest.mark.parametrize("sigma2", [2.5, 5e-324])
    @pytest.mark.parametrize("n", [1, 7, 5000])
    @pytest.mark.parametrize("stream", [0, 1, 2])
    def test_complex_gaussian(self, sigma2, n, stream):
        assert_same_bits(
            sample_complex_gaussian(3, sigma2, n, stream_rng(n, stream)),
            out_of_place_complex_gaussian(3, sigma2, n, stream_rng(n, stream)))

    @pytest.mark.parametrize("kind, lam", [("gaussian", None), ("t", 0.2), ("k", 0.75)])
    @pytest.mark.parametrize("sigma2", [10.0, 5e-324])
    @pytest.mark.parametrize("n", [1, 7, 5000])
    @pytest.mark.parametrize("stream", [0, 1, 2])
    def test_noise_and_both_models(self, kind, lam, sigma2, n, stream):
        spec = NoiseSpec(kind, sigma2, 4, lam=lam)
        assert_same_bits(sample_noise(spec, n, stream_rng(n, stream)),
                         out_of_place_noise(spec, n, stream_rng(n, stream)))
        args = (4, THETA0_DOA, 2.0, spec, n)
        assert_same_bits(synthesize_doa(*args, stream_rng(n, stream)),
                         out_of_place_doa(*args, stream_rng(n, stream)))
        spec = NoiseSpec(kind, sigma2, 10, lam=lam)
        a_matrix = random_dataset(stream_rng(stream, 9), 10, 2)
        args = (a_matrix, unrealify(THETA0_REG), spec, n)
        assert_same_bits(synthesize_regression(*args, stream_rng(n, stream)),
                         out_of_place_regression(*args, stream_rng(n, stream)))

    @pytest.mark.parametrize("p, bound", [(4, 2.5), (10, 1.75)])
    def test_peak_is_about_one_buffer(self, p, bound):
        """The dataset's buffer plus one half-size normal draw, or for DOA
        one full-size signal term, at a time: about 2.2 (DOA, p = 4) and
        1.5 (regression, p = 10) times the dataset's bytes, where a
        temporary per step would take 3.3 and 2.1."""
        n = 2 * 10 ** 5
        if p == 4:
            noise = NoiseSpec("k", 10.0, p, lam=0.75)
            synth = lambda: synthesize_doa(p, THETA0_DOA, 1.0, noise, n,
                                           stream_rng(0, 0))
        else:
            noise = NoiseSpec("t", 10.0, p, lam=0.2)
            a_matrix = random_dataset(stream_rng(0, 9), p, 2)
            synth = lambda: synthesize_regression(
                a_matrix, unrealify(THETA0_REG), noise, n, stream_rng(0, 0))
        assert _peak_bytes(synth) <= bound * 16 * n * p


class TestBlockwiseTextureMean:
    @pytest.mark.parametrize("n", [1, 7, 8, 128, 129, 2 ** 13, 2 ** 13 + 1,
                                   2 ** 15, 2 ** 15 + 1, 3 * 2 ** 15 + 5, 10 ** 6])
    def test_equals_whole_array_masked_mean(self, monkeypatch, n):
        """The draws are the indices 0..n-1, so fn can see which block it
        got; its values are lognormal, with inf, NaN and 0 among them."""
        table = np.exp(3.0 * stream_rng(n, 2).standard_normal(n))
        table[1::97], table[2::101], table[3::89] = np.inf, np.nan, 0.0
        monkeypatch.setattr(samplers, "_texture_nu2_draws",
                            lambda kind, lam: np.arange(n, dtype=float))
        blocks = []

        def fn(nu2):
            blocks.append((int(nu2[0]), nu2.size))
            return table[nu2.astype(np.intp)]

        got = texture_expectation(NoiseSpec("t", 1.0, 4, lam=1.0), fn)
        assert got == masked_mean(table)
        starts, sizes = zip(*blocks)
        assert max(sizes) <= samplers._TEXTURE_CHUNK
        assert list(starts) == np.cumsum((0,) + sizes[:-1]).tolist()
        assert sum(sizes) == n

    def test_doa_closed_form_memory_is_bounded(self):
        """Two expectations on the cached draws, no array of all the
        integrand values: well under one 8 MB buffer."""
        model = doa.ULAModel(4, 1.0, NoiseSpec("k", 10 ** 1.5, 4, lam=0.75))
        samplers._texture_nu2_draws("k", 0.75)
        peak = _peak_bytes(doa.asymptotic_mse_doa, model, THETA0_DOA, 5.0, 1000)
        assert peak <= 4 * 2 ** 20


def test_dataset_roundtrip(tmp_path, rng):
    x = (rng.standard_normal((17, 3)) + 1j * rng.standard_normal((17, 3)))
    path = tmp_path / "data.csv"
    save_dataset(x, path)
    header = path.read_text().splitlines()[0]
    assert header == "re_0,im_0,re_1,im_1,re_2,im_2"
    np.testing.assert_array_equal(load_dataset(path), x)


def test_noise_spec_validation():
    with pytest.raises(ValueError):
        NoiseSpec("t", 1.0, 4)          # missing lam
    with pytest.raises(ValueError):
        NoiseSpec("gaussian", -1.0, 4)  # bad dispersion
    with pytest.raises(ValueError):
        NoiseSpec("weird", 1.0, 4)
