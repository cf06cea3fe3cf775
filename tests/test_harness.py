import hashlib
import json

import numpy as np
import pytest

from mtqmle import doa, regression, samplers
from mtqmle.exceptions import SingularMatrix
from mtqmle.harness import (
    ExperimentConfig,
    ResultTable,
    emit_csv,
    read_csv,
    run_experiment,
    timing_report,
)


def small_regression_config(**overrides):
    raw = dict(
        application="regression",
        noise_kind="gaussian",
        theta0=[0.3, 0.5, 0.6, 0.8],
        estimators=["mt-gqmle", "gqmle"],
        sweep_axis="omega",
        sweep_values=[2.0, 8.0],
        trials=3,
        seed=77,
        n_samples=200,
        snr_db=0.0,
    )
    raw.update(overrides)
    return ExperimentConfig.from_dict(raw)


def small_doa_config(**overrides):
    raw = dict(
        application="doa",
        noise_kind="k",
        noise_lam=0.75,
        theta0=[float(np.deg2rad(30.0))],
        estimators=["mt-gqmle", "gqmle"],
        sweep_axis="snr",
        sweep_values=[-5.0],
        trials=2,
        seed=78,
        n_samples=400,
        omega=4.0,
        k_theta=801,
    )
    raw.update(overrides)
    return ExperimentConfig.from_dict(raw)


class TestConfig:
    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            ExperimentConfig.from_dict({"application": "regression",
                                        "bogus": 1})

    def test_unknown_estimator_rejected(self):
        with pytest.raises(ValueError, match="unknown estimator"):
            small_regression_config(estimators=["mt-gqmle", "music"])

    def test_doa_estimator_whitelist(self):
        with pytest.raises(ValueError, match="unknown estimator"):
            small_doa_config(estimators=["tukey"])

    def test_bad_sweep_axis(self):
        with pytest.raises(ValueError, match="sweep axis"):
            small_regression_config(sweep_axis="width")

    @pytest.mark.parametrize("overrides", [
        dict(omega=-2.0),
        dict(omega=0.0),
        dict(omega=float("nan")),
        dict(omega=float("inf")),
        dict(sweep_values=[2.0, 0.0]),
        dict(sweep_values=[2.0, -8.0]),
        dict(sweep_values=[float("inf")]),
        dict(omega_grid=[0.0, 10.0, 5]),
        dict(omega_grid=[1.0, -10.0, 5]),
        dict(omega_grid=[1.0, float("nan"), 5]),
        dict(omega_grid=[1.0, 10.0, 0]),
        dict(omega_grid=[1.0, 10.0, 2.5]),
        dict(omega=1e160),
        dict(omega=1e-170),
        dict(sweep_values=[2.0, 1e160]),
        dict(sweep_values=[1e-170]),
        dict(omega_grid=[1.0, 1e160, 5]),
        dict(omega_grid=[1e-170, 10.0, 5]),
    ], ids=lambda o: ",".join(f"{k}={v}" for k, v in o.items()))
    def test_bad_widths_rejected(self, overrides):
        with pytest.raises(ValueError, match="omega"):
            small_regression_config(**overrides)

    def test_json_roundtrip(self, tmp_path):
        cfg = small_regression_config()
        path = tmp_path / "cfg.json"
        raw = {k: getattr(cfg, k) for k in cfg.__dataclass_fields__}
        path.write_text(json.dumps(raw))
        again = ExperimentConfig.from_json(path)
        assert again == cfg


class TestRunExperiment:
    def test_noiseless_trials_have_zero_mse(self):
        cfg = small_regression_config(
            snr_db=200.0, trials=1,
            estimators=["mt-gqmle", "gqmle", "tukey", "mle"],
            sweep_values=[5.0])
        table = run_experiment(cfg)
        assert len(table.rows) == 4
        for row in table.rows:
            assert row.failures == 0
            assert row.empirical_mse < 1e-16

    def test_determinism(self):
        cfg = small_regression_config()
        t1 = run_experiment(cfg)
        t2 = run_experiment(cfg)
        for r1, r2 in zip(t1.rows, t2.rows):
            assert r1.empirical_mse == r2.empirical_mse
            assert (np.isnan(r1.asymptotic_mse_trace)
                    or r1.asymptotic_mse_trace == r2.asymptotic_mse_trace)

    def test_row_bookkeeping(self):
        cfg = small_regression_config()
        table = run_experiment(cfg)
        assert len(table.rows) == len(cfg.sweep_values) * len(cfg.estimators)
        mt_rows = table.by("mt-gqmle")
        assert all(np.isfinite(r.asymptotic_mse_trace) for r in mt_rows)
        assert all(np.isfinite(r.empirical_asymptotic_mse_trace)
                   for r in mt_rows)
        gq_rows = table.by("gqmle")
        assert all(np.isnan(r.asymptotic_mse_trace) for r in gq_rows)

    def test_omega_selection_policy(self):
        cfg = small_regression_config(sweep_axis="n", sweep_values=[150],
                                      omega="select",
                                      omega_grid=[2.0, 20.0, 4])
        table = run_experiment(cfg)
        assert all(r.failures == 0 for r in table.rows)

    def test_non_finite_estimate_counts_as_failure(self, monkeypatch):
        monkeypatch.setattr(regression, "gqmle_regression",
                            lambda x, model: np.full(4, np.nan))
        cfg = small_regression_config()
        table = run_experiment(cfg)
        for row in table.by("gqmle"):
            assert row.failures == cfg.trials
            assert np.isnan(row.empirical_mse)
        assert all(r.failures == 0 for r in table.by("mt-gqmle"))

    @pytest.mark.parametrize("make_config", [
        lambda: small_regression_config(sweep_axis="snr", sweep_values=[0.0],
                                        omega=1e-30),
        lambda: small_doa_config(omega=1e-30),
    ], ids=["regression", "doa"])
    def test_failed_closed_form_is_one_nan_cell(self, make_config):
        """At omega = 1e-30 the texture averages of the closed form
        underflow: its cell is NaN and every other column is still filled."""
        cfg = make_config()
        table = run_experiment(cfg)
        mt, gq = table.by("mt-gqmle")[0], table.by("gqmle")[0]
        assert np.isnan(mt.asymptotic_mse_trace)
        assert mt.failures == gq.failures == 0
        assert np.isfinite(mt.empirical_mse)
        assert np.isfinite(mt.empirical_asymptotic_mse_trace)
        assert np.isfinite(gq.empirical_mse)

    def test_doa_snr_sweep_error_decreases(self):
        cfg = small_doa_config(noise_kind="gaussian", noise_lam=None,
                               sweep_values=[-10.0, 0.0, 10.0], trials=10,
                               n_samples=500, omega=6.0, k_theta=1001)
        table = run_experiment(cfg)
        assert len(table.rows) == 6
        mt = [r.empirical_mse for r in table.by("mt-gqmle")]
        assert mt[0] > mt[1] > mt[2]

    def test_omega_sweep_traces_agree(self):
        """The tabulated empirical-asymptotic and closed-form traces track
        each other along an omega sweep (Gaussian noise, N = 1000)."""
        cfg = small_regression_config(trials=2, n_samples=1000,
                                      sweep_values=[4.0, 10.0, 20.0, 30.0])
        table = run_experiment(cfg)
        for row in table.by("mt-gqmle"):
            assert row.empirical_asymptotic_mse_trace == pytest.approx(
                row.asymptotic_mse_trace, rel=0.15)


def _first_minimum(omegas, traces):
    """(omega, trace) of the first minimum, NaN traces skipped."""
    best = None
    for om, tr in zip(omegas, traces):
        if not np.isnan(tr) and (best is None or tr < best[1]):
            best = (float(om), tr)
    return best


def _regression_trials(cfg, sweep_idx, snr):
    """(model, every trial's dataset) of a regression config at one sweep
    value."""
    probe = regression.build_steering_regressors(
        cfg.p, cfg.angles[0], cfg.angles[1],
        samplers.NoiseSpec("gaussian", 1.0, cfg.p))
    sigma2 = samplers.regression_sigma2_for_snr_db(probe.a_matrix, snr)
    noise = samplers.NoiseSpec(cfg.noise_kind, sigma2, cfg.p,
                               lam=cfg.noise_lam)
    model = regression.build_steering_regressors(
        cfg.p, cfg.angles[0], cfg.angles[1], noise)
    xs = [samplers.synthesize_regression(
        model.a_matrix, regression.unrealify(cfg.theta0), noise,
        cfg.n_samples, samplers.stream_rng(cfg.seed,
                                           sweep_idx * cfg.trials + trial))
        for trial in range(cfg.trials)]
    return model, xs


def _doa_trials(cfg, sweep_idx, snr):
    """(model, every trial's dataset) of a DOA config at one sweep value."""
    sigma2 = samplers.doa_sigma2_for_snr_db(cfg.sigma2_s, snr)
    noise = samplers.NoiseSpec(cfg.noise_kind, sigma2, cfg.p,
                               lam=cfg.noise_lam)
    model = doa.ULAModel(cfg.p, cfg.sigma2_s, noise)
    xs = [samplers.synthesize_doa(
        cfg.p, float(cfg.theta0[0]), cfg.sigma2_s, noise, cfg.n_samples,
        samplers.stream_rng(cfg.seed, sweep_idx * cfg.trials + trial))
        for trial in range(cfg.trials)]
    return model, xs


def _mean_sq_err(thetas, theta0):
    """The harness's empirical MSE of a list of estimates."""
    theta0 = np.asarray(theta0, dtype=float)
    return float(np.mean([
        float(np.sum((np.asarray(th, dtype=float).ravel() - theta0) ** 2))
        for th in thetas]))


class TestTrialZeroSelection:
    """The asymptotic columns come from trial 0's dataset, stream
    (seed, sweep_idx * trials): its selection, or the fixed omega."""

    def test_regression_fixed_omega(self):
        cfg = small_regression_config(
            noise_kind="t", noise_lam=0.2, sweep_axis="snr",
            sweep_values=[-10.0, 5.0], omega=6.0, n_samples=300, trials=2)
        table = run_experiment(cfg)
        for sweep_idx, (snr, row) in enumerate(zip(cfg.sweep_values,
                                                   table.by("mt-gqmle"))):
            model, xs = _regression_trials(cfg, sweep_idx, snr)
            x0 = xs[0]
            assert row.failures == 0
            assert row.empirical_mse == _mean_sq_err(
                [regression.mt_gqmle_regression(x, model, 6.0) for x in xs],
                cfg.theta0)
            assert row.empirical_asymptotic_mse_trace == float(np.trace(
                regression.empirical_asymptotic_mse_regression(x0, model,
                                                               6.0)))
            assert row.asymptotic_mse_trace == float(np.trace(
                regression.asymptotic_mse_regression(model, 6.0,
                                                     cfg.n_samples)))

    def test_doa_fixed_omega(self):
        cfg = small_doa_config(sweep_values=[-10.0, 0.0], omega=4.0,
                               trials=2)
        table = run_experiment(cfg)
        for sweep_idx, (snr, row) in enumerate(zip(cfg.sweep_values,
                                                   table.by("mt-gqmle"))):
            model, xs = _doa_trials(cfg, sweep_idx, snr)
            thetas = [doa.estimate_doa(x, model, 4.0, cfg.k_theta)
                      for x in xs]
            x0, th = xs[0], thetas[0]
            assert row.failures == 0
            assert row.empirical_mse == _mean_sq_err(thetas, cfg.theta0)
            assert row.empirical_asymptotic_mse_trace == \
                doa.empirical_asymptotic_mse_doa(x0, model, th, 4.0)
            assert row.asymptotic_mse_trace == doa.asymptotic_mse_doa(
                model, float(cfg.theta0[0]), 4.0, cfg.n_samples)

    def test_fixed_omega_failed_mse_fails_the_call(self, monkeypatch):
        """A fixed width is a one-candidate selection: a typed error from
        the empirical MSE fails the call, as it does under selection."""
        def singular(*args):
            raise SingularMatrix("stub")

        monkeypatch.setattr(doa, "_empirical_mse", singular)
        cfg = small_doa_config(trials=2)
        table = run_experiment(cfg)
        row = table.by("mt-gqmle")[0]
        assert row.failures == cfg.trials
        assert np.isnan(row.empirical_mse)
        assert np.isfinite(row.asymptotic_mse_trace)
        assert np.isnan(row.empirical_asymptotic_mse_trace)
        assert table.by("gqmle")[0].failures == 0

    def test_regression(self):
        cfg = small_regression_config(
            noise_kind="t", noise_lam=0.2, sweep_axis="snr",
            sweep_values=[-10.0, 5.0], omega="select",
            omega_grid=[1.0, 25.0, 5], n_samples=300, trials=2)
        table = run_experiment(cfg)
        for sweep_idx, (snr, row) in enumerate(zip(cfg.sweep_values,
                                                   table.by("mt-gqmle"))):
            model, (x0, *_) = _regression_trials(cfg, sweep_idx, snr)
            omegas = cfg.omega_candidates()
            traces = [float(np.trace(
                regression.empirical_asymptotic_mse_regression(
                    x0, model, float(om)))) for om in omegas]
            omega, trace = _first_minimum(omegas, traces)
            assert row.empirical_asymptotic_mse_trace == trace
            assert row.asymptotic_mse_trace == float(np.trace(
                regression.asymptotic_mse_regression(model, omega,
                                                     cfg.n_samples)))

    def test_doa(self):
        cfg = small_doa_config(sweep_values=[-10.0, 0.0], omega="select",
                               omega_grid=[1.0, 16.0, 4], trials=2)
        table = run_experiment(cfg)
        for sweep_idx, (snr, row) in enumerate(zip(cfg.sweep_values,
                                                   table.by("mt-gqmle"))):
            model, (x0, *_) = _doa_trials(cfg, sweep_idx, snr)
            omegas = cfg.omega_candidates()
            traces = []
            for om in omegas:
                th = doa.estimate_doa(x0, model, float(om), cfg.k_theta)
                traces.append(doa.empirical_asymptotic_mse_doa(
                    x0, model, th, float(om)))
            omega, trace = _first_minimum(omegas, traces)
            assert row.empirical_asymptotic_mse_trace == trace
            assert row.asymptotic_mse_trace == doa.asymptotic_mse_doa(
                model, float(cfg.theta0[0]), omega, cfg.n_samples)


class TestCSV:
    def test_header_only_for_empty_table(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv(ResultTable(rows=[]), path)
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("sweep_value,estimator,empirical_mse")

    def test_roundtrip_values(self, tmp_path):
        table = run_experiment(small_regression_config())
        path = tmp_path / "out.csv"
        emit_csv(table, path)
        parsed = read_csv(path)
        assert len(parsed) == len(table.rows)
        for rec, row in zip(parsed, table.rows):
            assert rec["estimator"] == row.estimator
            assert rec["empirical_mse"] == pytest.approx(row.empirical_mse,
                                                         rel=1e-11)

    def test_hash_identical_across_runs(self, tmp_path):
        cfg = small_regression_config()
        digests = []
        for name in ("a.csv", "b.csv"):
            path = tmp_path / name
            emit_csv(run_experiment(cfg), path)
            digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
        assert digests[0] == digests[1]

    def test_timing_column_optional(self, tmp_path):
        table = run_experiment(small_regression_config(trials=1,
                                                       sweep_values=[3.0]))
        path = tmp_path / "t.csv"
        emit_csv(table, path, include_timing=True)
        assert "mean_seconds" in path.read_text().splitlines()[0]


class TestTiming:
    def test_report_rows_match_estimators(self):
        cfg = small_regression_config(
            estimators=["mt-gqmle", "gqmle", "mle"], trials=2,
            sweep_values=[4.0, 8.0])
        report = timing_report(cfg)
        assert [name for name, _, _ in report] == ["mt-gqmle", "gqmle", "mle"]
        assert all(seconds >= 0.0 for _, seconds, _ in report)
        assert all(calls == 2 for _, _, calls in report)

    def test_closed_form_paths_fast_relative_to_iterative(self):
        cfg = small_regression_config(
            noise_kind="t", noise_lam=0.2, snr_db=0.0,
            estimators=["gqmle", "mle"], trials=4, sweep_values=[5.0],
            n_samples=500)
        report = dict((name, secs) for name, secs, _ in timing_report(cfg))
        # the iterative likelihood fit costs at least as much as least squares
        assert report["mle"] >= report["gqmle"]
