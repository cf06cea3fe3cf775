import hashlib
import json
import warnings

import numpy as np
import pytest

from mtqmle import asymptotics, doa, harness, regression, samplers
from mtqmle.exceptions import MTQMLEError, SingularMatrix
from mtqmle.harness import ExperimentConfig, emit_csv, run_experiment

from conftest import by, read_csv


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

    @pytest.mark.parametrize("application,key,value", [
        ("regression", "trials", 2.5),
        ("regression", "trials", True),
        ("regression", "seed", 1.5),
        ("regression", "n_samples", 150.5),
        ("doa", "p", 4.5),
        ("doa", "k_theta", 100.5),
    ])
    def test_non_integer_fields_rejected(self, application, key, value):
        make = (small_regression_config if application == "regression"
                else small_doa_config)
        with pytest.raises(ValueError, match=key):
            make(**{key: value})

    def test_fractional_sample_counts_rejected(self):
        small_regression_config(sweep_axis="n", sweep_values=[100.0])
        with pytest.raises(ValueError, match="sweep_values"):
            small_regression_config(sweep_axis="n", sweep_values=[100.0, 100.7])

    @pytest.mark.parametrize("application,key,overrides", [
        ("regression", "n_samples", dict(n_samples=0)),
        ("doa", "n_samples", dict(n_samples=-3)),
        ("regression", "sweep_values", dict(sweep_axis="n", sweep_values=[1, 0])),
        ("doa", "sweep_values", dict(sweep_axis="n", sweep_values=[-3.0])),
    ])
    def test_sample_counts_below_one_rejected(self, application, key, overrides):
        make = (small_regression_config if application == "regression"
                else small_doa_config)
        make(n_samples=1, sweep_axis="n", sweep_values=[1])
        with pytest.raises(ValueError, match=key):
            make(**overrides)

    def test_json_roundtrip(self, tmp_path):
        cfg = small_regression_config()
        path = tmp_path / "cfg.json"
        raw = {k: getattr(cfg, k) for k in cfg.__dataclass_fields__}
        path.write_text(json.dumps(raw))
        again = ExperimentConfig.from_json(path)
        assert again == cfg


# A grid whose narrowest width leaves one effective sample (ESS 1): its MSE
# trace is 0 (regression) or nearly so (DOA).
COLLAPSING_GRID = dict(sweep_axis="snr", sweep_values=[0.0], trials=1,
                       seed=77, omega="select", omega_grid=[0.01, 30.0, 30])
COLLAPSING_CONFIGS = [
    lambda: small_regression_config(n_samples=300, **COLLAPSING_GRID),
    lambda: small_doa_config(**COLLAPSING_GRID),
]

# Finite but extreme configs, two trials each.
_T_REG = dict(noise_kind="t", noise_lam=0.2, trials=2,
              estimators=["mt-gqmle", "gqmle", "tukey", "mle"])
_TINY_N = dict(sweep_axis="n", sweep_values=[1, 2, 3])
_HUGE_SNR = dict(sweep_axis="snr", sweep_values=[-300.0, -200.0, 200.0, 300.0])
EXTREME_CONFIGS = {
    "regression-overflowing-log-weights": lambda: small_regression_config(
        noise_kind="t", noise_lam=0.2, sweep_axis="snr", sweep_values=[0.0],
        omega=1e-150, trials=2),
    "doa-zero-texture-draws": lambda: small_doa_config(noise_lam=1e-3),
    "regression-zero-texture-draws": lambda: small_regression_config(
        noise_kind="k", noise_lam=1e-3, trials=2),
    "regression-n-1-2-3": lambda: small_regression_config(
        **_T_REG, **_TINY_N),
    "doa-n-1-2-3": lambda: small_doa_config(**_TINY_N),
    "regression-snr-300-200": lambda: small_regression_config(
        **_T_REG, **_HUGE_SNR),
    "doa-snr-300-200": lambda: small_doa_config(**_HUGE_SNR),
    "regression-omega-1e150": lambda: small_regression_config(
        **_T_REG, sweep_axis="snr", sweep_values=[0.0], omega=1e150),
    "doa-omega-1e150": lambda: small_doa_config(omega=1e150),
    "regression-p-3": lambda: small_regression_config(**_T_REG, p=3),
    "doa-p-2": lambda: small_doa_config(p=2),
    "doa-p-3": lambda: small_doa_config(p=3),
    "doa-k-theta-2": lambda: small_doa_config(k_theta=2),
}


class TestRunExperiment:
    def test_noiseless_trials_have_zero_mse(self):
        cfg = small_regression_config(
            snr_db=200.0, trials=1,
            estimators=["mt-gqmle", "gqmle", "tukey", "mle"],
            sweep_values=[5.0])
        rows = run_experiment(cfg)
        assert len(rows) == 4
        for row in rows:
            assert row.failures == 0
            assert row.empirical_mse < 1e-16

    def test_tukey_tunes_at_large_dimension(self):
        """At p = 200 the cutoff search starts where the ARE integrals
        underflow; the run must still tune and fit."""
        cfg = small_regression_config(p=200, n_samples=400, trials=1,
                                      estimators=["tukey"],
                                      sweep_values=[5.0])
        (row,) = run_experiment(cfg)
        assert row.failures == 0 and np.isfinite(row.empirical_mse)

    def test_determinism(self):
        cfg = small_regression_config()
        t1 = run_experiment(cfg)
        t2 = run_experiment(cfg)
        for r1, r2 in zip(t1, t2):
            assert r1.empirical_mse == r2.empirical_mse
            assert (np.isnan(r1.asymptotic_mse_trace)
                    or r1.asymptotic_mse_trace == r2.asymptotic_mse_trace)

    def test_row_bookkeeping(self):
        cfg = small_regression_config()
        rows = run_experiment(cfg)
        assert len(rows) == len(cfg.sweep_values) * len(cfg.estimators)
        mt_rows = by(rows, "mt-gqmle")
        assert all(np.isfinite(r.asymptotic_mse_trace) for r in mt_rows)
        assert all(np.isfinite(r.empirical_asymptotic_mse_trace)
                   for r in mt_rows)
        gq_rows = by(rows, "gqmle")
        assert all(np.isnan(r.asymptotic_mse_trace) for r in gq_rows)

    def test_omega_selection_policy(self):
        cfg = small_regression_config(sweep_axis="n", sweep_values=[150],
                                      omega="select",
                                      omega_grid=[2.0, 20.0, 4])
        rows = run_experiment(cfg)
        assert all(r.failures == 0 for r in rows)

    def test_non_finite_estimate_counts_as_failure(self, monkeypatch):
        monkeypatch.setattr(regression, "gqmle_regression",
                            lambda x, model: np.full(4, np.nan))
        cfg = small_regression_config()
        rows = run_experiment(cfg)
        for row in by(rows, "gqmle"):
            assert row.failures == cfg.trials
            assert np.isnan(row.empirical_mse)
        assert all(r.failures == 0 for r in by(rows, "mt-gqmle"))

    def test_non_finite_estimate_raises_a_package_error(self, monkeypatch):
        """The harness fails a non-finite estimate with an MTQMLEError, the
        one error type it counts."""
        raised = []

        class Recorded(MTQMLEError):
            def __init__(self, *args):
                super().__init__(*args)
                raised.append(str(self))

        monkeypatch.setattr(harness, "MTQMLEError", Recorded)
        monkeypatch.setattr(regression, "gqmle_regression",
                            lambda x, model: np.full(4, np.nan))
        cfg = small_regression_config(estimators=["gqmle"])
        (row, _) = run_experiment(cfg)
        assert row.failures == cfg.trials
        assert raised == ["non-finite estimate"] * (
            cfg.trials * len(cfg.sweep_values))

    def test_untyped_error_ends_the_run(self, monkeypatch):
        """A bug in an estimator (here numpy's broadcast ValueError) is not
        a failed call: it propagates out of the run."""
        monkeypatch.setattr(regression, "gqmle_regression",
                            lambda x, model: x[:, :3] + x[:, :2])
        with pytest.raises(ValueError, match="broadcast") as info:
            run_experiment(small_regression_config())
        assert not isinstance(info.value, MTQMLEError)

    @pytest.mark.parametrize("application,omega,message", [
        ("regression", 1e-30, "texture expectation is 0.0"),
        ("doa", 1e-30, "texture expectation is 0.0"),
        ("regression", 1e-20, "squared texture expectation underflows"),
        ("doa", 1e-20, "squared texture expectation underflows")])
    def test_failed_closed_form_raises_a_package_error(self, application,
                                                       omega, message):
        """The closed form behind a NaN asymptotic cell fails with an
        MTQMLEError, the one error type the epilogue turns into NaN."""
        cfg = (small_regression_config(sweep_axis="snr", sweep_values=[0.0],
                                       omega=omega)
               if application == "regression" else small_doa_config(omega=omega))
        app = harness._APPLICATIONS[application](cfg, cfg.sweep_values[0])
        with pytest.raises(MTQMLEError, match=message):
            app.asymptotic_trace(omega, cfg.n_samples)

    @pytest.mark.parametrize("make_config", [
        lambda: small_regression_config(sweep_axis="snr", sweep_values=[0.0],
                                        omega=1e-30),
        lambda: small_doa_config(omega=1e-30),
    ], ids=["regression", "doa"])
    def test_failed_closed_form_is_one_nan_cell(self, make_config):
        """At omega = 1e-30 the texture averages of the closed form
        underflow: its cell is NaN and every other column is still filled."""
        cfg = make_config()
        rows = run_experiment(cfg)
        mt, gq = by(rows, "mt-gqmle")[0], by(rows, "gqmle")[0]
        assert np.isnan(mt.asymptotic_mse_trace)
        assert mt.failures == gq.failures == 0
        assert np.isfinite(mt.empirical_mse)
        assert np.isfinite(mt.empirical_asymptotic_mse_trace)
        assert np.isfinite(gq.empirical_mse)

    @pytest.mark.parametrize("application,omega", [
        ("regression", 1e-20), ("regression", 1e-16), ("regression", 1e-12),
        ("doa", 1e-20), ("doa", 1e-16)])
    def test_underflowing_square_is_one_nan_cell(self, application, omega):
        """At these widths the closed form's texture average is nonzero but
        its square underflows: a NaN cell, not a ZeroDivisionError."""
        cfg = (small_regression_config(sweep_axis="snr", sweep_values=[0.0],
                                       omega=omega)
               if application == "regression" else small_doa_config(omega=omega))
        rows = run_experiment(cfg)
        mt = by(rows, "mt-gqmle")[0]
        assert np.isnan(mt.asymptotic_mse_trace) and mt.failures == 0

    @pytest.mark.parametrize("make_config", EXTREME_CONFIGS.values(),
                             ids=EXTREME_CONFIGS.keys())
    def test_extreme_configs_run_without_warnings(self, make_config):
        """A log-weight -||P x||^2 / omega^2 that overflows is -inf, and a
        texture draw of exactly 0 adds the exact 0 to a closed form's
        integrand: neither warns. Nor do the tiny samples, extreme SNRs,
        huge widths, small arrays and coarse angle grids. Every cell is
        finite, or NaN where it has no value (an estimator that failed every
        trial, e.g. regression selection raising DegenerateWeights when every
        width leaves one effective sample)."""
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rows = run_experiment(make_config())
        for row in rows:
            assert np.isfinite(row.empirical_mse) == (row.failures < row.trials)
            for cell in (row.asymptotic_mse_trace,
                         row.empirical_asymptotic_mse_trace):
                assert np.isfinite(cell) or np.isnan(cell)

    @pytest.mark.parametrize("make_config", COLLAPSING_CONFIGS,
                             ids=["regression", "doa"])
    def test_selection_refuses_collapsed_widths(self, make_config,
                                                monkeypatch):
        """The width 0.01 is refused; the selected one keeps at least 2
        effective samples and a positive MSE trace."""
        picked = []
        real = asymptotics.select_by_trace

        def spy(omegas, fit):
            picked.append((real(omegas, fit), fit))
            return picked[-1][0]

        monkeypatch.setattr(asymptotics, "select_by_trace", spy)
        run_experiment(make_config())
        assert picked
        for sel, fit in picked:
            assert np.isnan(sel.traces[0])
            _, mse, phi = fit(sel.omega_opt)
            assert 1.0 / (phi @ phi) >= 2.0
            assert np.trace(np.atleast_2d(mse)) > 0.0

    @pytest.mark.parametrize("make_config", COLLAPSING_CONFIGS,
                             ids=["regression", "doa"])
    def test_collapsed_width_still_estimates(self, make_config):
        """The floor guards a width choice, not a point estimate: at a width
        with ESS 1 the fixed-width estimators still return a finite value."""
        cfg = make_config()
        app = harness._APPLICATIONS[cfg.application](cfg, 0.0)
        x = app.synthesize(cfg.n_samples, samplers.stream_rng(cfg.seed, 0))
        phi = app.fitter(x)(0.01)[2]
        assert 1.0 / (phi @ phi) < 2.0
        estimate = (regression.mt_gqmle_regression
                    if cfg.application == "regression" else doa.estimate_doa)
        assert np.all(np.isfinite(estimate(x, app.model, 0.01)))

    def test_doa_snr_sweep_error_decreases(self):
        cfg = small_doa_config(noise_kind="gaussian", noise_lam=None,
                               sweep_values=[-10.0, 0.0, 10.0], trials=10,
                               n_samples=500, omega=6.0, k_theta=1001)
        rows = run_experiment(cfg)
        assert len(rows) == 6
        mt = [r.empirical_mse for r in by(rows, "mt-gqmle")]
        assert mt[0] > mt[1] > mt[2]

    def test_omega_sweep_traces_agree(self):
        """The tabulated empirical-asymptotic and closed-form traces track
        each other along an omega sweep (Gaussian noise, N = 1000)."""
        cfg = small_regression_config(trials=2, n_samples=1000,
                                      sweep_values=[4.0, 10.0, 20.0, 30.0])
        rows = run_experiment(cfg)
        for row in by(rows, "mt-gqmle"):
            assert row.empirical_asymptotic_mse_trace == pytest.approx(
                row.asymptotic_mse_trace, rel=0.15)


    def test_regressors_built_once_per_sweep_value(self):
        """Near-equal angles warn once per sweep value: the model reuses the
        probe's regressors instead of building them a second time."""
        cfg = small_regression_config(angles=[0.5, 0.5 + 5e-9], trials=1)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_experiment(cfg)
        assert sum("nearly equal" in str(w.message) for w in caught) == 2

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
        rows = run_experiment(cfg)
        for sweep_idx, (snr, row) in enumerate(zip(cfg.sweep_values,
                                                   by(rows, "mt-gqmle"))):
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
        rows = run_experiment(cfg)
        for sweep_idx, (snr, row) in enumerate(zip(cfg.sweep_values,
                                                   by(rows, "mt-gqmle"))):
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
        rows = run_experiment(cfg)
        row = by(rows, "mt-gqmle")[0]
        assert row.failures == cfg.trials
        assert np.isnan(row.empirical_mse)
        assert np.isfinite(row.asymptotic_mse_trace)
        assert np.isnan(row.empirical_asymptotic_mse_trace)
        assert by(rows, "gqmle")[0].failures == 0

    def test_regression(self):
        cfg = small_regression_config(
            noise_kind="t", noise_lam=0.2, sweep_axis="snr",
            sweep_values=[-10.0, 5.0], omega="select",
            omega_grid=[1.0, 25.0, 5], n_samples=300, trials=2)
        rows = run_experiment(cfg)
        for sweep_idx, (snr, row) in enumerate(zip(cfg.sweep_values,
                                                   by(rows, "mt-gqmle"))):
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
        rows = run_experiment(cfg)
        for sweep_idx, (snr, row) in enumerate(zip(cfg.sweep_values,
                                                   by(rows, "mt-gqmle"))):
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

    @pytest.mark.parametrize("omega", ["select", 6.0])
    def test_only_trial_zero_fails(self, monkeypatch, omega):
        """A later trial's selection never stands in for trial 0's: under
        selection both asymptotic cells are NaN, while a fixed omega still
        fills the closed form. Trials 1 and 2 are averaged as usual."""
        fitter = harness._Regression.fitter
        datasets = []

        def first_fails(app, x):
            datasets.append(x)
            if len(datasets) == 1:
                raise MTQMLEError("stub")
            return fitter(app, x)

        monkeypatch.setattr(harness._Regression, "fitter", first_fails)
        cfg = small_regression_config(
            noise_kind="t", noise_lam=0.2, sweep_axis="snr",
            sweep_values=[0.0], omega=omega, omega_grid=[1.0, 25.0, 5],
            n_samples=300, trials=3)
        row = by(run_experiment(cfg), "mt-gqmle")[0]
        assert len(datasets) == cfg.trials
        assert row.failures == 1 < cfg.trials
        assert np.isfinite(row.empirical_mse)
        assert np.isnan(row.empirical_asymptotic_mse_trace)
        if omega == "select":
            assert np.isnan(row.asymptotic_mse_trace)
            return
        model, xs = _regression_trials(cfg, 0, 0.0)
        assert row.empirical_mse == _mean_sq_err(
            [regression.mt_gqmle_regression(x, model, omega) for x in xs[1:]],
            cfg.theta0)
        assert row.asymptotic_mse_trace == float(np.trace(
            regression.asymptotic_mse_regression(model, omega,
                                                 cfg.n_samples)))


class TestCSV:
    def test_header_only_for_empty_table(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv([], path)
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("sweep_value,estimator,empirical_mse")

    def test_roundtrip_values(self, tmp_path):
        rows = run_experiment(small_regression_config())
        path = tmp_path / "out.csv"
        emit_csv(rows, path)
        parsed = read_csv(path)
        assert len(parsed) == len(rows)
        for rec, row in zip(parsed, rows):
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


class TestTiming:
    def test_report_rows_match_estimators(self):
        cfg = small_regression_config(
            estimators=["mt-gqmle", "gqmle", "mle"], trials=2,
            sweep_values=[4.0, 8.0])
        report = [(r.estimator, r.mean_seconds, r.trials - r.failures)
                  for r in run_experiment(cfg)
                  if r.sweep_value == cfg.sweep_values[0]]
        assert [name for name, _, _ in report] == ["mt-gqmle", "gqmle", "mle"]
        assert all(seconds >= 0.0 for _, seconds, _ in report)
        assert all(calls == 2 for _, _, calls in report)

    def test_closed_form_paths_fast_relative_to_iterative(self):
        cfg = small_regression_config(
            noise_kind="t", noise_lam=0.2, snr_db=0.0,
            estimators=["gqmle", "mle"], trials=4, sweep_values=[5.0],
            n_samples=500)
        report = {r.estimator: r.mean_seconds for r in run_experiment(cfg)}
        # the iterative likelihood fit costs at least as much as least squares
        assert report["mle"] >= report["gqmle"]
