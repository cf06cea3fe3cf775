"""The four benchmark workloads and their correctness gate.

Every workload runs in one fresh process with the BLAS thread count left at
its default and no process pool. A *round* is the unit that is timed: the
workload's reduced experiment, run once through the public API on the inputs
made from the benchmark seed. Rounds within a run replay the same seed, so
every round must give byte-identical output. The warm-up and every round
therefore see the same datasets: a cache keyed on the data, which Monte
Carlo use would never hit, would make ``trials_per_s`` look faster from the
second round on. No such cache exists in mtqmle; a change that adds one
must be measured with that in mind. The *gate* runs the same
experiment on the configs' own seeds and compares its output with the values
recorded in ``expected.json``.

doa-select
    ``configs/doa_snr_sweep.json`` through ``mtqmle run`` with two SNR values
    and four trials each: p=4, n=5000, K noise (lambda=0.75), ``omega:
    "select"`` over 30 widths, a 10^4-point angle grid. The most expensive
    trial in the package (mirrors acceptance criterion 7). Loads
    ``transform``, the ``doa`` spectrum scan, ``doa.steering_grid`` and
    ``doa.empirical_asymptotic_mse_doa``; ``baselines``, ``estimator`` and
    ``asymptotics`` stay idle.
regression-sweep
    ``configs/regression_omega_sweep.json`` through ``mtqmle run`` with all
    ten omega values and eight trials each: p=10, n=1000, t noise
    (lambda=0.2) at -10 dB, a fixed omega per sweep value, estimators
    mt-gqmle, gqmle, tukey and mle. One ``transform`` pass per call at a
    single omega, so any omega-path optimisation is bypassed here (predicted
    change: none). Time goes to the ``baselines`` fixed points, ``samplers``
    texture draws and the ``samplers.texture_expectation`` closed forms.
    Its set-up includes the Tukey cutoff tuning.
regression-select
    The same regression model with ``omega: "select"`` over the 30-width
    grid, SNR in {-10, 0} dB, five trials each, estimators mt-gqmle, gqmle
    and mle (mirrors acceptance criterion 6). Loads ``transform`` with a
    projected weight at p=10, n=1000, and
    ``regression.empirical_asymptotic_mse_regression``; a shared omega-path
    kernel tuned for the DOA shape shows here whether it costs this one.
generic-select
    ``asymptotics.select_mt_parameter`` on the generic model path, the path of
    any user model without a closed form. One trial is two fits: a regression
    dataset with ``regression_moment_model`` (solver hook) over the 30
    widths, and a DOA dataset with ``doa_moment_model(use_solver=False)``,
    the exhaustive 721-point grid, over three widths. The harness never calls
    ``estimator`` or ``asymptotics``; without this workload those layers go
    unmeasured. ``harness`` stays idle.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os

import numpy as np

from mtqmle import (asymptotics, baselines, cli, doa, harness, regression,
                    samplers, transform)

_DOA_CONFIG = "doa_snr_sweep.json"
_REG_CONFIG = "regression_omega_sweep.json"
_GENERIC_REF_SEED = 7          # the generic workload has no config seed
_GENERIC_SNR_DB = -10.0
_GENERIC_DOA_WIDTHS = (1.0, 3.0, 10.0)
_GENERIC_K_THETA = 721
_PROBE_STREAMS = (0, 1)


def fmt(value) -> str:
    """12 significant digits, the precision of ``emit_csv``."""
    return f"{float(value):.12g}"


def _load(root, name) -> dict:
    with open(os.path.join(root, "configs", name), "r", encoding="utf-8") as fh:
        return json.load(fh)


def _argmin_omega(omegas, traces):
    """First minimum of the finite traces, as the harness selects."""
    finite = [i for i, t in enumerate(traces) if math.isfinite(t)]
    if not finite:
        raise ValueError("all omega candidates degenerate")
    return min(finite, key=lambda i: (traces[i], i))


def _regression_draw(cfg, snr_db):
    """The regression model the harness builds at ``snr_db``, and a function
    drawing one dataset from it."""
    angles = cfg.angles
    probe = regression.build_steering_regressors(
        cfg.p, angles[0], angles[1], samplers.NoiseSpec("gaussian", 1.0, cfg.p))
    sigma2 = samplers.regression_sigma2_for_snr_db(probe.a_matrix, snr_db)
    noise = samplers.NoiseSpec(cfg.noise_kind, sigma2, cfg.p, lam=cfg.noise_lam)
    model = regression.build_steering_regressors(cfg.p, angles[0], angles[1],
                                                 noise)
    alpha0 = regression.unrealify(np.asarray(cfg.theta0, dtype=float))
    return model, (lambda rng: samplers.synthesize_regression(
        model.a_matrix, alpha0, noise, cfg.n_samples, rng))


class HarnessWorkload:
    """A reduced sweep config run through the ``mtqmle run`` entry point."""

    synth_per_trial = 1

    def __init__(self, name, base_file, overrides, root, out_dir, seed):
        self.name = name
        raw = {**_load(root, base_file), **overrides, "output": None}
        self.ref_seed = int(raw["seed"])
        self.config = harness.ExperimentConfig.from_dict({**raw, "seed": seed})
        self.trials = len(self.config.sweep_values) * self.config.trials
        self.calls = self.trials * len(self.config.estimators)
        self._out = out_dir
        self._paths = {}
        for tag, extra in (("round", {"seed": seed}),
                           ("warmup", {"seed": seed, "trials": 1,
                                       "sweep_values": raw["sweep_values"][:1]}),
                           ("gate", {})):
            self._paths[tag] = self._write_config(tag, {**raw, **extra})

    def _write_config(self, tag, raw):
        base = os.path.join(self._out, f"{self.name}-{tag}")
        with open(base + ".json", "w", encoding="utf-8") as fh:
            json.dump(raw, fh)
        return base + ".json", base + ".csv"

    def _cli_run(self, tag) -> bytes:
        config_path, csv_path = self._paths[tag]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["run", "--config", config_path,
                             "--output", csv_path])
        if code != 0:
            raise RuntimeError(f"mtqmle run exited with {code}")
        with open(csv_path, "rb") as fh:
            return fh.read()

    def warm_up(self) -> None:
        self._cli_run("warmup")

    def run_round(self) -> bytes:
        return self._cli_run("round")

    def fingerprint(self, output: bytes) -> str:
        return hashlib.sha256(output).hexdigest()

    def failed_calls(self, output: bytes) -> int:
        return csv_failures(output, self.config)

    # --- gate ---------------------------------------------------------------

    def golden(self) -> dict:
        """Output on the config's own seed and on fixed probe streams."""
        csv_bytes = self._cli_run("gate")
        return {"csv_sha256": self.fingerprint(csv_bytes),
                "csv_failures": self.failed_calls(csv_bytes),
                "probes": self._probes()}

class DOASelect(HarnessWorkload):
    def __init__(self, root, out_dir, seed):
        super().__init__("doa-select", _DOA_CONFIG,
                         {"sweep_values": [-10, 0], "trials": 4},
                         root, out_dir, seed)

    def _probes(self):
        """Selected omega and angle on fixed streams at the first SNR."""
        cfg = self.config
        sigma2 = samplers.doa_sigma2_for_snr_db(cfg.sigma2_s,
                                                float(cfg.sweep_values[0]))
        noise = samplers.NoiseSpec(cfg.noise_kind, sigma2, cfg.p,
                                   lam=cfg.noise_lam)
        model = doa.ULAModel(cfg.p, cfg.sigma2_s, noise)
        omegas = cfg.omega_candidates()
        out = []
        for stream in _PROBE_STREAMS:
            x = samplers.synthesize_doa(cfg.p, float(cfg.theta0[0]),
                                        cfg.sigma2_s, noise, cfg.n_samples,
                                        samplers.stream_rng(self.ref_seed,
                                                            stream))
            thetas, traces = [], []
            for om in omegas:
                try:
                    th = doa.estimate_doa(x, model, float(om), cfg.k_theta)
                    tr = doa.empirical_asymptotic_mse_doa(x, model, th,
                                                          float(om))
                except ValueError:
                    th, tr = math.nan, math.nan
                thetas.append(th)
                traces.append(tr)
            i = _argmin_omega(omegas, traces)
            out.append({"stream": stream, "omega": fmt(omegas[i]),
                        "theta": [fmt(thetas[i])]})
        return out


class RegressionSweep(HarnessWorkload):
    def __init__(self, root, out_dir, seed):
        super().__init__("regression-sweep", _REG_CONFIG, {"trials": 8},
                         root, out_dir, seed)

    def _probes(self):
        """mt-gqmle at the end omegas and the t-MLE on fixed streams."""
        cfg = self.config
        model, draw = _regression_draw(cfg, cfg.snr_db)
        out = []
        for stream in _PROBE_STREAMS:
            x = draw(samplers.stream_rng(self.ref_seed, stream))
            for om in (cfg.sweep_values[0], cfg.sweep_values[-1]):
                theta = regression.mt_gqmle_regression(x, model, float(om))
                out.append({"stream": stream, "estimator": "mt-gqmle",
                            "omega": fmt(om), "theta": [fmt(t) for t in theta]})
            mle = baselines.mle_t_noise(x, model, cfg.noise_lam).theta
            out.append({"stream": stream, "estimator": "mle",
                        "theta": [fmt(t) for t in mle]})
        return out


class RegressionSelect(HarnessWorkload):
    def __init__(self, root, out_dir, seed):
        super().__init__("regression-select", _REG_CONFIG,
                         {"sweep_axis": "snr", "sweep_values": [-10, 0],
                          "omega": "select", "omega_grid": [1.0, 30.0, 30],
                          "estimators": ["mt-gqmle", "gqmle", "mle"],
                          "trials": 5},
                         root, out_dir, seed)

    def _probes(self):
        """Selected omega and estimate on fixed streams at the first SNR."""
        cfg = self.config
        model, draw = _regression_draw(cfg, float(cfg.sweep_values[0]))
        omegas = cfg.omega_candidates()
        out = []
        for stream in _PROBE_STREAMS:
            x = draw(samplers.stream_rng(self.ref_seed, stream))
            traces = []
            for om in omegas:
                try:
                    traces.append(float(np.trace(
                        regression.empirical_asymptotic_mse_regression(
                            x, model, float(om)))))
                except ValueError:
                    traces.append(math.nan)
            i = _argmin_omega(omegas, traces)
            theta = regression.mt_gqmle_regression(x, model, float(omegas[i]))
            out.append({"stream": stream, "omega": fmt(omegas[i]),
                        "theta": [fmt(t) for t in theta]})
        return out


class GenericSelect:
    """Two ``select_mt_parameter`` fits per trial on the generic model path."""

    synth_per_trial = 2
    trials = 1
    calls = 2

    def __init__(self, root, out_dir, seed):
        self.name = "generic-select"
        self.seed = seed
        reg = harness.ExperimentConfig.from_dict(
            {**_load(root, _REG_CONFIG), "output": None})
        dcfg = harness.ExperimentConfig.from_dict(
            {**_load(root, _DOA_CONFIG), "output": None})
        self.reg_omegas = reg.omega_candidates()
        self.reg_model, self._draw_reg = _regression_draw(reg, reg.snr_db)
        self.doa_cfg = dcfg
        self.doa_noise = samplers.NoiseSpec(
            dcfg.noise_kind,
            samplers.doa_sigma2_for_snr_db(dcfg.sigma2_s, _GENERIC_SNR_DB),
            dcfg.p, lam=dcfg.noise_lam)
        self.ula = doa.ULAModel(dcfg.p, dcfg.sigma2_s, self.doa_noise)

    def trial(self, seed) -> list:
        """Both fits on the datasets of ``seed``; [(omega_opt, theta)]."""
        x_reg = self._draw_reg(samplers.stream_rng(seed, 0))
        d = self.doa_cfg
        x_doa = samplers.synthesize_doa(
            d.p, float(d.theta0[0]), d.sigma2_s, self.doa_noise, d.n_samples,
            samplers.stream_rng(seed, 1))
        model = self.reg_model
        ula = self.ula
        fits = [
            (x_reg, lambda om: regression.projected_mt_function(model, om),
             self.reg_omegas,
             lambda x, u: regression.regression_moment_model(model, x, u)),
            (x_doa, transform.gaussian_mt_function, _GENERIC_DOA_WIDTHS,
             lambda x, u: doa.doa_moment_model(
                 ula, x, u.params["width"], k_theta=_GENERIC_K_THETA,
                 use_solver=False)),
        ]
        out = []
        for args in fits:
            try:
                fit = asymptotics.select_mt_parameter(*args)
                out.append((fit.omega_opt, fit.best_estimate.theta))
            except ValueError:          # the package's errors; a failed call
                out.append((math.nan, [math.nan]))
        return out

    def warm_up(self) -> None:
        self.trial(self.seed)

    def run_round(self):
        return self.trial(self.seed)

    def fingerprint(self, output) -> list:
        return _fingerprint(output)

    def failed_calls(self, output) -> int:
        return sum(0 if _finite_fit(fit) else 1 for fit in output)

    def golden(self) -> dict:
        fits = self.trial(_GENERIC_REF_SEED)
        return {"seed": _GENERIC_REF_SEED, "fits": self.fingerprint(fits),
                "fit_failures": self.failed_calls(fits)}


def _fingerprint(fits) -> list:
    return [{"omega_opt": fmt(om), "theta": [fmt(t) for t in theta]}
            for om, theta in fits]


def _finite_fit(fit) -> bool:
    om, theta = fit
    return math.isfinite(om) and bool(np.all(np.isfinite(theta)))


def csv_failures(csv_bytes: bytes, config) -> int:
    """Failed calls in an ``emit_csv`` table: the ``failures`` column, plus
    all calls of a row with a non-finite MSE, or a non-finite closed-form
    trace for mt-gqmle; every call when rows are missing."""
    rows = list(csv.DictReader(io.StringIO(csv_bytes.decode("utf-8"))))
    expected_rows = len(config.sweep_values) * len(config.estimators)
    if len(rows) != expected_rows:
        return expected_rows * config.trials
    failed = 0
    for row in rows:
        values = [float(row["empirical_mse"])]
        if row["estimator"] == "mt-gqmle":
            values += [float(row["asymptotic_mse_trace"]),
                       float(row["empirical_asymptotic_mse_trace"])]
        if all(math.isfinite(v) and v >= 0.0 for v in values):
            failed += int(row["failures"])
        else:
            failed += int(row["trials"])
    return failed


def gate_mismatches(golden: dict, expected: dict) -> list:
    """Keys whose value differs from the recorded one."""
    return sorted(k for k in expected if golden.get(k) != expected[k])


WORKLOADS = {
    "doa-select": DOASelect,
    "regression-sweep": RegressionSweep,
    "regression-select": RegressionSelect,
    "generic-select": GenericSelect,
}


def make(name, root, out_dir, seed):
    return WORKLOADS[name](root, out_dir, seed)
