"""Config-driven Monte Carlo experiment runner.

An experiment sweeps one axis (weight width omega, SNR in dB, or sample
count), runs every configured estimator over ``trials`` independent datasets
per sweep value, and tabulates the empirical MSE next to the closed-form and
empirical asymptotic MSE traces of the reweighted estimator. Per-trial RNG
streams are keyed by (seed, sweep index * trials + trial), so results do not
depend on execution order.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from . import asymptotics, baselines, doa, regression, samplers
from .transform import width_squared


@functools.lru_cache(maxsize=8)
def _tuned_tukey_c(target: float, p: int) -> float:
    return baselines.tune_c_for_are(target, p)

_REG_ESTIMATORS = ("mt-gqmle", "gqmle", "tukey", "mle")
_DOA_ESTIMATORS = ("mt-gqmle", "gqmle")
_SWEEP_AXES = ("omega", "snr", "n")


@dataclass
class ExperimentConfig:
    application: str                       # 'regression' | 'doa'
    noise_kind: str                        # 'gaussian' | 't' | 'k'
    theta0: list
    estimators: list
    sweep_axis: str
    sweep_values: list
    trials: int
    seed: int
    n_samples: int = 1000
    snr_db: float = 0.0
    noise_lam: Optional[float] = None
    omega: object = "select"               # float, or 'select' for data-driven
    omega_grid: list = field(default_factory=lambda: [1.0, 30.0, 30])
    p: Optional[int] = None
    angles: list = field(default_factory=lambda: [np.pi / 3, np.pi / 6])
    sigma2_s: float = 1.0
    k_theta: int = 10_000
    output: Optional[str] = None
    tukey_are: float = 0.95

    def __post_init__(self):
        if self.application not in ("regression", "doa"):
            raise ValueError(f"unknown application {self.application!r}")
        allowed = _REG_ESTIMATORS if self.application == "regression" else _DOA_ESTIMATORS
        for name in self.estimators:
            if name not in allowed:
                raise ValueError(f"unknown estimator {name!r} for "
                                 f"{self.application}; allowed: {allowed}")
        if self.sweep_axis not in _SWEEP_AXES:
            raise ValueError(f"sweep axis must be one of {_SWEEP_AXES}")
        if not self.sweep_values:
            raise ValueError("sweep_values must be nonempty")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.p is None:
            self.p = 10 if self.application == "regression" else 4
        if not (isinstance(self.omega, (int, float)) or self.omega == "select"):
            raise ValueError("omega must be a number or 'select'")
        lo, hi, count = self.omega_grid
        widths = [lo, hi] + ([] if self.omega == "select" else [self.omega])
        widths += self.sweep_values if self.sweep_axis == "omega" else []
        for w in widths:
            width_squared(w)
        if not (float(count).is_integer() and count >= 1):
            raise ValueError("omega_grid count must be an integer >= 1")

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        try:
            return cls(**raw)
        except TypeError as exc:
            raise ValueError(f"invalid config: {exc}") from None

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def omega_candidates(self) -> np.ndarray:
        lo, hi, count = self.omega_grid
        return np.linspace(float(lo), float(hi), int(count))


@dataclass
class ResultRow:
    sweep_value: float
    estimator: str
    empirical_mse: float
    asymptotic_mse_trace: float
    empirical_asymptotic_mse_trace: float
    failures: int
    trials: int
    mean_seconds: float


@dataclass
class ResultTable:
    rows: list

    def by(self, estimator: str) -> list:
        return [r for r in self.rows if r.estimator == estimator]


# --- per-application plumbing -------------------------------------------------
# Synthesis, baselines, the per-dataset fitter omega -> (theta_hat, empirical
# asymptotic MSE) that every mt-gqmle call selects over, the closed-form trace.

class _Regression:
    def __init__(self, config: ExperimentConfig, snr_db: float):
        angles = config.angles
        probe = regression.build_steering_regressors(
            config.p, angles[0], angles[1],
            samplers.NoiseSpec("gaussian", 1.0, config.p))
        sigma2 = samplers.regression_sigma2_for_snr_db(probe.a_matrix, snr_db)
        self.noise = samplers.NoiseSpec(config.noise_kind, sigma2, config.p,
                                        lam=config.noise_lam)
        self.model = regression.build_steering_regressors(
            config.p, angles[0], angles[1], self.noise)
        self.alpha0 = regression.unrealify(config.theta0)
        self._config = config

    def synthesize(self, n: int, rng) -> np.ndarray:
        return samplers.synthesize_regression(self.model.a_matrix, self.alpha0,
                                              self.noise, n, rng)

    def baseline(self, name: str) -> Callable:
        if name == "gqmle":
            return lambda x: regression.gqmle_regression(x, self.model)
        if name == "tukey":
            c = _tuned_tukey_c(self._config.tukey_are, self._config.p)
            return lambda x: baselines.tukey_m_estimator(x, self.model, c).theta
        if name == "mle":
            if self.noise.kind == "gaussian":
                return lambda x: baselines.least_squares(x, self.model).theta
            if self.noise.kind == "t":
                return lambda x: baselines.mle_t_noise(
                    x, self.model, self.noise.lam).theta
            raise ValueError("omniscient MLE is unavailable for "
                             f"{self.noise.kind!r} regression noise")
        raise ValueError(name)

    def fitter(self, x: np.ndarray) -> Callable:
        return regression.mt_fitter_regression(x, self.model)

    def asymptotic_trace(self, omega: float, n: int) -> float:
        return float(np.trace(regression.asymptotic_mse_regression(
            self.model, omega, n)))


class _DOA:
    def __init__(self, config: ExperimentConfig, snr_db: float):
        sigma2 = samplers.doa_sigma2_for_snr_db(config.sigma2_s, snr_db)
        self.noise = samplers.NoiseSpec(config.noise_kind, sigma2, config.p,
                                        lam=config.noise_lam)
        self.model = doa.ULAModel(config.p, config.sigma2_s, self.noise)
        self.theta0 = float(config.theta0[0])
        self._config = config

    def synthesize(self, n: int, rng) -> np.ndarray:
        return samplers.synthesize_doa(self._config.p, self.theta0,
                                       self._config.sigma2_s, self.noise, n, rng)

    def baseline(self, name: str) -> Callable:
        if name == "gqmle":
            return lambda x: doa.bartlett_doa(x, self.model,
                                              self._config.k_theta)
        raise ValueError(name)

    def fitter(self, x: np.ndarray) -> Callable:
        return doa.mt_fitter_doa(x, self.model, self._config.k_theta)

    def asymptotic_trace(self, omega: float, n: int) -> float:
        return doa.asymptotic_mse_doa(self.model, self.theta0, omega, n)


_APPLICATIONS = {"regression": _Regression, "doa": _DOA}


def _runner(app, name: str, config: ExperimentConfig, omega_policy
            ) -> Callable:
    """x -> (theta_hat, selection), where selection is (omega_opt, its
    empirical asymptotic MSE trace) for mt-gqmle and None otherwise. A fixed
    omega is a one-candidate selection."""
    if name != "mt-gqmle":
        estimate = app.baseline(name)
        return lambda x: (estimate(x), None)
    omegas = (config.omega_candidates() if omega_policy == "select"
              else [float(omega_policy)])

    def run(x):
        sel = asymptotics.select_by_trace(omegas, app.fitter(x))
        return sel.best_estimate, (sel.omega_opt, float(np.nanmin(sel.traces)))

    return run


def run_experiment(config: ExperimentConfig) -> ResultTable:
    """Run the configured sweep; deterministic for a fixed config and seed.

    A trial where an estimator raises or returns a non-finite estimate is
    recorded as a failure for that estimator and excluded from its average.
    The mt-gqmle asymptotic columns are evaluated at the width trial 0's
    selection picked, or at the fixed omega. The empirical trace is NaN when
    trial 0's call failed, and so is the closed-form one under selection.
    The closed-form trace alone is NaN when it raises ValueError at that
    width, e.g. when a texture expectation underflows.
    """
    theta0 = np.asarray(config.theta0, dtype=float)
    rows = []
    for sweep_idx, sweep_value in enumerate(config.sweep_values):
        snr_db = float(sweep_value) if config.sweep_axis == "snr" else config.snr_db
        n = int(sweep_value) if config.sweep_axis == "n" else config.n_samples
        omega_policy = (float(sweep_value) if config.sweep_axis == "omega"
                        else config.omega)
        app = _APPLICATIONS[config.application](config, snr_db)
        runners = {name: _runner(app, name, config, omega_policy)
                   for name in config.estimators}
        sq_err = {name: [] for name in config.estimators}
        failures = {name: 0 for name in config.estimators}
        seconds = {name: 0.0 for name in config.estimators}
        # (omega, empirical trace) of trial 0
        picked = (None if omega_policy == "select"
                  else (float(omega_policy), np.nan))
        for trial in range(config.trials):
            rng = samplers.stream_rng(config.seed,
                                      sweep_idx * config.trials + trial)
            x = app.synthesize(n, rng)
            for name, run in runners.items():
                start = time.perf_counter()
                try:
                    theta, selection = run(x)
                    theta = np.asarray(theta, dtype=float).ravel()
                    if not np.all(np.isfinite(theta)):
                        raise ValueError("non-finite estimate")
                except ValueError:
                    failures[name] += 1
                    continue
                finally:
                    seconds[name] += time.perf_counter() - start
                if trial == 0 and selection is not None:
                    picked = selection
                sq_err[name].append(float(np.sum((theta - theta0) ** 2)))

        for name in config.estimators:
            asym = np.nan
            emp_asym = np.nan
            if name == "mt-gqmle" and picked is not None:
                omega, emp_asym = picked
                with contextlib.suppress(ValueError):  # a NaN cell
                    asym = app.asymptotic_trace(omega, n)
            ok = len(sq_err[name])
            rows.append(ResultRow(
                sweep_value=float(sweep_value),
                estimator=name,
                empirical_mse=float(np.mean(sq_err[name])) if ok else np.nan,
                asymptotic_mse_trace=float(asym),
                empirical_asymptotic_mse_trace=float(emp_asym),
                failures=failures[name],
                trials=config.trials,
                mean_seconds=seconds[name] / config.trials))
    return ResultTable(rows=rows)


_CSV_COLUMNS = ("sweep_value", "estimator", "empirical_mse",
                "asymptotic_mse_trace", "empirical_asymptotic_mse_trace",
                "failures", "trials")


def emit_csv(table: ResultTable, path, include_timing: bool = False) -> None:
    """Write the table as UTF-8 CSV with 12 significant digits.

    Timing is excluded by default so that two runs with the same config and
    seed produce byte-identical files.
    """
    columns = _CSV_COLUMNS + (("mean_seconds",) if include_timing else ())
    lines = [",".join(columns)]
    for row in table.rows:
        cells = []
        for col in columns:
            val = getattr(row, col)
            if isinstance(val, str):
                cells.append(val)
            elif isinstance(val, int):
                cells.append(str(val))
            else:
                cells.append(f"{val:.12g}")
        lines.append(",".join(cells))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_csv(path) -> list:
    """Parse a file written by emit_csv back into dictionaries."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    header = lines[0].split(",")
    out = []
    for ln in lines[1:]:
        cells = ln.split(",")
        rec = {}
        for key, cell in zip(header, cells):
            if key == "estimator":
                rec[key] = cell
            elif key in ("failures", "trials"):
                rec[key] = int(cell)
            else:
                rec[key] = float(cell)
        out.append(rec)
    return out


def timing_report(config: ExperimentConfig) -> list:
    """Mean wall seconds per estimator call at the first sweep value.

    Comparative only; absolute numbers are machine dependent.
    """
    table = run_experiment(replace(config,
                                   sweep_values=[config.sweep_values[0]]))
    return [(row.estimator, row.mean_seconds, row.trials - row.failures)
            for row in table.rows]
