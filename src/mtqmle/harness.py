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
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import asymptotics, baselines, doa, regression, samplers
from .exceptions import MTQMLEError
from .transform import width_squared


_TUKEY_ARE = 0.95                 # efficiency the bi-square cutoff is tuned to


@functools.lru_cache(maxsize=8)
def _tuned_tukey_c(p: int) -> float:
    return baselines.tune_c_for_are(_TUKEY_ARE, p)

_ESTIMATORS = {"regression": ("mt-gqmle", "gqmle", "tukey", "mle"),
               "doa": ("mt-gqmle", "gqmle")}
_SWEEP_AXES = ("omega", "snr", "n")
_INT_LEAST = {"trials": 1, "seed": None, "n_samples": 1, "p": None, "k_theta": 2}


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

    def __post_init__(self):
        if self.application not in tuple(_ESTIMATORS):
            raise ValueError(f"unknown application {self.application!r}")
        if self.sweep_axis not in _SWEEP_AXES:
            raise ValueError(f"sweep axis must be one of {_SWEEP_AXES}")
        for key in ("estimators", "sweep_values"):
            value = getattr(self, key)
            if not isinstance(value, list):
                raise ValueError(f"{key} must be a list, got {value!r}")
            if not value:
                raise ValueError(f"{key} must be nonempty")
        # key: (entries, list length or None, must be finite). json reads NaN,
        # +-Infinity and huge ints; widths keep width_squared's message.
        reals = {"theta0": (self.theta0, 1 if self.application == "doa" else 4, True),
                 "angles": (self.angles, 2, True),
                 "omega_grid": (self.omega_grid, 3, False),
                 "snr_db": ([self.snr_db], None, True),
                 "sigma2_s": ([self.sigma2_s], None, True),
                 "noise_lam": ([] if self.noise_lam is None else [self.noise_lam], None, True),
                 "omega": ([] if self.omega == "select" else [self.omega], None, False),
                 "sweep_values": (self.sweep_values, None, self.sweep_axis == "snr")}
        floats = {}
        for key, (values, length, finite) in reals.items():
            if length is not None and not (isinstance(values, list) and len(values) == length):
                where = "" if key == "omega_grid" else f" for {self.application}"
                raise ValueError(f"{key} must be a list of length {length}{where}")
            if any(isinstance(v, bool) or not isinstance(    # a bool is not a number
                    v, (int, float, np.integer, np.floating)) for v in values):
                raise ValueError(f"{key} must be real, got {getattr(self, key)!r}")
            try:
                floats[key] = [float(v) for v in values]
            except OverflowError:            # an int too large for a float
                floats[key] = None
            if floats[key] is None or (finite and not np.all(np.isfinite(floats[key]))):
                raise ValueError(f"{key} must be finite, got {getattr(self, key)!r}")
        allowed = _ESTIMATORS[self.application]
        for name in self.estimators:
            if name not in allowed:
                raise ValueError(f"unknown estimator {name!r} for "
                                 f"{self.application}; allowed: {allowed}")
        if len(set(self.estimators)) < len(self.estimators):
            raise ValueError(f"estimators must not repeat a name: {self.estimators}")
        if self.p is None:
            self.p = 10 if self.application == "regression" else 4
        for key, least in _INT_LEAST.items():
            value = getattr(self, key)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{key} must be an integer, got {value!r}")
            if least is not None and value < least:
                raise ValueError(f"{key} must be >= {least}")
        if self.sweep_axis == "n" and not all(
                v.is_integer() and v >= 1 for v in floats["sweep_values"]):
            raise ValueError("sweep_values of axis 'n' must be integers >= 1")
        lo, hi, count = floats["omega_grid"]
        swept = floats["sweep_values"] if self.sweep_axis == "omega" else []
        for w in [lo, hi] + floats["omega"] + swept:
            width_squared(w)
        if not (count.is_integer() and count >= 1):
            raise ValueError("omega_grid count must be an integer >= 1")

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ValueError(f"config must be a JSON object, got {type(raw).__name__}")
        unknown = set(raw) - set(cls.__dataclass_fields__)
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


# --- per-application plumbing -------------------------------------------------
# Synthesis, baselines, the per-dataset fitter x -> fit that every mt-gqmle
# call selects over (see select_by_trace), the closed-form trace.

class _Regression:
    def __init__(self, config: ExperimentConfig, snr_db: float):
        probe = regression.build_steering_regressors(
            config.p, *config.angles, samplers.NoiseSpec("gaussian", 1.0, config.p))
        sigma2 = samplers.regression_sigma2_for_snr_db(probe.a_matrix, snr_db)
        self.noise = samplers.NoiseSpec(config.noise_kind, sigma2, config.p,
                                        lam=config.noise_lam)
        self.model = regression.RegressionModel(probe.a_matrix, self.noise)
        self.alpha0 = regression.unrealify(config.theta0)
        self._config = config

    def synthesize(self, n: int, rng) -> np.ndarray:
        return samplers.synthesize_regression(self.model.a_matrix, self.alpha0,
                                              self.noise, n, rng)

    def baseline(self, name: str) -> Callable:
        if name == "tukey":
            c = _tuned_tukey_c(self._config.p)
            return lambda x: baselines.tukey_m_estimator(x, self.model, c).theta
        # the rest is "gqmle" or "mle"; the Gaussian MLE is least squares
        if name == "gqmle" or self.noise.kind == "gaussian":
            return lambda x: regression.gqmle_regression(x, self.model)
        if self.noise.kind == "t":
            return lambda x: baselines.mle_t_noise(
                x, self.model, self.noise.lam).theta
        raise ValueError("omniscient MLE is unavailable for "
                         f"{self.noise.kind!r} regression noise")

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
        return lambda x: doa.bartlett_doa(x, self.model, self._config.k_theta)

    def fitter(self, x: np.ndarray) -> Callable:
        return doa.mt_fitter_doa(x, self.model, self._config.k_theta)

    def asymptotic_trace(self, omega: float, n: int) -> float:
        return doa.asymptotic_mse_doa(self.model, self.theta0, omega, n)


_APPLICATIONS = {"regression": _Regression, "doa": _DOA}


def run_experiment(config: ExperimentConfig) -> list:
    """Run the configured sweep; deterministic for a fixed config and seed.

    Each estimator call yields one outcome (squared error or None, seconds,
    mt-gqmle's SelectionResult or None), and a row reads the outcomes of one
    (sweep value, estimator). A call that raises an MTQMLEError or returns a
    non-finite estimate fails and is left out of the average; any other
    error ends the run. The mt-gqmle asymptotic columns are taken at trial
    0's selection, or at the fixed omega (a one-candidate selection). The
    empirical trace is NaN when trial 0's call failed, and so is the
    closed-form one under selection. The closed-form trace alone is NaN when
    it raises an MTQMLEError at that width, e.g. a texture underflow.
    """
    theta0 = np.asarray(config.theta0, dtype=float)
    rows = []
    for sweep_idx, sweep_value in enumerate(config.sweep_values):
        snr_db = float(sweep_value) if config.sweep_axis == "snr" else config.snr_db
        n = int(sweep_value) if config.sweep_axis == "n" else config.n_samples
        omega_policy = sweep_value if config.sweep_axis == "omega" else config.omega
        omegas = (config.omega_candidates() if omega_policy == "select"
                  else [float(omega_policy)])
        app = _APPLICATIONS[config.application](config, snr_db)
        estimate = {name: app.baseline(name) for name in config.estimators
                    if name != "mt-gqmle"}
        outcomes = {name: [] for name in config.estimators}
        for trial in range(config.trials):
            rng = samplers.stream_rng(config.seed,
                                      sweep_idx * config.trials + trial)
            x = app.synthesize(n, rng)
            for name, calls in outcomes.items():
                start = time.perf_counter()
                error = selection = None
                try:
                    if name == "mt-gqmle":
                        selection = asymptotics.select_by_trace(
                            omegas, app.fitter(x))
                        theta = selection.best_estimate
                    else:
                        theta = estimate[name](x)
                    theta = np.asarray(theta, dtype=float).ravel()
                    if not np.all(np.isfinite(theta)):
                        raise MTQMLEError("non-finite estimate")
                    error = float(np.sum((theta - theta0) ** 2))
                except MTQMLEError:
                    selection = None
                calls.append((error, time.perf_counter() - start, selection))

        for name in config.estimators:
            calls = outcomes[name]
            errors = [err for err, _, _ in calls if err is not None]
            first = calls[0][2]                         # trial 0's selection
            emp_asym = float(np.nanmin(first.traces)) if first else np.nan
            asym = np.nan
            if name == "mt-gqmle" and (first or omega_policy != "select"):
                with contextlib.suppress(MTQMLEError):  # a NaN cell
                    asym = app.asymptotic_trace(
                        first.omega_opt if first else omegas[0], n)
            rows.append(ResultRow(
                sweep_value=float(sweep_value),
                estimator=name,
                empirical_mse=float(np.mean(errors)) if errors else np.nan,
                asymptotic_mse_trace=float(asym),
                empirical_asymptotic_mse_trace=emp_asym,
                failures=config.trials - len(errors),
                trials=config.trials,
                mean_seconds=sum(sec for _, sec, _ in calls) / config.trials))
    return rows


_CSV_COLUMNS = ("sweep_value", "estimator", "empirical_mse",
                "asymptotic_mse_trace", "empirical_asymptotic_mse_trace",
                "failures", "trials")


def emit_csv(rows: list, path) -> None:
    """Write the rows as UTF-8 CSV with 12 significant digits and no timing,
    so that two runs with the same config and seed give byte-identical files.
    """
    lines = [",".join(_CSV_COLUMNS)]
    for r in rows:
        lines.append(f"{r.sweep_value:.12g},{r.estimator},"
                     f"{r.empirical_mse:.12g},{r.asymptotic_mse_trace:.12g},"
                     f"{r.empirical_asymptotic_mse_trace:.12g},"
                     f"{r.failures},{r.trials}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
