"""Span tracing of the mtqmle layers, installed from outside the package.

The layers are the package modules listed in ``LAYERS``. ``Tracer.install``
replaces every public function and public method those modules define with a
wrapper that records one span per call, and installs each wrapper at every
module attribute that refers to the original, because several modules import
functions by name (``doa`` calls its own ``as_dataset`` binding, not
``core.as_dataset``). ``Tracer.uninstall`` puts every original back.

A span is ``(name, start, end, parent, trial, phase, exc, extra)``:
``parent`` indexes the enclosing span (-1 at top level), ``trial`` is the
Monte Carlo trial the span belongs to, ``exc`` names the exception the call
raised and ``extra`` holds what a probe read from the call's arguments or
result. Spans stay in memory until ``write_jsonl``.

This module imports nothing outside the standard library, so importing it does
not count towards a worker's set-up time.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time

LAYERS = ("samplers", "core", "transform", "estimator", "asymptotics",
          "regression", "doa", "baselines", "harness")

# Modules whose attributes are patched but whose own functions are not
# layers: the package namespace and the CLI entry point re-export or import
# layer functions by name.
_PATCH_ONLY = ("mtqmle", "mtqmle.cli")

# Private harness methods that run only after a sweep value's last trial.
_EPILOGUE_METHODS = ("omega_used", "asymptotic_trace",
                     "empirical_asymptotic_trace")

# Functions that synthesize one Monte Carlo dataset.
_SYNTHESIZE = ("samplers.synthesize_regression", "samplers.synthesize_doa")


def _scan_probe(bound, result):
    args = bound.arguments
    if "grid" in args:                       # mt_spectrum returns the curve
        grid_points = int(result.thetas.size)
    else:
        grid_points = int(args["k_theta"])
    return (grid_points, int(args["model"].p))


def _fixed_point_probe(bound, result):
    return (int(result.n_iter), bool(result.converged))


def _selection_probe(bound, result):
    traces = result.traces
    kept = sum(1 for t in traces if t == t and abs(t) != float("inf"))
    return (kept, len(traces))


# name -> probe(bound_arguments, result) -> extra stored on the span
PROBES = {
    "doa.estimate_doa": _scan_probe,
    "doa.mt_spectrum": _scan_probe,
    "doa.bartlett_doa": _scan_probe,
    "baselines.tukey_m_estimator": _fixed_point_probe,
    "baselines.mle_t_noise": _fixed_point_probe,
    "asymptotics.select_mt_parameter": _selection_probe,
}


def _layer_targets(module, layer):
    """(owner, attribute, span name) for each function the layer defines."""
    targets = []
    for attr, obj in vars(module).items():
        if inspect.isfunction(obj) and not attr.startswith("_") \
                and obj.__module__ == module.__name__:
            targets.append((module, attr, f"{layer}.{attr}"))
        elif inspect.isclass(obj) and obj.__module__ == module.__name__:
            for meth, fn in vars(obj).items():
                if not inspect.isfunction(fn):
                    continue
                public = not meth.startswith("_")
                epilogue = layer == "harness" and meth in _EPILOGUE_METHODS
                if public or epilogue:
                    targets.append((obj, meth, f"{layer}.{obj.__name__}.{meth}"))
    return targets


class Tracer:
    """Records spans of the mtqmle layers while installed.

    ``synth_per_trial`` is how many ``samplers.synthesize_*`` calls make one
    Monte Carlo trial; the trial id advances with them. ``phase`` labels
    spans by benchmark stage ("setup", "gate", "rounds").
    """

    def __init__(self, synth_per_trial: int = 1):
        self.synth_per_trial = synth_per_trial
        self.spans = []
        self.phase = "setup"
        self.trial = -1
        self._synth_calls = 0
        self._stack = []
        self._patches = []          # (owner, attribute, original)

    # --- wrapping ------------------------------------------------------------

    def _wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        probe = PROBES.get(name)
        signature = inspect.signature(fn) if probe else None
        synthesize = name in _SYNTHESIZE
        tracer = self

        def wrapper(*args, **kwargs):
            if synthesize:
                tracer._synth_calls += 1
                tracer.trial = (tracer._synth_calls - 1) // tracer.synth_per_trial
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            exc = None
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as err:
                exc = type(err).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                extra = None
                if probe is not None and exc is None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    extra = probe(bound, result)
                spans[index] = (name, start, end, parent, tracer.trial,
                                tracer.phase, exc, extra)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def install(self) -> None:
        """Wrap every layer function at every module attribute naming it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}                      # id(original) -> wrapper
        for layer in LAYERS:
            module = importlib.import_module(f"mtqmle.{layer}")
            for owner, attr, name in _layer_targets(module, layer):
                fn = vars(owner)[attr]
                wrapper = self._wrap(name, fn)
                wrappers[id(fn)] = wrapper
                self._patches.append((owner, attr, fn))
                setattr(owner, attr, wrapper)
        for modname in _PATCH_ONLY + tuple(f"mtqmle.{l}" for l in LAYERS):
            module = importlib.import_module(modname)
            for attr, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None and inspect.isfunction(obj):
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every patched attribute, last patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self._stack.clear()

    def write_jsonl(self, path) -> None:
        keys = ("name", "start", "end", "parent", "trial", "phase", "exc",
                "extra")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


# --- span arithmetic ---------------------------------------------------------

def self_times(spans) -> list:
    """Each span's duration minus the durations of its child spans.

    Spans come from one single-threaded call stack, so the children of a
    span are disjoint and lie inside it.
    """
    out = [span[2] - span[1] for span in spans]
    for span in spans:
        if span[3] >= 0:
            out[span[3]] -= span[2] - span[1]
    return out


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def short_name(name: str) -> str:
    return name.rsplit(".", 1)[-1]


# --- per-layer metrics ---------------------------------------------------------
#
# Counts and self seconds are per traced trial, from spans of the "rounds"
# phase; "setup" entries are per process, from the traced warm-up. A group's
# self time is the sum of the self times of the spans it names.

_SYNTH = ("samplers.stream_rng", "samplers.synthesize_regression",
          "samplers.synthesize_doa", "samplers.sample_noise",
          "samplers.sample_complex_gaussian", "samplers.sample_texture",
          "samplers.sample_bpsk")
_SCANS = ("doa.estimate_doa", "doa.mt_spectrum", "doa.bartlett_doa")
_FIXED_POINTS = ("baselines.tukey_m_estimator", "baselines.mle_t_noise")

# metric -> (kind, span names)
GROUPS = {
    "samplers.synthesize.self_s": ("self", _SYNTH),
    "samplers.texture_expectation.calls": ("calls", ("samplers.texture_expectation",)),
    "samplers.texture_expectation.self_s": ("self", ("samplers.texture_expectation",)),
    "core.as_dataset.calls": ("calls", ("core.as_dataset",)),
    "core.as_dataset.self_s": ("self", ("core.as_dataset",)),
    "core.cholesky_pd.calls": ("calls", ("core.cholesky_pd",)),
    "core.cholesky_pd.self_s": ("self", ("core.cholesky_pd",)),
    "transform.log_weights.calls": ("calls", ("transform.MTFunction.log_weights",)),
    "transform.log_weights.self_s": ("self", ("transform.MTFunction.log_weights",)),
    "transform.empirical_mt_moments.calls": ("calls", ("transform.empirical_mt_moments",)),
    "transform.empirical_mt_moments.self_s": ("self", ("transform.empirical_mt_moments",)),
    "transform.gaussian_mt_function.calls": ("calls", ("transform.gaussian_mt_function",)),
    "transform.gaussian_mt_function.self_s": ("self", ("transform.gaussian_mt_function",)),
    "estimator.objective_j_u.calls": ("calls", ("estimator.objective_j_u",)),
    "estimator.objective_j_u.self_s": ("self", ("estimator.objective_j_u",)),
    "estimator.estimate_mt_gqmle.self_s": ("self", ("estimator.estimate_mt_gqmle",)),
    "asymptotics.sandwich.calls": ("calls", ("asymptotics.sandwich",)),
    "asymptotics.sandwich.self_s": ("self", ("asymptotics.sandwich",)),
    "asymptotics.psi_gamma.self_s": ("self", ("asymptotics.psi_u_batch",
                                              "asymptotics.gamma_u_batch")),
    "regression.empirical_asymptotic_mse_regression.calls":
        ("calls", ("regression.empirical_asymptotic_mse_regression",)),
    "regression.empirical_asymptotic_mse_regression.self_s":
        ("self", ("regression.empirical_asymptotic_mse_regression",)),
    "regression.mt_gqmle_regression.self_s": ("self", ("regression.mt_gqmle_regression",)),
    "regression.asymptotic_mse_regression.self_s":
        ("self", ("regression.asymptotic_mse_regression",
                  "regression.mean_weight_regression")),
    "regression.regression_moment_model.self_s":
        ("self", ("regression.regression_moment_model",
                  "regression.fit_noise_cov_scalars")),
    "doa.steering_grid.calls": ("calls", ("doa.steering_grid",)),
    "doa.steering_grid.self_s": ("self", ("doa.steering_grid",)),
    "doa.scan.self_s": ("self", _SCANS),
    "doa.empirical_asymptotic_mse_doa.calls": ("calls", ("doa.empirical_asymptotic_mse_doa",)),
    "doa.empirical_asymptotic_mse_doa.self_s": ("self", ("doa.empirical_asymptotic_mse_doa",)),
    "doa.asymptotic_mse_doa.self_s": ("self", ("doa.asymptotic_mse_doa",)),
    "doa.doa_moment_model.self_s": ("self", ("doa.doa_moment_model",
                                             "doa.fit_spectrum_cov_scalars")),
    "baselines.tukey_m_estimator.self_s":
        ("self", ("baselines.tukey_m_estimator", "baselines.tukey_weights",
                  "baselines.tukey_loss", "baselines.mad_scale")),
    "baselines.mle_t_noise.self_s": ("self", ("baselines.mle_t_noise",)),
    "baselines.tune_c_for_are.self_s": ("setup", ("baselines.tune_c_for_are",
                                                  "baselines.are_tukey")),
    "harness.run_experiment.self_s": ("self", ("harness.run_experiment",)),
}

UNITS = {"calls": "count/trial", "self": "s/trial", "setup": "s"}

# Metrics computed from probes and exceptions, with their units.
DERIVED_UNITS = {
    "transform.degenerate_frac": "fraction",
    "asymptotics.candidates_kept_ratio": "fraction",
    "doa.scan.grid_points": "count/trial",
    "doa.scan.flops_computed": "flop/trial",
    "doa.scan.bytes_computed": "B/trial",
    "baselines.fixed_point.iters": "count/trial",
    "baselines.not_converged_frac": "fraction",
    "harness.epilogue_s": "s/trial",
}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(spans, trials: int) -> dict:
    """Per-layer metrics: name -> {"value", "unit", "samples"}."""
    selfs = self_times(spans)
    by_name = {}
    for index, span in enumerate(spans):
        by_name.setdefault((span[5], span[0]), []).append(index)

    def indices(phase, names):
        return [i for n in names for i in by_name.get((phase, n), ())]

    out = {}
    for metric, (kind, names) in GROUPS.items():
        phase = "setup" if kind == "setup" else "rounds"
        idx = indices(phase, names)
        total = len(idx) if kind == "calls" else sum(selfs[i] for i in idx)
        out[metric] = {"value": total if kind == "setup" else _ratio(total, trials),
                       "unit": UNITS[kind],
                       "samples": 1 if kind == "setup" else trials}
    for layer in LAYERS:
        total = sum(selfs[i] for i, s in enumerate(spans)
                    if s[5] == "rounds" and layer_of(s[0]) == layer)
        out[f"{layer}.self_s"] = {"value": _ratio(total, trials),
                                  "unit": "s/trial", "samples": trials}

    def derived(metric, value, samples):
        out[metric] = {"value": value, "unit": DERIVED_UNITS[metric],
                       "samples": samples}

    weights = indices("rounds", ("transform.mt_weights",))
    degenerate = sum(1 for i in weights if spans[i][6] == "DegenerateWeights")
    derived("transform.degenerate_frac", _ratio(degenerate, len(weights)),
            len(weights))

    selections = [spans[i][7] for i in
                  indices("rounds", ("asymptotics.select_mt_parameter",))
                  if spans[i][7] is not None]
    derived("asymptotics.candidates_kept_ratio",
            _ratio(sum(k for k, _ in selections), sum(n for _, n in selections)),
            sum(n for _, n in selections))

    scan_names = set(_SCANS)
    outer_scans = []
    for i in indices("rounds", _SCANS):
        parent = spans[i][3]
        while parent >= 0 and spans[parent][0] not in scan_names:
            parent = spans[parent][3]
        if parent < 0 and spans[i][7] is not None:
            outer_scans.append(spans[i][7])
    # a^H C a per grid point: C a and the inner product, p(p+1) complex
    # multiply-adds of 8 flops; bytes of the (G, p) complex steering matrix
    # read and the G real spectrum values written
    derived("doa.scan.grid_points",
            _ratio(sum(g for g, _ in outer_scans), trials), len(outer_scans))
    derived("doa.scan.flops_computed",
            _ratio(sum(8 * g * p * (p + 1) for g, p in outer_scans), trials),
            len(outer_scans))
    derived("doa.scan.bytes_computed",
            _ratio(sum(g * (16 * p + 8) for g, p in outer_scans), trials),
            len(outer_scans))

    fixed = [spans[i][7] for i in indices("rounds", _FIXED_POINTS)
             if spans[i][7] is not None]
    derived("baselines.fixed_point.iters",
            _ratio(sum(n for n, _ in fixed), trials), len(fixed))
    derived("baselines.not_converged_frac",
            _ratio(sum(1 for _, ok in fixed if not ok), len(fixed)), len(fixed))

    epilogue = [s for s in spans if s[5] == "rounds"
                and layer_of(s[0]) == "harness"
                and short_name(s[0]) in _EPILOGUE_METHODS]
    derived("harness.epilogue_s",
            _ratio(sum(s[2] - s[1] for s in epilogue), trials), len(epilogue))
    return out
