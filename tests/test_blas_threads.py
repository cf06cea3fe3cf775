"""The weighted means, and so every estimate built on them, do not depend on
the BLAS thread count: the same streams give the same bits at
OPENBLAS_NUM_THREADS=1 and 2, each run in its own interpreter because
OpenBLAS reads the setting once, at import."""

import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

# Prints float.hex of the Gaussian-weighted moments at two shapes, of one
# 30-width regression fitter selection and of mle_t_noise's estimate.
PROBE = """
import numpy as np
from mtqmle.asymptotics import select_by_trace
from mtqmle.baselines import mle_t_noise
from mtqmle.regression import build_steering_regressors, mt_fitter_regression
from mtqmle.samplers import NoiseSpec, stream_rng, synthesize_regression
from mtqmle.transform import empirical_mt_moments, gaussian_mt_function

def show(*arrays):
    for a in arrays:
        a = np.asarray(a)
        parts = [a.real, a.imag] if np.iscomplexobj(a) else [a]
        print(" ".join(float(v).hex() for part in parts for v in part.ravel()))

rng = np.random.default_rng(7)
for n, p, omega in [(1000, 10, 4.0), (5000, 4, 2.5)]:
    x = rng.standard_normal((n, p)) + 1j * rng.standard_normal((n, p))
    m = empirical_mt_moments(x, gaussian_mt_function(omega))
    show(m.weights, m.mt_mean, m.mt_cov)
reg = build_steering_regressors(10, np.pi / 3, np.pi / 6,
                                NoiseSpec("t", 10.0, 10, lam=0.2))
x = synthesize_regression(reg.a_matrix, np.array([0.3 + 0.6j, 0.5 + 0.8j]),
                          reg.noise, 1000, stream_rng(3, 0))
sel = select_by_trace(np.linspace(1.0, 30.0, 30), mt_fitter_regression(x, reg))
show([sel.omega_opt], sel.traces, sel.best_estimate)
show(mle_t_noise(x, reg, 0.2).theta)
"""


def probe(threads: int) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC),
               OPENBLAS_NUM_THREADS=str(threads))
    done = subprocess.run([sys.executable, "-c", PROBE], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_weighted_means_do_not_depend_on_blas_threads():
    one = probe(1)
    assert one.count("\n") == 10
    assert probe(2) == one
