"""mtqmle needs numpy alone: the package, the command line and every config,
the ``tukey`` estimator and its ARE-tuned cutoff included, and README's
library example run without scipy."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

RUN_SELECT_CONFIGS = """
import mtqmle, mtqmle.cli
from mtqmle.harness import ExperimentConfig, run_experiment

doa = ExperimentConfig.from_dict(dict(
    application="doa", noise_kind="k", noise_lam=0.75,
    theta0=[0.5235987755982988], estimators=["mt-gqmle", "gqmle"],
    sweep_axis="snr", sweep_values=[-5.0], trials=2, seed=2, n_samples=400,
    omega="select", omega_grid=[1.0, 30.0, 6], p=4, k_theta=801))
reg = ExperimentConfig.from_dict(dict(
    application="regression", noise_kind="t", noise_lam=0.2,
    theta0=[0.3, 0.5, 0.6, 0.8],
    estimators=["mt-gqmle", "gqmle", "mle", "tukey"],
    sweep_axis="snr", sweep_values=[-10.0], trials=2, seed=1,
    n_samples=300, omega="select", omega_grid=[1.0, 30.0, 6], p=10))
for cfg in (doa, reg):
    rows = run_experiment(cfg)
    assert len(rows) == len(cfg.estimators), cfg.application
    assert all(r.failures == 0 for r in rows), cfg.application

from mtqmle.baselines import tune_c_for_are
assert tune_c_for_are(0.95, 10) == 6.212890625
"""


def _python(code: str) -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_select_configs_run_with_scipy_blocked():
    _python("import sys\nsys.modules['scipy'] = None\n" + RUN_SELECT_CONFIGS)


def test_select_configs_do_not_import_scipy():
    _python("import sys\n" + RUN_SELECT_CONFIGS
            + "assert 'scipy' not in sys.modules, 'scipy was imported'\n")


def test_readme_library_example_runs_with_scipy_blocked():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    section = readme.split("## Library example", 1)[1]
    example = section.split("```python\n", 1)[1].split("```", 1)[0]
    _python("import sys\nsys.modules['scipy'] = None\n" + example
            + "assert sel.omega_opt in sel.omegas\n"
            "assert theta_hat.shape == (4,) and np.all(np.isfinite(theta_hat))\n")
