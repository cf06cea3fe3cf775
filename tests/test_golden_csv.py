"""Golden CSV digests: the sha256 of ``emit_csv`` for four small configs.

These pin every estimator output the harness writes (empirical MSE, both
asymptotic traces, failure counts) to the last bit, so a refactor that claims
"no output changes" is checked here rather than by hand.

The digests depend on the numpy/BLAS build, since the last bits of matrix
products and linear solves do. They were recorded with numpy 2.4 on
scipy-openblas. After a deliberate output change, or on another build,
re-record them with

    PYTHONPATH=src python tests/test_golden_csv.py

and paste the printed dictionary over ``GOLDEN`` below.
"""

import hashlib

import numpy as np
import pytest

from mtqmle.harness import ExperimentConfig, emit_csv, run_experiment

_REGRESSION = dict(
    application="regression",
    noise_kind="t",
    noise_lam=0.2,
    theta0=[0.3, 0.5, 0.6, 0.8],
    estimators=["mt-gqmle", "gqmle", "tukey", "mle"],
    trials=3,
    seed=91,
    n_samples=200,
    snr_db=-5.0,
)

_DOA = dict(
    application="doa",
    noise_kind="k",
    noise_lam=0.75,
    theta0=[float(np.deg2rad(30.0))],
    estimators=["mt-gqmle", "gqmle"],
    trials=3,
    seed=92,
    n_samples=300,
    k_theta=801,
)

CONFIGS = {
    "regression-fixed": dict(_REGRESSION, sweep_axis="omega",
                             sweep_values=[2.0, 8.0]),
    "regression-select": dict(_REGRESSION, sweep_axis="snr",
                              sweep_values=[-10.0, 0.0], omega="select",
                              omega_grid=[1.0, 25.0, 6]),
    "doa-fixed": dict(_DOA, sweep_axis="snr", sweep_values=[-5.0, 5.0],
                      omega=4.0),
    "doa-select": dict(_DOA, sweep_axis="n", sweep_values=[200, 400],
                       omega="select", omega_grid=[1.0, 16.0, 4]),
}

GOLDEN = {
    "doa-fixed":
        "f71fe2cb22b8250a666cf51d000c8393789f3688e22db3d69406ce1f935631bd",
    "doa-select":
        "cf638821c703613071a0e5483aed2f4872def1991712b8e30e57b6481fa0b7d1",
    "regression-fixed":
        "cf11468c6ce5d5eb513cda73652bf21a04286de326a5579c1708af07454289ed",
    "regression-select":
        "ce105544bff516dad85c2ce6ea708cafa972d10398c049e7a52241ae0ec418b1",
}


def _digest(name, directory) -> str:
    path = directory / f"{name}.csv"
    emit_csv(run_experiment(ExperimentConfig.from_dict(CONFIGS[name])), path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_csv_digest(name, tmp_path):
    assert _digest(name, tmp_path) == GOLDEN[name]


if __name__ == "__main__":
    import pathlib
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        print({name: _digest(name, pathlib.Path(tmp))
               for name in sorted(CONFIGS)})
