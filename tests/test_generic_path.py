"""Pinned outputs of ``select_mt_parameter`` on the generic model path.

The harness never runs this path (its fitters use the closed forms), so
``test_golden_csv.py`` does not see it. Two fixed streams pin the selected
width exactly, the estimate to 12 significant digits and each candidate's
sandwich trace to rtol 1e-12:

- regression (t noise) through the moment model's closed-form solver;
- DOA (K noise) through the exhaustive grid search.

The traces get a tolerance because reordered arithmetic in the score and
Hessian moves their last bits. They were recorded with numpy 2.4 on
scipy-openblas; on another build, or after a deliberate output change,
re-record them with

    PYTHONPATH=src python tests/test_generic_path.py
"""

import numpy as np
import pytest

from mtqmle.asymptotics import select_mt_parameter
from mtqmle.doa import ULAModel, doa_moment_model
from mtqmle.regression import (build_steering_regressors, projected_mt_function,
                               regression_moment_model, unrealify)
from mtqmle.samplers import (NoiseSpec, stream_rng, synthesize_doa,
                             synthesize_regression)
from mtqmle.transform import gaussian_mt_function


def _regression():
    model = build_steering_regressors(10, np.pi / 3, np.pi / 6,
                                      NoiseSpec("t", 10.0, 10, lam=0.2))
    x = synthesize_regression(model.a_matrix, unrealify([0.3, 0.5, 0.6, 0.8]),
                              model.noise, 500, stream_rng(51, 0))
    return select_mt_parameter(
        x, lambda om: projected_mt_function(model, om), [2.0, 4.0, 8.0, 16.0],
        lambda data, u: regression_moment_model(model, data, u))


def _doa():
    ula = ULAModel(4, 1.0, NoiseSpec("k", 10 ** 1.5, 4, lam=0.75))
    x = synthesize_doa(4, 0.5, 1.0, ula.noise, 400, stream_rng(52, 0))
    return select_mt_parameter(
        x, gaussian_mt_function, [1.0, 3.0, 10.0],
        lambda data, u: doa_moment_model(ula, data, u.params["width"],
                                         k_theta=181, use_solver=False))


RUNS = {"regression-solver": _regression, "doa-grid": _doa}

GOLDEN = {
    'doa-grid': dict(
        omega_opt=3.0,
        theta=[0.5054843719672446],
        traces=[0.0003805917835959362, 0.00026515886014670314, 0.0019640097811974492]),
    'regression-solver': dict(
        omega_opt=4.0,
        theta=[0.358245108347739, 0.6037148760625655, 0.5267346733780061, 0.584655962481937],
        traces=[0.13568981231245003, 0.10206999786659067, 0.12145745814856734, 0.2047273414509348]),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_generic_selection_pinned(name):
    sel = RUNS[name]()
    want = GOLDEN[name]
    assert sel.omega_opt == want["omega_opt"]
    np.testing.assert_allclose(sel.best_estimate.theta, want["theta"],
                               rtol=1e-12, atol=0)
    np.testing.assert_allclose(sel.traces, want["traces"], rtol=1e-12, atol=0)


if __name__ == "__main__":
    for name, run in sorted(RUNS.items()):
        sel = run()
        print(f"    {name!r}: dict(\n"
              f"        omega_opt={sel.omega_opt!r},\n"
              f"        theta={[float(t) for t in sel.best_estimate.theta]!r},\n"
              f"        traces={[float(t) for t in sel.traces]!r}),")
