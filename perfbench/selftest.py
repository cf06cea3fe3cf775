"""Tests of the benchmark's own machinery.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these tests out of the repository's default pytest
collection; they start worker processes and take about half a minute.
"""

import importlib
import inspect
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _span(name, start, end, parent):
    return (name, start, end, parent, 0, "rounds", None, None)


def test_self_time_subtracts_nested_children():
    spans = [_span("doa.estimate_doa", 0.0, 10.0, -1),
             _span("doa.mt_spectrum", 1.0, 3.0, 0),
             _span("core.as_dataset", 1.5, 2.5, 1),
             _span("doa.steering_grid", 4.0, 6.0, 0)]
    assert tracer.self_times(spans) == pytest.approx([6.0, 1.0, 1.0, 2.0])


def _attributes():
    """Every attribute of every mtqmle module and of the classes they define."""
    names = ["mtqmle", "mtqmle.cli"] + [f"mtqmle.{l}" for l in tracer.LAYERS]
    out = {}
    for name in names:
        module = importlib.import_module(name)
        for attr, obj in vars(module).items():
            out[(name, attr)] = obj
            if inspect.isclass(obj) and obj.__module__.startswith("mtqmle"):
                for meth, fn in vars(obj).items():
                    out[(name, attr, meth)] = fn
    return out


def test_uninstall_restores_every_patched_attribute():
    import mtqmle
    from mtqmle import core, doa, transform

    before = _attributes()
    t = tracer.Tracer()
    t.install()
    try:
        assert core.as_dataset.__wrapped__ is \
            before[("mtqmle.core", "as_dataset")]
        assert doa.as_dataset.__wrapped__ is before[("mtqmle.core", "as_dataset")]
        assert transform.MTFunction.log_weights.__wrapped__ is \
            before[("mtqmle.transform", "MTFunction", "log_weights")]
        assert mtqmle.select_mt_parameter.__wrapped__ is \
            before[("mtqmle", "select_mt_parameter")]
        changed = [k for k, v in _attributes().items() if before.get(k) is not v]
        assert len(changed) > 100
    finally:
        t.uninstall()
    after = _attributes()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []


def test_traced_calls_are_recorded_with_parents():
    from mtqmle import doa, samplers

    t = tracer.Tracer()
    t.install()
    try:
        noise = samplers.NoiseSpec("gaussian", 1.0, 4)
        x = samplers.synthesize_doa(4, 0.5, 1.0, noise, 50,
                                    samplers.stream_rng(0, 0))
        doa.estimate_doa(x, doa.ULAModel(4, 1.0, noise), 2.0, 101)
    finally:
        t.uninstall()
    names = [s[0] for s in t.spans]
    scan = names.index("doa.estimate_doa")
    assert t.spans[scan][3] == -1 and t.spans[scan][4] == 0
    assert t.spans[scan][7] == (101, 4)
    assert t.spans[names.index("doa.mt_spectrum")][3] == scan
    assert "doa.steering_grid" in names and "core.as_dataset" in names


def test_gate_rejects_a_perturbed_csv():
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
        expected = json.load(fh)["regression-select"]
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    wl = workloads.make("regression-select", ROOT, out_dir, 0)
    golden = wl.golden()
    assert workloads.gate_mismatches(golden, expected) == []

    with open(wl._paths["gate"][1], "rb") as fh:
        csv_bytes = fh.read()
    row = csv_bytes.split(b"\n")[1]
    value = row.split(b",")[2]
    digit = value[-1:]
    perturbed = csv_bytes.replace(row, row.replace(
        value, value[:-1] + (b"1" if digit != b"1" else b"2")), 1)
    assert perturbed != csv_bytes
    forged = {**golden, "csv_sha256": wl.fingerprint(perturbed)}
    assert workloads.gate_mismatches(forged, expected) == ["csv_sha256"]

    nan_row = csv_bytes.replace(row, row.replace(value, b"nan"), 1)
    assert wl.failed_calls(nan_row) == wl.config.trials
    assert wl.failed_calls(csv_bytes) == 0


def _traced_run(workload):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), "--mode", "measure",
         "--workload", workload, "--seed", "3", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["doa-select", "regression-sweep"])
def test_per_trial_counts_repeat_exactly(workload):
    first, second = _traced_run(workload), _traced_run(workload)
    assert first["correct"] and second["correct"]
    exact = [m for m, v in first["layers"].items()
             if v["unit"] in ("count/trial", "flop/trial", "B/trial")
             or m.endswith("_frac") or m.endswith("_ratio")]
    assert "doa.steering_grid.calls" in exact
    assert {m: first["layers"][m]["value"] for m in exact} == \
        {m: second["layers"][m]["value"] for m in exact}
    if workload == "doa-select":
        assert first["layers"]["doa.steering_grid.calls"]["value"] > 0
    else:
        assert first["layers"]["baselines.fixed_point.iters"]["value"] > 0


def test_run_lists_the_workloads_worker_knows():
    assert run.WORKLOADS == tuple(workloads.WORKLOADS)
