import json

import pytest

from mtqmle import regression
from mtqmle.cli import main

from conftest import read_csv


def write_config(tmp_path, **overrides):
    raw = dict(
        application="regression",
        noise_kind="gaussian",
        theta0=[0.3, 0.5, 0.6, 0.8],
        estimators=["mt-gqmle", "gqmle"],
        sweep_axis="omega",
        sweep_values=[3.0, 9.0],
        trials=2,
        seed=11,
        n_samples=150,
        snr_db=0.0,
    )
    raw.update(overrides)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    return path


def test_run_writes_csv(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out.csv"
    code = main(["run", "--config", str(cfg), "--output", str(out)])
    assert code == 0
    assert out.exists()
    rows = read_csv(out)
    assert len(rows) == 4
    assert "wrote 4 rows" in capsys.readouterr().out


def test_run_prints_without_output(tmp_path, capsys):
    cfg = write_config(tmp_path, sweep_values=[4.0])
    assert main(["run", "--config", str(cfg)]) == 0
    printed = capsys.readouterr().out
    assert "mt-gqmle" in printed and "gqmle" in printed


def test_sweep_overrides_axis(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--config", str(cfg), "--axis", "n",
                 "--values", "100,200", "--output", str(out)])
    assert code == 0
    rows = read_csv(out)
    assert sorted({r["sweep_value"] for r in rows}) == [100.0, 200.0]


def test_negative_sweep_values_take_the_equals_form(tmp_path, capsys,
                                                    monkeypatch):
    """argparse reads a separate "-25,-20" as an option, so the help names
    the "=" form, and that form runs the same sweep as the config would."""
    monkeypatch.setenv("COLUMNS", "200")
    with pytest.raises(SystemExit):
        main(["sweep", "--help"])
    assert "--values=-25,-20" in capsys.readouterr().out
    cfg = write_config(tmp_path, omega=4.0)
    swept, ran = tmp_path / "sweep.csv", tmp_path / "run.csv"
    assert main(["sweep", "--config", str(cfg), "--axis", "snr",
                 "--values=-25,-20", "--output", str(swept)]) == 0
    cfg = write_config(tmp_path, omega=4.0, sweep_axis="snr",
                       sweep_values=[-25, -20])
    assert main(["run", "--config", str(cfg), "--output", str(ran)]) == 0
    assert swept.read_bytes() == ran.read_bytes()


def test_timing_command(tmp_path, capsys):
    cfg = write_config(tmp_path, sweep_values=[5.0], trials=1)
    assert main(["timing", "--config", str(cfg)]) == 0
    printed = capsys.readouterr().out
    assert "s/call" in printed


def test_timing_prints_every_sweep_value(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["timing", "--config", str(cfg)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [ln.split(":")[0] for ln in lines] == [
        "3 mt-gqmle", "3 gqmle", "9 mt-gqmle", "9 gqmle"]
    assert all(ln.endswith(" s/call over 2 calls") for ln in lines)


def test_timing_counts_failed_calls(tmp_path, capsys):
    """At n = 1 every mt-gqmle call fails; the mean still averages all of
    them, and the line says so."""
    cfg = write_config(tmp_path, estimators=["mt-gqmle"], sweep_axis="n",
                       sweep_values=[1])
    assert main(["run", "--config", str(cfg)]) == 0
    assert capsys.readouterr().out.endswith(" failures=2\n")
    assert main(["timing", "--config", str(cfg)]) == 0
    line, = capsys.readouterr().out.splitlines()
    assert line.startswith("1 mt-gqmle: ") and line.endswith(" over 2 calls")


DOA = dict(application="doa", noise_kind="k", noise_lam=0.75,
           theta0=[0.5235987755982988], sweep_axis="snr", sweep_values=[0.0],
           k_theta=801)


@pytest.mark.parametrize("overrides,argv", [
    (dict(trials=2.5), []),
    (dict(seed=1.5), []),
    (dict(n_samples=150.5), []),
    (dict(DOA, p=4.5), []),
    (dict(DOA, k_theta=100.5), []),
    ({}, ["--axis", "n", "--values", "100.7"]),
    # sample counts below 1
    (dict(n_samples=0), []),
    (dict(DOA, n_samples=-3), []),
    ({}, ["--axis", "n", "--values", "1,0"]),
    # an angle grid needs two points
    (dict(DOA, k_theta=1), []),
], ids=["trials", "seed", "n_samples", "p", "k_theta", "sweep-n",
        "n_samples-0", "doa-n_samples-negative", "sweep-n-0", "k_theta-1"])
def test_non_integer_config_is_an_error(tmp_path, capsys, overrides, argv):
    cfg = write_config(tmp_path, **overrides)
    command = "sweep" if argv else "run"
    assert main([command, "--config", str(cfg)] + argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_estimator_bug_is_an_error(tmp_path, capsys, monkeypatch):
    """An untyped error is not a failed call: the run ends with one error
    line and exit 1, and writes no CSV."""
    monkeypatch.setattr(regression, "gqmle_regression",
                        lambda x, model: x[:, :3] + x[:, :2])
    cfg = write_config(tmp_path)
    out = tmp_path / "out.csv"
    assert main(["run", "--config", str(cfg), "--output", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    (line,) = captured.err.splitlines()
    assert line.startswith("error:") and "broadcast" in line


def test_empty_sweep_values_return_two(tmp_path, capsys):
    cfg = write_config(tmp_path)
    code = main(["sweep", "--config", str(cfg), "--axis", "omega",
                 "--values", ","])
    assert code == 2
    assert "--values is empty" in capsys.readouterr().err


def test_bad_config_returns_nonzero(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"application": "teleportation"}))
    code = main(["run", "--config", str(path)])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_overflowing_width_returns_nonzero(tmp_path, capsys):
    cfg = write_config(tmp_path, sweep_axis="snr", sweep_values=[0.0],
                       omega=1e160)
    assert main(["run", "--config", str(cfg)]) == 1
    assert "error: omega" in capsys.readouterr().err


def test_mle_under_k_noise_is_an_error(tmp_path, capsys):
    cfg = write_config(tmp_path, noise_kind="k", noise_lam=0.75,
                       estimators=["mt-gqmle", "mle"])
    out = tmp_path / "out.csv"
    assert main(["run", "--config", str(cfg), "--output", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: omniscient MLE is unavailable for 'k' regression noise\n")
    assert not out.exists()


def test_equal_regressor_angles_are_an_error(tmp_path, capsys):
    """Equal angles give a rank-one A: no fit exists, so no CSV is written."""
    cfg = write_config(tmp_path, angles=[0.5, 0.5])
    out = tmp_path / "out.csv"
    with pytest.warns(RuntimeWarning, match="nearly equal"):
        code = main(["run", "--config", str(cfg), "--output", str(out)])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: regressor matrix must have full column rank\n")
    assert not out.exists()


@pytest.mark.parametrize("overrides,message", [
    (dict(DOA, theta0=[0.5235987755982988] * 2),
     "theta0 must be a list of length 1 for doa"),
    (dict(theta0=[0.3, 0.5, 0.6]),
     "theta0 must be a list of length 4 for regression"),
    (dict(angles=[0.5]), "angles must be a list of length 2 for regression"),
    (dict(angles=[0.5, 0.9, 1.2]),
     "angles must be a list of length 2 for regression"),
    (dict(omega_grid=[1, 30]), "omega_grid must be a list of length 3"),
    (dict(omega_grid=[1, 30, 30, 4]), "omega_grid must be a list of length 3"),
], ids=["doa-theta0-2", "regression-theta0-3", "angles-1", "angles-3",
        "omega_grid-2", "omega_grid-4"])
def test_misshapen_config_is_an_error(tmp_path, capsys, overrides, message):
    """A theta0, angles or omega_grid list of the wrong length is refused
    before any trial, instead of being broadcast, truncated, indexed past its
    end or unpacked into Python's message that names no key."""
    cfg = write_config(tmp_path, **overrides)
    out = tmp_path / "out.csv"
    assert main(["run", "--config", str(cfg), "--output", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("overrides,key", [
    (dict(snr_db="low"), "snr_db"),
    (dict(snr_db=None), "snr_db"),
    (dict(noise_kind="t", noise_lam="x"), "noise_lam"),
    (dict(noise_kind="t", noise_lam=[0.75]), "noise_lam"),
    (dict(DOA, sigma2_s="1"), "sigma2_s"),
    (dict(omega=True), "omega"),
    (dict(theta0=[0.3, 0.5, "0.6", 0.8]), "theta0"),
    (dict(angles=["a", "b"]), "angles"),
    (dict(sweep_values=[3.0, "9"]), "sweep_values"),
    (dict(omega_grid=[1, 30, True]), "omega_grid"),
], ids=["snr_db-str", "snr_db-null", "noise_lam-str", "noise_lam-list",
        "sigma2_s-str", "omega-bool", "theta0-str", "angles-str",
        "sweep_values-str", "omega_grid-bool"])
def test_non_real_config_is_an_error(tmp_path, capsys, overrides, key):
    """A real-valued field holding a string, null, list or bool is refused on
    load with one line naming its key, instead of a TypeError traceback from
    the middle of a run or, for a bool, a silent run as 0 or 1."""
    cfg = write_config(tmp_path, **overrides)
    out = tmp_path / "out.csv"
    assert main(["run", "--config", str(cfg), "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key} must be real, got ")
    assert err.count("\n") == 1 and not out.exists()


@pytest.mark.parametrize("overrides,key", [
    (dict(snr_db=float("-inf")), "snr_db"),
    (dict(snr_db=float("nan")), "snr_db"),
    (dict(sweep_axis="snr", sweep_values=[0.0, float("-inf")]),
     "sweep_values"),
    (dict(DOA, sweep_values=[float("inf")]), "sweep_values"),
    (dict(DOA, theta0=[float("nan")]), "theta0"),
    (dict(angles=[0.5, float("nan")]), "angles"),
    (dict(DOA, sigma2_s=float("inf")), "sigma2_s"),
    (dict(DOA, noise_lam=float("inf")), "noise_lam"),
    (dict(noise_kind="t", noise_lam=float("nan")), "noise_lam"),
    (dict(snr_db=10 ** 400), "snr_db"),
    (dict(DOA, angles=[0.5, -10 ** 400]), "angles"),
    (dict(sweep_axis="snr", sweep_values=[0.0], omega=10 ** 400), "omega"),
    (dict(sweep_values=[3.0, 10 ** 400]), "sweep_values"),
    (dict(omega_grid=[1, 10 ** 400, 30]), "omega_grid"),
    (dict(omega_grid=[1, 30, 10 ** 400]), "omega_grid"),
    (dict(sweep_axis="n", sweep_values=[100, 10 ** 400]), "sweep_values"),
], ids=["snr_db-ninf", "snr_db-nan", "sweep_values-ninf", "doa-sweep-inf",
        "theta0-nan", "angles-nan", "sigma2_s-inf", "noise_lam-inf",
        "noise_lam-nan", "snr_db-huge-int", "angles-huge-int",
        "omega-huge-int", "sweep-omega-huge-int", "omega_grid-bound-huge-int",
        "omega_grid-count-huge-int", "sweep-n-huge-int"])
def test_non_finite_config_is_an_error(tmp_path, capsys, overrides, key):
    """json reads NaN, Infinity, -Infinity and integers too large for a
    float. Such a value is refused on load with one line naming its key,
    instead of a ZeroDivisionError or OverflowError traceback from the SNR
    conversion or a failure whose message names something else."""
    cfg = write_config(tmp_path, **overrides)
    out = tmp_path / "out.csv"
    assert main(["run", "--config", str(cfg), "--output", str(out)]) == 1
    value = json.loads(cfg.read_text())[key]
    assert capsys.readouterr().err == (
        f"error: {key} must be finite, got {value!r}\n")
    assert not out.exists()


@pytest.mark.parametrize("overrides,message", [
    (dict(application="teleportation"), "unknown application 'teleportation'"),
    (dict(estimators=["mt-gqmle", "music"]),
     "unknown estimator 'music' for regression; "
     "allowed: ('mt-gqmle', 'gqmle', 'tukey', 'mle')"),
    (dict(DOA, estimators=["tukey"]),
     "unknown estimator 'tukey' for doa; allowed: ('mt-gqmle', 'gqmle')"),
    (dict(sweep_axis="width"), "sweep axis must be one of ('omega', 'snr', 'n')"),
    (dict(sweep_values=[]), "sweep_values must be nonempty"),
    (dict(seed=1.5), "seed must be an integer, got 1.5"),
    (dict(trials=0), "trials must be >= 1"),
    (dict(DOA, k_theta=1), "k_theta must be >= 2"),
    (dict(sweep_axis="n", sweep_values=[100, 0]),
     "sweep_values of axis 'n' must be integers >= 1"),
    (dict(sweep_axis="n", sweep_values=[float("inf")]),
     "sweep_values of axis 'n' must be integers >= 1"),
    (dict(omega_grid=[1, 30, 2.5]), "omega_grid count must be an integer >= 1"),
    (dict(omega_grid=[1, 30, float("inf")]),
     "omega_grid count must be an integer >= 1"),
    (dict(omega=-2.0),
     "omega must be > 0 with a finite, nonzero square, got -2"),
], ids=["application", "estimator", "doa-estimator", "sweep_axis",
        "sweep_values-empty", "seed-fraction", "trials-0", "k_theta-1",
        "sweep-n-0", "sweep-n-inf", "omega_grid-count-fraction",
        "omega_grid-count-inf", "omega-negative"])
def test_config_error_line_is_exact(tmp_path, capsys, overrides, message):
    """A config with one fault is refused with exactly this line, so the
    messages that other tests match only by key stay word for word."""
    cfg = write_config(tmp_path, **overrides)
    out = tmp_path / "out.csv"
    assert main(["run", "--config", str(cfg), "--output", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("overrides,message", [
    (dict(sweep_values=5), "sweep_values must be a list, got 5"),
    (dict(sweep_values=None), "sweep_values must be a list, got None"),
    (dict(estimators=5), "estimators must be a list, got 5"),
    (dict(estimators=None), "estimators must be a list, got None"),
    (dict(estimators="gqmle"), "estimators must be a list, got 'gqmle'"),
    (dict(estimators=[]), "estimators must be nonempty"),
    (dict(theta0=[[1], [2, 3], [4], [5]]),
     "theta0 must be real, got [[1], [2, 3], [4], [5]]"),
    (dict(angles=[[0.5], [0.9, 1.2]]),
     "angles must be real, got [[0.5], [0.9, 1.2]]"),
    (dict(omega_grid=[[1], [30, 2], [30]]),
     "omega_grid must be real, got [[1], [30, 2], [30]]"),
], ids=["sweep_values-number", "sweep_values-null", "estimators-number",
        "estimators-null", "estimators-string", "estimators-empty",
        "theta0-ragged", "angles-ragged", "omega_grid-ragged"])
def test_malformed_list_config_is_an_error(tmp_path, capsys, overrides,
                                           message):
    """A list field holding a number, null, string or ragged nesting, or an
    empty estimator list, is refused with one line naming its key, instead
    of a message from Python or numpy that names none, a string read letter
    by letter, or a CSV with a header and no rows."""
    cfg = write_config(tmp_path, **overrides)
    out = tmp_path / "out.csv"
    assert main(["run", "--config", str(cfg), "--output", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("raw,name", [
    (5, "int"), (None, "NoneType"), ([[1]], "list"), ("abc", "str"),
], ids=["number", "null", "list", "string"])
def test_non_object_config_is_an_error(tmp_path, capsys, raw, name):
    """A config file whose top level is not a JSON object is refused with
    one line, instead of a TypeError traceback or, for a string, a list of
    its characters as unknown keys."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    assert main(["run", "--config", str(path)]) == 1
    assert capsys.readouterr().err == (
        f"error: config must be a JSON object, got {name}\n")


def test_repeated_estimator_is_an_error(tmp_path, capsys):
    """A repeated estimator would run once per trial but print one identical
    row per repetition, which reads as independent estimates."""
    cfg = write_config(tmp_path, estimators=["gqmle", "gqmle"])
    out = tmp_path / "out.csv"
    assert main(["run", "--config", str(cfg), "--output", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: estimators must not repeat a name: ['gqmle', 'gqmle']\n")
    assert not out.exists()


def test_missing_file_returns_nonzero(tmp_path, capsys):
    code = main(["run", "--config", str(tmp_path / "nope.json")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_cli_output_deterministic(tmp_path):
    cfg = write_config(tmp_path)
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["run", "--config", str(cfg), "--output", str(out1)]) == 0
    assert main(["run", "--config", str(cfg), "--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
