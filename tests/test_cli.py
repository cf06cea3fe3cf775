import json

from mtqmle.cli import main
from mtqmle.harness import read_csv


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


def test_timing_command(tmp_path, capsys):
    cfg = write_config(tmp_path, sweep_values=[5.0], trials=1)
    assert main(["timing", "--config", str(cfg)]) == 0
    printed = capsys.readouterr().out
    assert "s/call" in printed


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
