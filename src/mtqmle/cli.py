"""Command-line front end for the Monte Carlo experiment harness.

Subcommands:
    run    --config cfg.json [--output out.csv]
    sweep  --config cfg.json --axis omega --values 1,2,...  [--output out.csv]
    timing --config cfg.json

``sweep`` takes negative values in the ``=`` form, ``--values=-25,-20``, since
argparse reads a separate ``-25,-20`` as an option. ``timing`` runs the
experiment and prints the mean wall seconds per estimator call at every sweep
value (comparative only), in place of the CSV.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .harness import ExperimentConfig, emit_csv, run_experiment


def _load_config(path: str, axis=None, values=None) -> ExperimentConfig:
    config = ExperimentConfig.from_json(path)
    if axis is not None:
        config = replace(config, sweep_axis=axis, sweep_values=values)
    return config


def _run(config: ExperimentConfig, output) -> int:
    """Run the experiment; write its CSV to ``output`` (else the config's
    path), or print the rows when neither is set."""
    rows = run_experiment(config)
    out = output or config.output
    if out:
        emit_csv(rows, out)
        print(f"wrote {len(rows)} rows to {out}")
    else:
        for row in rows:
            print(f"{row.sweep_value:g} {row.estimator} "
                  f"mse={row.empirical_mse:.6g} failures={row.failures}")
    return 0


def _cmd_run(args) -> int:
    return _run(_load_config(args.config), args.output)


def _cmd_sweep(args) -> int:
    values = [float(v) for v in args.values.split(",") if v.strip()]
    if not values:
        print("error: --values is empty", file=sys.stderr)
        return 2
    return _run(_load_config(args.config, args.axis, values), args.output)


def _cmd_timing(args) -> int:
    for row in run_experiment(_load_config(args.config)):
        print(f"{row.sweep_value:g} {row.estimator}: {row.mean_seconds:.6f}"
              f" s/call over {row.trials} calls")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mtqmle",
        description="Monte Carlo experiments for reweighted quasi-likelihood "
                    "estimation (CSV output)")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run the experiment in a config file")
    run_p.add_argument("--config", required=True)
    run_p.add_argument("--output", default=None)
    run_p.set_defaults(fn=_cmd_run)

    sweep_p = sub.add_parser("sweep", help="run with a sweep axis override")
    sweep_p.add_argument("--config", required=True)
    sweep_p.add_argument("--axis", required=True,
                         choices=("omega", "snr", "n"))
    sweep_p.add_argument("--values", required=True,
                         help="comma-separated sweep values; write "
                              "negative ones as --values=-25,-20")
    sweep_p.add_argument("--output", default=None)
    sweep_p.set_defaults(fn=_cmd_sweep)

    timing_p = sub.add_parser("timing", help="per-estimator wall time report")
    timing_p.add_argument("--config", required=True)
    timing_p.set_defaults(fn=_cmd_timing)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
