"""Command-line front end for the Monte Carlo experiment harness.

Subcommands:
    run    --config cfg.json [--output out.csv] [--timing]
    sweep  --config cfg.json --axis omega --values 1,2,...  [--output out.csv]
    timing --config cfg.json
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .harness import ExperimentConfig, emit_csv, run_experiment, timing_report


def _load_config(path: str, axis=None, values=None) -> ExperimentConfig:
    config = ExperimentConfig.from_json(path)
    if axis is not None:
        config = replace(config, sweep_axis=axis, sweep_values=values)
    return config


def _run(config: ExperimentConfig, output, include_timing: bool) -> int:
    """Run the experiment; write its CSV to ``output`` (else the config's
    path), or print the rows when neither is set."""
    table = run_experiment(config)
    out = output or config.output
    if out:
        emit_csv(table, out, include_timing=include_timing)
        print(f"wrote {len(table.rows)} rows to {out}")
    else:
        for row in table.rows:
            print(f"{row.sweep_value:g} {row.estimator} "
                  f"mse={row.empirical_mse:.6g} failures={row.failures}")
    return 0


def _cmd_run(args) -> int:
    return _run(_load_config(args.config), args.output, args.timing)


def _cmd_sweep(args) -> int:
    values = [float(v) for v in args.values.split(",") if v.strip()]
    if not values:
        print("error: --values is empty", file=sys.stderr)
        return 2
    config = _load_config(args.config, axis=args.axis, values=values)
    return _run(config, args.output, False)


def _cmd_timing(args) -> int:
    config = _load_config(args.config)
    for name, seconds, calls in timing_report(config):
        print(f"{name}: {seconds:.6f} s/call over {calls} calls")
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
    run_p.add_argument("--timing", action="store_true",
                       help="include the (nondeterministic) timing column")
    run_p.set_defaults(fn=_cmd_run)

    sweep_p = sub.add_parser("sweep", help="run with a sweep axis override")
    sweep_p.add_argument("--config", required=True)
    sweep_p.add_argument("--axis", required=True,
                         choices=("omega", "snr", "n"))
    sweep_p.add_argument("--values", required=True,
                         help="comma-separated sweep values")
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
