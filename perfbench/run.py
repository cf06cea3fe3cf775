"""Benchmark of the mtqmle Monte Carlo workloads.

    python3 perfbench/run.py --workload NAME[,NAME...|all] --seed N \\
        --seconds S --trace 0|1

Run from the root of a checkout. Each workload runs in fresh worker processes
(``worker.py``), one after another, with the BLAS thread count at its
default. Untraced (``--trace 0``) it reports the end-to-end metrics:

    trials_per_s  Monte Carlo trials per second, corrected for the machine's
                  speed during each round; the mean of the middle 60% of
                  the untraced rounds
    setup_s       median over fresh processes of import + config + one
                  warm-up trial
    peak_rss_mb   ru_maxrss of the measuring process
    ok_frac       1 - failed estimator calls / calls attempted

Traced (``--trace 1``) it reports the per-layer metrics listed in
``tracer.py``, ``failed_frac``, ``wall_trials_per_s`` (the uncorrected rate)
and ``trace_overhead_frac``, the corrected traced round time over the
untraced one, minus 1.

The CPU speed a process sees on a shared host drifts by tens of percent over
seconds. Each round's rate is therefore multiplied by the mean time of a
fixed pure-Python reference loop run just before and just after it, over
``REF_NOMINAL_S``: the rate the round would have had with the machine at the
speed where the loop takes ``REF_NOMINAL_S``.

Every run checks correctness: the gate output against ``expected.json`` and
every round against the first. Each metric is printed by name with its unit
and sample count; the last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``. The full
result, machine block included, is written to ``perfbench/out/``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("doa-select", "regression-sweep", "regression-select",
             "generic-select")
SETUP_PROCESSES = 4     # set-up-only processes; the measuring one adds one
REF_NOMINAL_S = 0.015   # reference kernel time that defines nominal speed
BUDGET_S = 170.0        # a run must end within 180 s


class WorkerError(RuntimeError):
    pass


def _require_checkout() -> None:
    needed = [os.path.join(ROOT, "src", "mtqmle", "__init__.py"),
              os.path.join(ROOT, "configs", "doa_snr_sweep.json"),
              os.path.join(ROOT, "configs", "regression_omega_sweep.json")]
    missing = [os.path.relpath(p, ROOT) for p in needed if not os.path.isfile(p)]
    if missing:
        raise WorkerError("not an mtqmle checkout; missing "
                          + ", ".join(missing))


def _worker(args, deadline) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerError("time budget exhausted")
    try:
        proc = subprocess.run([sys.executable, WORKER, *map(str, args)],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise WorkerError(f"worker {args} timed out") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker {args} exited with {proc.returncode}:\n"
                          + proc.stderr[-4000:])
    return json.loads(lines[-1])


def _metric(value, unit, samples) -> dict:
    return {"value": value, "unit": unit, "samples": samples}


def central_mean(values) -> float:
    """Mean of the middle 60%: a fifth of the values dropped at each end."""
    values = sorted(values)
    cut = len(values) // 5
    return statistics.mean(values[cut:len(values) - cut])


def _quartiles(values) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def working_sets() -> dict:
    """Bytes of the largest arrays one trial touches, from the configs."""
    with open(os.path.join(ROOT, "configs", "doa_snr_sweep.json")) as fh:
        d = json.load(fh)
    with open(os.path.join(ROOT, "configs", "regression_omega_sweep.json")) as fh:
        r = json.load(fh)
    return {"doa_steering_grid": d["k_theta"] * d["p"] * 16,
            "doa_snapshots": d["n_samples"] * d["p"] * 16,
            "regression_snapshots": r["n_samples"] * r["p"] * 16}


def run_workload(name, seed, seconds, trace, deadline) -> dict:
    common = ["--workload", name, "--seed", seed]
    setups = []
    if not trace:
        for _ in range(SETUP_PROCESSES):
            setups.append(_worker(["--mode", "setup", *common], deadline)["setup_s"])
    result = _worker(["--mode", "measure", *common, "--seconds", seconds,
                      "--trace", trace], deadline)
    setups.append(result["setup_s"])
    ref = result["ref_s"]
    trials = result["trials_per_round"]
    wall, corrected, traced = [], [], []
    for i, seconds_i in enumerate(result["round_s"]):
        rate = trials / seconds_i * (ref[i] + ref[i + 1]) / (2 * REF_NOMINAL_S)
        if trace and i % 2 == 1:
            traced.append(rate)
        else:
            corrected.append(rate)
            wall.append(trials / seconds_i)
    rates = corrected
    failed_frac = result["failed"] / result["attempted"]
    if trace:
        metrics = dict(result["layers"])
        metrics["failed_frac"] = _metric(failed_frac, "fraction",
                                         result["attempted"])
        metrics["wall_trials_per_s"] = _metric(central_mean(wall), "1/s",
                                               len(wall))
        overhead = central_mean(corrected) / central_mean(traced) - 1.0
        metrics["trace_overhead_frac"] = _metric(overhead, "fraction",
                                                 len(traced))
    else:
        metrics = {
            "trials_per_s": _metric(central_mean(rates), "1/s", len(rates)),
            "setup_s": _metric(statistics.median(setups), "s", len(setups)),
            "peak_rss_mb": _metric(result["peak_rss_mib"], "MiB", 1),
            "ok_frac": _metric(1.0 - failed_frac, "fraction",
                               result["attempted"]),
        }
    result.update(setup_samples_s=setups, trials_per_s_samples=rates,
                  wall_trials_per_s_samples=wall, metrics=metrics)
    return result


def _report(name, seed, trace, result) -> None:
    print(f"== {name}  seed={seed}  trace={trace}")
    machine = result["machine"]
    print("machine: " + json.dumps(machine, sort_keys=True))
    sets = working_sets()
    l2 = machine.get("l2_bytes")
    fits = l2 is not None and max(sets.values()) <= l2
    print("working sets (bytes): " + json.dumps(sets, sort_keys=True)
          + f"; L2 {l2}: "
          + ("every working set fits in L2, so runs are compute- or "
             "interpreter-bound; no bandwidth roofline is claimed"
             if fits else "not every working set fits in L2"))
    for metric, m in result["metrics"].items():
        print(f"  {metric:<56s} {m['value']:.6g} {m['unit']}  (n={m['samples']})")
    if not trace:
        for label in ("trials_per_s", "wall_trials_per_s"):
            rates = result[label + "_samples"]
            q1, q3 = _quartiles(rates)
            print(f"  {label} rounds: central mean {central_mean(rates):.4g} "
                  f"min {min(rates):.4g} q1 {q1:.4g} q3 {q3:.4g} "
                  f"max {max(rates):.4g}")
    gate = "ok" if not result["gate_mismatches"] else \
        "MISMATCH in " + ", ".join(result["gate_mismatches"])
    print(f"  correctness: gate {gate}; rounds consistent: "
          f"{result['rounds_consistent']}; failed {result['failed']} of "
          f"{result['attempted']} calls")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload, a comma-separated list, or 'all': "
                             + ", ".join(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=14)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = WORKLOADS if args.workload == "all" else args.workload.split(",")
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; choose from {WORKLOADS}")

    deadline = time.monotonic() + BUDGET_S * len(names)
    try:
        _require_checkout()
        results = {n: run_workload(n, args.seed, args.seconds, args.trace,
                                   deadline) for n in names}
    except WorkerError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    os.makedirs(OUT_DIR, exist_ok=True)
    metrics = {}
    for name, result in results.items():
        _report(name, args.seed, args.trace, result)
        path = os.path.join(OUT_DIR, f"result-{name}-seed{args.seed}"
                                     f"-trace{args.trace}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=1)
        prefix = "" if len(names) == 1 else name + "."
        for metric, m in result["metrics"].items():
            metrics[prefix + metric] = {"value": m["value"], "unit": m["unit"]}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
