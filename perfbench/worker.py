"""One workload in one fresh process; prints one JSON line as its result.

    python3 perfbench/worker.py --mode setup   --workload NAME --seed N
    python3 perfbench/worker.py --mode measure --workload NAME --seed N
                                [--seconds S] [--trace 0|1]

``setup`` times the import of mtqmle, loading the config and one warm-up
trial, then exits. ``measure`` does the same set-up, runs the correctness
gate, then times rounds until ``--seconds`` have passed, with the reference
kernel timed before every round and after the last. With ``--trace 1``
rounds alternate between untraced and traced, the warm-up and the gate are
traced too, and the per-layer metrics come from the traced rounds.

``run.py`` is the command to use; it starts this script.
"""

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
sys.path.insert(0, os.path.join(ROOT, "src"))

import tracer as tracing  # noqa: E402  (standard library only)


def _machine(np, scipy) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    caches = {}
    # glibc sysconf numbers of the L1d, L2 and L3 sizes
    for label, key in (("l1d", 188), ("l2", 191), ("l3", 194)):
        try:
            caches[label + "_bytes"] = os.sysconf(key)
        except (OSError, ValueError):
            caches[label + "_bytes"] = None
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": sys.version.split()[0],
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            **caches}


def reference_seconds() -> float:
    """Time of a fixed pure-Python loop: the machine's speed right now.

    Of the kernels tried (this loop, numpy element-wise work, small matrix
    products, 4x4 Cholesky solves), this one's time tracked the round times
    most closely on a shared 2-vCPU virtual machine (correlation about 0.9
    in log time, slope 0.8 to 1.0).
    """
    start = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i
    return time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("setup", "measure"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.makedirs(OUT_DIR, exist_ok=True)

    t0 = time.perf_counter()
    import workloads  # imports numpy and mtqmle

    import mtqmle
    if not os.path.abspath(mtqmle.__file__).startswith(
            os.path.join(ROOT, "src") + os.sep):
        print(f"error: mtqmle imported from {mtqmle.__file__}", file=sys.stderr)
        return 2
    wl = workloads.make(args.workload, ROOT, OUT_DIR, args.seed)
    tracer = tracing.Tracer(wl.synth_per_trial) if args.trace else None
    if tracer:
        tracer.install()
    try:
        wl.warm_up()
        setup_s = time.perf_counter() - t0
        if args.mode == "setup":
            print(json.dumps({"setup_s": setup_s}))
            return 0
        result = _measure(args, wl, tracer, workloads)
    finally:
        if tracer:
            tracer.uninstall()
    result["setup_s"] = setup_s
    result["peak_rss_mib"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    import numpy
    import scipy
    result["machine"] = _machine(numpy, scipy)
    if tracer:
        result["layers"] = tracing.layer_metrics(tracer.spans,
                                                 result["traced_trials"])
        path = os.path.join(OUT_DIR,
                            f"spans-{args.workload}-seed{args.seed}.jsonl")
        tracer.write_jsonl(path)
        result["spans_file"] = os.path.relpath(path, ROOT)
    print(json.dumps(result))
    return 0


def _measure(args, wl, tracer, workloads) -> dict:
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
        expected = json.load(fh)[args.workload]
    if tracer:
        tracer.phase = "gate"
    golden = wl.golden()
    mismatches = workloads.gate_mismatches(golden, expected)
    attempted = wl.calls
    failed = attempted if mismatches else 0
    if tracer:
        tracer.uninstall()
        tracer.phase = "rounds"

    round_s, ref_s = [], []
    first = None
    consistent = True
    start = time.perf_counter()
    index = 0
    while True:
        traced_round = tracer is not None and index % 2 == 1
        ref_s.append(reference_seconds())
        if traced_round:
            tracer.install()
        t = time.perf_counter()
        output = wl.run_round()
        elapsed = time.perf_counter() - t
        if traced_round:
            tracer.uninstall()
        round_s.append(elapsed)
        fingerprint = wl.fingerprint(output)
        if first is None:
            first = fingerprint
        attempted += wl.calls
        if fingerprint == first:
            failed += wl.failed_calls(output)
        else:                       # same seed, different output
            consistent = False
            failed += wl.calls
        index += 1
        if time.perf_counter() - start >= args.seconds and \
                (tracer is None or index % 2 == 0):
            break
    ref_s.append(reference_seconds())
    return {"workload": args.workload, "seed": args.seed,
            "trials_per_round": wl.trials, "round_s": round_s, "ref_s": ref_s,
            "traced_trials": wl.trials * (index // 2 if tracer else 0),
            "attempted": attempted, "failed": failed,
            "gate_mismatches": mismatches, "rounds_consistent": consistent,
            "correct": consistent and not mismatches,
            "golden": golden}


if __name__ == "__main__":
    sys.exit(main())
