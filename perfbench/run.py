#!/usr/bin/env python3
"""Benchmark of iqfi-lab: one workload, timed against a reference kernel.

    python3 perfbench/run.py --workload trains --seed 1 --seconds 8 --trace 0

Run from the root of a checkout; the program is imported from ./src.  The
workload's cases run in whole rounds until --seconds have passed; every
case's output is checked against perfbench/references.py after the timed
rounds.  The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (setup_s, solve_ref,
case_ref_gmean, peak_rss_mb); with --trace 1 the program's public functions
are wrapped and the metrics are the per-layer ones.  Per-case figures and
raw seconds go to stderr.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from typing import NamedTuple, Optional

# one BLAS thread, here and in every child process, before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("trains", "sweep", "drive", "haar")
SETUP_REPEATS = 3
EXIT_NO_PROGRAM = 2


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="set up once and exit (used to time set-up)")
    return ap.parse_args(argv)


def load_program():
    """Import iqfi_lab from this checkout's src/ and the workload module."""
    init = os.path.join(SRC, "iqfi_lab", "__init__.py")
    if not os.path.isfile(init):
        print(f"perfbench: no program at {os.path.relpath(init, ROOT)}", file=sys.stderr)
        sys.exit(EXIT_NO_PROGRAM)
    sys.path[:0] = [SRC, HERE]
    import iqfi_lab

    if os.path.realpath(iqfi_lab.__file__) != os.path.realpath(init):
        print(f"perfbench: imported iqfi_lab from {iqfi_lab.__file__}, not src/",
              file=sys.stderr)
        sys.exit(EXIT_NO_PROGRAM)
    import workloads

    return workloads


def build(workloads, name: str, seed: int):
    """The workload's inputs and the seeded order of its cases."""
    import numpy as np

    rng = np.random.default_rng([seed, WORKLOAD_NAMES.index(name)])
    wl = workloads.WORKLOADS[name](rng)
    return wl, [wl.cases[i] for i in rng.permutation(len(wl.cases))]


def measure_setup(args) -> list:
    """Wall time of fresh processes that import the program, build the
    inputs and run the warm-up case: process start to the first timed case."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, timeout=120, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


class Op(NamedTuple):
    """One timed operation: a case in a round."""

    round: int
    case: object
    seconds: float
    ref: float
    summary: Optional[dict]
    error: Optional[str]
    start: float
    kernel_before: float
    kernel_after: float


def run_rounds(cases, seconds, min_rounds, kernel, tracer):
    """Whole rounds of every case, at least `min_rounds`, until `seconds`
    have passed.  Returns (ops, rounds).

    A case's ref time is its seconds divided by the mean of the kernel
    timings right before and right after it; the one after is the one
    before the next case.
    """
    ops = []
    rounds = 0
    start = time.perf_counter()
    gc.collect()
    k_before = kernel.seconds()
    while True:
        for case in cases:
            if tracer is not None:
                tracer.case = f"{rounds}:{case.name}"
            error = summary = None
            t0 = time.perf_counter()
            try:
                out = case.call()
            except Exception as exc:  # a failed operation, counted as such
                out, error = None, f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.case = None
            if error is None:
                try:
                    summary = case.summarize(out)
                except Exception as exc:
                    error = f"unreadable output: {type(exc).__name__}: {exc}"
            del out
            gc.collect()
            k_after = kernel.seconds()
            ops.append(Op(rounds, case, dt, dt / (0.5 * (k_before + k_after)),
                          summary, error, t0 - start, k_before, k_after))
            k_before = k_after
        rounds += 1
        if rounds >= min_rounds and time.perf_counter() - start >= seconds:
            return ops, rounds


def check_ops(ops):
    """The failure message of every operation, None where its output is
    right; identical outputs of one case are checked once."""
    verdicts = {}
    results = []
    for op in ops:
        error = op.error
        if error is None:
            key = (op.case.name, json.dumps(op.summary, sort_keys=True))
            if key not in verdicts:
                verdicts[key] = op.case.check(op.summary)
            error = verdicts[key]
        results.append(error)
    return results


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        wl, _ = build(load_program(), args.workload, args.seed)
        wl.warmup()
        return 0

    workloads = load_program()
    setup = [] if args.trace else measure_setup(args)
    wl, cases = build(workloads, args.workload, args.seed)
    wl.warmup()

    from kernel import ReferenceKernel

    kernel = ReferenceKernel()
    kernel.run()
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    ops, rounds = run_rounds(cases, args.seconds, wl.min_rounds, kernel, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    if tracer is not None:
        tracer.uninstall()
        tracer.write(os.path.join(out_dir, f"trace-{args.workload}-{args.seed}.json"))
    with open(os.path.join(out_dir, f"run-{args.workload}-{args.seed}-{args.trace}.json"),
              "w") as fh:
        json.dump([{"round": op.round, "case": op.case.name, "seconds": op.seconds,
                    "ref": op.ref, "start": op.start, "kernel_before": op.kernel_before,
                    "kernel_after": op.kernel_after} for op in ops], fh)

    errors = check_ops(ops)
    unexpected = [e for op, e in zip(ops, errors) if e is not None and not op.case.known_fault]
    first = {op.case.name: op.summary for op in ops if op.round == 0}
    problems = [] if None in first.values() else wl.finish(first)

    per_case = {}
    for op in ops:
        per_case.setdefault(op.case.name, []).append(op.ref)
    refs = [statistics.median(v) for v in per_case.values()]
    solve_s = sum(op.seconds for op in ops)
    solve_ref = sum(refs)
    for op, e in zip(ops, errors):
        status = "ok" if e is None else \
            ("FAIL (known fault) " if op.case.known_fault else "FAIL ") + e
        print(f"  r{op.round} {op.case.name:<28} {op.seconds:8.4f} s {op.ref:8.3f} ref  "
              f"{status}", file=sys.stderr)
    for p in problems:
        print(f"  workload check failed: {p}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {rounds} round(s), {len(ops)} operations, "
          f"solve {solve_s / rounds:.3f} s raw = {solve_ref:.3f} ref per round, "
          f"set-up runs {[round(s, 3) for s in setup]} s", file=sys.stderr)

    if args.trace:
        from tracing import import_times, layer_metrics, unit_of

        values = layer_metrics(tracer.spans, solve_s, rounds, wl.boundaries)
        values["trace.solve_ref"] = solve_ref
        values.update(import_times(ROOT, dict(os.environ, PYTHONPATH=SRC)))
        for name, value in values.items():
            if value is None:
                print(f"  MISSING: no span at the boundary of {name}", file=sys.stderr)
        metrics = {name: {"value": value, "unit": unit_of(name)}
                   for name, value in values.items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "solve_ref": {"value": solve_ref, "unit": "ref"},
            "case_ref_gmean": {"value": math.exp(statistics.fmean(map(math.log, refs))),
                               "unit": "ref"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(json.dumps({"correct": not unexpected and not problems, "attempted": len(ops),
                      "failed": sum(e is not None for e in errors), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
