#!/usr/bin/env python3
"""Entry point of the APEX flow benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload dse-suite --seed 1 --seconds 10 --trace 0

builds the benchmark and the `apex` CLI with dune, runs one workload
(dse-suite, mine-deep or serve-mixed) and prints a report whose last line
is the JSON result.  `--trace 1` makes the separate traced run that
prints the per-layer metrics instead of the end-to-end ones.

    python3 perfbench/run.py --steadiness 10 [--seed 1] [--workload W ...] [--seconds S]

runs each workload (by default those in BENCHMARK.json) once per seed
from --seed on and prints, for every end-to-end metric, its median,
quartiles and spread (the distance between the quartiles as a share of
the median) next to the metric's bound in BENCHMARK.json.  The bounds
rest on this report.  mine-deep is not in BENCHMARK.json; run it with
--workload mine-deep.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys

WORKLOADS = ["dse-suite", "mine-deep", "serve-mixed"]
BENCH_EXE = os.path.join("_build", "default", "perfbench", "apexbench.exe")
APEX_EXE = os.path.join("_build", "default", "bin", "apex_cli.exe")
RUN_TIMEOUT_S = 170


def build():
    """Build the benchmark and the CLI; exit non-zero when that fails."""
    cmd = ["dune", "build", "--root", ".", "./perfbench/apexbench.exe", "./bin/apex_cli.exe"]
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        sys.exit(f"perfbench: cannot run dune: {e}")
    if done.returncode != 0:
        sys.exit(f"perfbench: build failed (exit {done.returncode})")


def run_once(workload, seed, seconds, trace, capture=False):
    """Run one workload in its own process group, so that a timeout also
    stops the serve daemon it may have spawned."""
    cmd = [BENCH_EXE, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--apex", APEX_EXE]
    proc = subprocess.Popen(cmd, start_new_session=True,
                            stdout=subprocess.PIPE if capture else None)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(f"perfbench: {workload} did not finish in {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.exit(f"perfbench: {workload} failed (exit {proc.returncode})")
    return out.decode() if capture else None


def steadiness(workloads, runs, first_seed, seconds):
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = workloads or [w["name"] for w in bench["workloads"]]
    seeds = range(first_seed, first_seed + runs)
    for w in workloads:
        values, failed = {}, 0
        for seed in seeds:
            result = json.loads(run_once(w, seed, seconds, 0, capture=True).splitlines()[-1])
            failed += result["failed"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"\n{w}: {runs} runs, seeds {seeds.start}..{seeds.stop - 1}, {failed} failed checks")
        print(f"  {'metric':16s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>7s} {'bound':>6s}")
        for name, v in values.items():
            q1, med, q3 = statistics.quantiles(v, n=4)
            print(f"  {name:16s} {med:12.4f} {q1:12.4f} {q3:12.4f} "
                  f"{(q3 - q1) / med:7.3f} {bounds[name]:6.2f}", flush=True)


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", action="append", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--steadiness", type=int, metavar="N")
    a = p.parse_args()
    build()
    if a.steadiness:
        steadiness(a.workload, a.steadiness, a.seed, a.seconds)
    elif a.workload and len(a.workload) == 1:
        run_once(a.workload[0], a.seed, a.seconds, a.trace)
    else:
        p.error("give exactly one --workload (or --steadiness N)")


if __name__ == "__main__":
    main()
