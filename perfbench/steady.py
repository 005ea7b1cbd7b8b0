#!/usr/bin/env python3
"""Steadiness self-check for the lib·erate benchmark.

Runs every workload (or the ones named) repeatedly, each run with its own
seed, through the command BENCHMARK.json names, and reports for every
end-to-end metric the median, the quartiles and the spread -- the
distance between the quartiles as a share of the median -- against the
metric's bound. A metric is steady when its spread is below a third of
its bound. `setup_s` is reported but exempt: its median is compared
between sets, not its spread.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1] [--workloads learn,deploy]

Run it from the root of the repository.
"""

import argparse
import json
import statistics
import subprocess
import sys


def load_benchmark():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run_once(bench, workload, seed, seconds, trace):
    """One benchmark run; returns (host line, result object)."""
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)}: exit {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    host = next((l for l in lines if l.startswith("# host:")), "# host: unknown")
    return host, json.loads(lines[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None,
                    help="run length (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--workloads", default=None,
                    help="comma-separated workload names (default: all)")
    args = ap.parse_args()

    bench = load_benchmark()
    seconds = args.seconds or bench["run_seconds"]
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    steady_all = True
    for workload in names:
        values = {m["name"]: [] for m in metrics}
        failed_shares = set()
        correct = True
        host = None
        for i in range(args.runs):
            seed = args.first_seed + i
            host, result = run_once(bench, workload, seed, seconds, 0)
            correct &= result["correct"]
            failed_shares.add(f'{result["failed"]}/{result["attempted"]}'
                              if result["failed"] else "0")
            for m in metrics:
                values[m["name"]].append(result["metrics"][m["name"]]["value"])
            print(f"  {workload} seed {seed}: "
                  f'{result["attempted"]} ops, {result["failed"]} failed, '
                  f'correct {result["correct"]}; '
                  + " ".join(f"{m['name']}={values[m['name']][-1]:.5g}" for m in metrics),
                  file=sys.stderr)
        print(f"\n== {workload}: {args.runs} runs of {seconds} s, seeds "
              f"{args.first_seed}..{args.first_seed + args.runs - 1}")
        print(host)
        print(f"correct in every run: {correct}; failed shares: {sorted(failed_shares)}")
        print(f"{'metric':<16} {'unit':<6} {'q1':>12} {'median':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}  verdict")
        for m in metrics:
            q1, med, q3, s = spread(values[m["name"]])
            if m["name"] == "setup_s":
                verdict = "exempt (median compared)"
            elif s < m["bound"] / 3:
                verdict = "steady"
            elif s <= m["bound"]:
                verdict = "within bound, not below a third of it"
                steady_all = False
            else:
                verdict = "UNSTEADY"
                steady_all = False
            print(f"{m['name']:<16} {m['unit']:<6} {q1:>12.5g} {med:>12.5g} {q3:>12.5g} "
                  f"{s:>8.4f} {m['bound']:>6}  {verdict}")
    print("\nall spreads below a third of their bounds" if steady_all
          else "\nsome spreads are not below a third of their bounds")
    return 0 if steady_all else 1


if __name__ == "__main__":
    sys.exit(main())
