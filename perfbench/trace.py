#!/usr/bin/env python3
"""Traced run of the lib·erate benchmark: per-layer attribution.

For each workload, runs the benchmark untraced (`--trace 0`) and traced
(`--trace 1`) in alternation, prints every per-layer metric of the last
traced run, and reports the tracing overhead: how much lower the traced
run's operation rate (`traced.ops_per_s`) is than the untraced run's
(`ops_per_s`), as the median over the pairs.

    python3 perfbench/trace.py [--seed 1] [--pairs 3] [--workloads learn]

Run it from the root of the repository.
"""

import argparse
import statistics
import sys

from steady import load_benchmark, run_once


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=3)
    ap.add_argument("--seconds", type=int, default=None,
                    help="run length (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--workloads", default=None,
                    help="comma-separated workload names (default: all)")
    args = ap.parse_args()

    bench = load_benchmark()
    seconds = args.seconds or bench["run_seconds"]
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    for workload in names:
        overheads = []
        traced = None
        host = None
        for _ in range(args.pairs):
            _, plain = run_once(bench, workload, args.seed, seconds, 0)
            host, traced = run_once(bench, workload, args.seed, seconds, 1)
            base = plain["metrics"]["ops_per_s"]["value"]
            rate = traced["metrics"]["traced.ops_per_s"]["value"]
            overheads.append((base - rate) / base)
        print(f"\n== {workload}: seed {args.seed}, {seconds} s runs")
        print(host)
        print(f"correct: {traced['correct']}, attempted {traced['attempted']}, "
              f"failed {traced['failed']}")
        for m in bench["per_layer"]:
            v = traced["metrics"][m["name"]]
            print(f"{m['name']:<28} {v['value']:>16.6g} {v['unit']}")
        print(f"tracing overhead on ops_per_s: median {100 * statistics.median(overheads):+.1f}% "
              f"over {args.pairs} pairs ({', '.join(f'{100 * o:+.1f}%' for o in overheads)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
