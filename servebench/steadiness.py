#!/usr/bin/env python3
"""Runs the benchmark once per seed and reports each metric's spread across the seeds.

The spread is the distance between the first and third quartile of the values, as
statistics.quantiles(values, n=4) gives them, as a share of their median. Run from the root
of the repository:

    python3 servebench/steadiness.py --workloads cold_mix warm_zipf --seeds 1 2 3 4 5

Each run goes through the command in BENCHMARK.json, so it builds the benchmark first if
needed. Use --trace 1 for the per-layer metrics.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--seconds", type=int, help="defaults to run_seconds of BENCHMARK.json")
    parser.add_argument("--values", action="store_true", help="print every run's value too")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    worst = 0.0
    for workload in args.workloads:
        values = {}
        for seed in args.seeds:
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", args.trace,
            ]
            out = subprocess.run(cmd, capture_output=True, text=True, check=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: incorrect result", file=sys.stderr)
                return 1
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"{workload} ({len(args.seeds)} seeds, {seconds} s each)")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            note = ""
            if bound is not None and name != "setup_s":
                worst = max(worst, spread / bound)
                note = f"  bound {bound}  spread/bound {spread / bound:.2f}"
            print(f"  {name:<28} median {med:<14.6g} spread {spread:.4f}{note}")
            if args.values:
                print("    " + " ".join(f"{v:.6g}" for v in vals))
    if args.trace == "0":
        print(f"largest spread/bound (setup_s excluded): {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
