#!/usr/bin/env python3
"""Runs the benchmark on several seeds and prints, per end-to-end metric,
the median and the spread: the distance between the first and third
quartile as a share of the median (statistics.quantiles, n=4).

    python3 perfbench/steadiness.py --workload po-tree --runs 10 [--first-seed 1]

Run it from the root of the repository. Each run is the benchmark command
from BENCHMARK.json with --trace 0 and BENCHMARK.json's run_seconds.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", "0",
        ]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            sys.exit(f"seed {seed}: incorrect result {result}")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)

    print(f"\n{args.workload}: {args.runs} runs")
    print(f"{'metric':<18} {'median':>12} {'spread':>8} {'bound':>6}")
    for name, vs in values.items():
        q1, med, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        print(f"{name:<18} {med:>12.6g} {spread:>8.3f} {bounds.get(name, 0):>6}")


if __name__ == "__main__":
    main()
