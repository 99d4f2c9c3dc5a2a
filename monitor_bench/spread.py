#!/usr/bin/env python3
"""Runs one workload over several seeds and prints each metric's spread.

Usage (from the root of a checkout):
    python3 monitor_bench/spread.py --workload exact_fleet --seeds 1-10 \
        [--seconds 10] [--trace 0]

For every metric it prints the median of the per-run values and the
interquartile range as a share of that median, with quartiles from
statistics.quantiles(values, n=4).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def parse_seeds(text):
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(s) for s in text.split(",")]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-5")
    parser.add_argument("--seconds", default="10")
    parser.add_argument("--trace", default="0")
    args = parser.parse_args()
    values = {}
    units = {}
    for seed in parse_seeds(args.seeds):
        out = subprocess.run(
            [sys.executable, RUN, "--workload", args.workload, "--seed",
             str(seed), "--seconds", args.seconds, "--trace", args.trace],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        if out.returncode != 0:
            print("seed %d: exit %d" % (seed, out.returncode))
            continue
        result = json.loads(out.stdout.strip().splitlines()[-1])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.6g" % (n, m["value"])
            for n, m in result["metrics"].items())), flush=True)
    for name, vals in values.items():
        median = statistics.median(vals)
        if len(vals) >= 2 and median != 0:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / abs(median)
        else:
            spread = float("nan")
        print("%-28s median %-14.6g %-6s spread %.4f  min %.6g max %.6g" %
              (name, median, units[name], spread, min(vals), max(vals)))


if __name__ == "__main__":
    main()
