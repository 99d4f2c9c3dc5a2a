#!/usr/bin/env python3
"""Builds monitor_bench from the checkout's sources and runs one workload.

Usage (from the root of a checkout):
    python3 monitor_bench/run.py --workload exact_fleet --seed 1 \
        --seconds 10 --trace 0

Every argument is passed through to the monitor_bench binary, whose last
line of standard output is the JSON result. The build goes to
$CARGO_TARGET_DIR if set, else .bench_build; build output goes to stderr
so standard output stays the benchmark's own. Exits 2 without a result
when the library sources are not there or the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "stream",
                                       "drift_monitor.h")):
        print("monitor_bench: no library sources under %s" % ROOT,
              file=sys.stderr)
        return None
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.call(["cmake", "--build", build_dir, "--target",
                        "monitor_bench", "-j", jobs],
                       stdout=sys.stderr) != 0:
        return None
    return os.path.join(build_dir, "monitor_bench")


def main(argv):
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    binary = build(os.path.abspath(build_dir))
    if binary is None:
        print("monitor_bench: build failed", file=sys.stderr)
        return 2
    workdir = os.path.join(build_dir, "monitor_bench_work")
    try:
        return subprocess.call([binary, "--workdir", workdir] + argv,
                               timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("monitor_bench: run exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
