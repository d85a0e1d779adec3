#!/usr/bin/env python3
"""Builds the page-server benchmark from source and runs one workload.

    python3 perfbench/run.py --workload cart|reference|mashup --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The build lives in .bench_build/perfbench.
The last line of standard output is the JSON result; the exit code is
non-zero when the build fails, an operation fails or an oracle check does
not match.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no xqib sources next to perfbench/ (need src/ in the checkout)")
    jobs = str(os.cpu_count() or 1)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    step = ["cmake", "--build", BUILD, "--target", target, "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(BUILD, target)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=["cart", "reference", "mashup"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if args.selftest:
        sys.exit(subprocess.run([build("perfbench_selftest")]).returncode)
    if args.workload is None:
        parser.error("--workload is required")

    binary = build("perfbench")
    base = [binary, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--root", ROOT]

    cmd = base
    if args.trace == 1:
        cmd = base + ["--trace-out", os.path.join(
            BUILD, "trace-%s-seed%d.jsonl" % (args.workload, args.seed))]
    # Its own process group, so a timeout also stops the measuring
    # processes it forks.
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("timed out: " + " ".join(cmd), 3)
    sys.exit(code)


if __name__ == "__main__":
    main()
