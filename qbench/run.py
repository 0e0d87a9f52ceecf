#!/usr/bin/env python3
"""Builds and runs the QCore benchmark (see qbench/README.md).

    python3 qbench/run.py --workload <edge-calib|fleet-infer|fleet-mixed> \
        --seed <n> --seconds <s> --trace <0|1>
    python3 qbench/run.py --test        # the benchmark's own self-tests

The benchmark compiles src/ from source into .bench_build/ at the
repository root (configured once, rebuilt incrementally), then runs the
`qbench` binary there. Build output goes to stderr; the last line of stdout
is the result object. The exit code is the binary's: 0 when every output
passed its correctness check.
"""
import argparse
import os
import shutil
import subprocess
import sys

QBENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(QBENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
# A run measures for --seconds plus set-up and verification; it must end
# well inside the three minutes a run is allowed.
RUN_TIMEOUT_S = 170


def build(target):
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", QBENCH_DIR, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            return False
    jobs = str(os.cpu_count() or 1)
    return subprocess.run(
        ["cmake", "--build", BUILD_DIR, "--target", target, "-j", jobs],
        stdout=sys.stderr).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--test", action="store_true",
                        help="build and run the benchmark's self-tests")
    args = parser.parse_args()
    os.chdir(ROOT)

    if args.test:
        if not build("qbench_test"):
            print("qbench: build failed", file=sys.stderr)
            return 1
        return subprocess.run([os.path.join(BUILD_DIR, "qbench_test")]).returncode

    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if not build("qbench"):
        print("qbench: build failed", file=sys.stderr)
        return 1
    cmd = [os.path.join(BUILD_DIR, "qbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--scratch", os.path.join(BUILD_DIR, "run")]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("qbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
