#!/usr/bin/env python3
"""Builds the kbench binary from this checkout's sources and runs one workload.

    python3 kbench/run.py --workload <campaign|fleet_10k|release_1k> \
        --seed <n> --seconds <s> --trace <0|1>

The build goes to .bench_build/kbench under the checkout root (CMake,
Release). Build output goes to stderr, so the last line of stdout is the
kbench result line. Exits non-zero without a result when the build or
the run fails.
"""
import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "kbench")
BUILD = os.path.join(ROOT, ".bench_build", "kbench")
WORK = os.path.join(ROOT, ".bench_build", "kbench-work")


def build():
    configure = ["cmake", "-S", SOURCE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (configure, ["cmake", "--build", BUILD, "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("kbench: build failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    build()
    exe = os.path.join(BUILD, "kbench")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", WORK]
    sys.exit(subprocess.run(cmd, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
