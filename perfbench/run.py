#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload serve_hot --seed 1 --seconds 10 --trace 0

Compiles perfbench/ (which builds the library from src/) in an optimised
configuration under .bench_build/perfbench, then runs one workload. Build
output goes to standard error; the last line of standard output is the JSON
result. The exit code is the benchmark's: 0 when every answer and every
simulated counter was correct, 1 when one was not, 2 when it could not run.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("serve_hot", "serve_cold", "exec_scan_join", "task_storm")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_env():
    """The environment for the build, without the compiler and CMake
    settings a shell may export, so an inherited setting cannot change the
    binary that is measured."""
    dropped = {"CC", "CXX", "CFLAGS", "CXXFLAGS", "CPPFLAGS", "LDFLAGS"}
    return {
        k: v
        for k, v in os.environ.items()
        if k not in dropped and not k.startswith("CMAKE_")
    }


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "serving", "query_server.h")):
        fail("the library sources (src/) are missing next to perfbench/")
    env = build_env()
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, env=env).returncode != 0:
            fail("configure failed")
    compile_cmd = ["cmake", "--build", BUILD, "--parallel", "4"]
    if subprocess.run(compile_cmd, stdout=sys.stderr, env=env).returncode != 0:
        fail("build failed")
    return os.path.join(BUILD, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")
    pinned = sorted(k for k in os.environ if k.startswith("RDFSPARK_"))
    if pinned:
        fail("refusing to run with " + ", ".join(pinned) + " set")

    binary = build()
    traces = os.path.join(ROOT, ".bench_build", "traces")
    os.makedirs(traces, exist_ok=True)
    command = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", args.trace,
        "--golden", os.path.join(HERE, "counters.golden"),
        "--trace-out", os.path.join(traces, args.workload + ".json"),
    ]
    sys.stdout.flush()
    child = subprocess.Popen(command)
    try:
        return child.wait()
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()


if __name__ == "__main__":
    sys.exit(main())
