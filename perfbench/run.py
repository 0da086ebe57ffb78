#!/usr/bin/env python3
"""Repository benchmark: one run of one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the CASM library from src/ together with
perfbench/casm_perfbench.cc into .bench_build/ (or $CARGO_TARGET_DIR when set)
with CMake, runs the workload in a child process of its own, reads that
process's peak RSS through wait4(), and prints one JSON object as the last
line of stdout. Build logs and diagnostics go to stderr. See NOTES.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import threading

WORKLOADS = ("paper-mix", "early-agg")
# A run must finish within 180 s; the child is killed a little earlier.
CHILD_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(root, build_dir):
    """Configures and builds casm_perfbench; returns the binary's path."""
    cmake_dir = os.path.join(build_dir, "cmake")
    os.makedirs(cmake_dir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", os.path.join(root, "perfbench"), "-B", cmake_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", cmake_dir, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(cmake_dir, "casm_perfbench")


def run_child(argv):
    """Runs argv; returns (exit status, stdout text, peak RSS in MiB)."""
    # The program reads CASM_* switches (tracing, fault plans, engine
    # overrides) from the environment; the benchmark runs without them.
    env = {k: v for k, v in os.environ.items() if not k.startswith("CASM_")}
    child = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env)
    timer = threading.Timer(CHILD_TIMEOUT_S, child.kill)
    timer.start()
    try:
        out = child.stdout.read().decode()
        _, status, usage = os.wait4(child.pid, 0)
    finally:
        timer.cancel()
        child.stdout.close()
    child.returncode = os.waitstatus_to_exitcode(status)
    return child.returncode, out, usage.ru_maxrss / 1024.0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    root = os.getcwd()
    for needed in ("perfbench/CMakeLists.txt", "src/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(root, needed)):
            fail("run from the repository root: %s not found" % needed)
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                ".bench_build")
    try:
        binary = build(root, build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        fail("build failed: %s" % err)

    workdir = os.path.join(build_dir, "work", "%s-%d-%d" % (
        args.workload, args.seed, os.getpid()))
    spans = os.path.join(build_dir, "spans", "%s-seed%d-trace%d.json" % (
        args.workload, args.seed, args.trace))
    os.makedirs(os.path.dirname(spans), exist_ok=True)
    try:
        code, out, peak_rss_mb = run_child([
            binary, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(args.seconds), "--trace", str(args.trace),
            "--workdir", workdir, "--spans", spans])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        fail("workload run failed with exit status %d" % code)
    result = json.loads(lines[-1])
    if not args.trace:
        result["metrics"]["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
