#!/usr/bin/env python3
"""Builds and runs the repository benchmark (perfbench/perfbench.cpp).

Usage, from the repository root:

    python3 perfbench/run.py --workload anchor-batch --seed 1 --seconds 10 --trace 0

The first call configures and builds the ftsched libraries from ../src and
the benchmark binary (RelWithDebInfo) into $CARGO_TARGET_DIR, or
.bench_build when that is unset; later calls only re-check the build. Build
output goes to stderr, so the last stdout line is the benchmark's JSON
result. A traced run (--trace 1) writes its spans to
<build dir>/traces/<workload>.jsonl. perfbench/METRICS.md lists every
metric and workload.
"""

import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
# The binary bounds its own timed loop to --seconds; set-up, verification
# and the cross-checks after the loop take less than that again. The
# timeout only stops a hung process.
TIMEOUT_MARGIN_S = 60


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no ftsched sources at " + os.path.join(ROOT, "src"), 2)
    if shutil.which("cmake") is None:
        fail("cmake not found", 2)
    tmp_dir = os.path.join(build_dir, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja") is not None:
            configure += ["-G", "Ninja"]
        step(configure, env)
    jobs = str(min(4, os.cpu_count() or 1))
    step(["cmake", "--build", build_dir, "--target", "perfbench",
          "-j", jobs], env)
    return os.path.join(build_dir, "perfbench")


def step(cmd, env):
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail("build step failed: " + " ".join(cmd))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0", 2)

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    binary = build(build_dir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(trace_dir, args.workload + ".jsonl")]
    sys.stdout.flush()
    timeout_s = 2 * args.seconds + TIMEOUT_MARGIN_S
    try:
        proc = subprocess.run(cmd, timeout=timeout_s)
    except subprocess.TimeoutExpired:
        fail("benchmark exceeded %g s" % timeout_s)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
