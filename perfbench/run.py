#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first run configures and builds perfbench/ (and the engine sources it
includes from src/) under .bench_build/perfbench; later runs reuse that
build. Build output goes to stderr. A traced run (--trace 1) also runs the
decorator self-test (perfbench_selftest) and counts its failure as a failed
correctness check.

The last line of stdout is the JSON result the benchmark binary prints. The
exit code is non-zero if the build fails, the run fails, or a correctness
check fails.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures and builds both binaries; returns False on failure."""
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                          "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", BUILD, "-j4", "--target",
                      "perfbench", "perfbench_selftest"])
        for cmd in steps:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                # Leave no half-configured cache behind for the next run.
                if cmd[1] == "-S":
                    shutil.rmtree(BUILD, ignore_errors=True)
                log(f"build step failed: {' '.join(cmd)}")
                return False
    return True


def run(cmd, scratch):
    """Runs one binary with `scratch` as its data directory; returns
    (exit code, stdout)."""
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    env = dict(os.environ, PERFBENCH_SELFTEST_DIR=scratch)
    try:
        done = subprocess.run(cmd, cwd=scratch, env=env, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
        return done.returncode, done.stdout
    except subprocess.TimeoutExpired as e:
        log(f"timed out after {RUN_TIMEOUT_S}s: {' '.join(cmd)}")
        out = e.stdout.decode() if isinstance(e.stdout, bytes) else e.stdout
        return 1, out or ""
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        return 1

    scratch = os.path.join(ROOT, ".bench_build", f"data-{os.getpid()}")
    selftest_ok = True
    if args.trace:
        code, out = run([os.path.join(BUILD, "perfbench_selftest")], scratch)
        sys.stderr.write(out)
        selftest_ok = code == 0
        if not selftest_ok:
            log("decorator self-test failed")

    code, out = run([os.path.join(BUILD, "perfbench"),
                     "--workload", args.workload, "--seed", str(args.seed),
                     "--seconds", str(args.seconds),
                     "--trace", str(args.trace), "--data", scratch], scratch)
    lines = out.strip().splitlines()
    if not lines:
        log(f"benchmark printed nothing (exit {code})")
        return code or 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stdout.write(out)
        log(f"last line is not a JSON result (exit {code})")
        return code or 1
    for line in lines[:-1]:
        print(line)
    if not selftest_ok:
        result["correct"] = False
    print(json.dumps(result))
    return code if code != 0 else (0 if result["correct"] else 1)


if __name__ == "__main__":
    sys.exit(main())
