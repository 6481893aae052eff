#!/usr/bin/env python3
"""Builds and runs the CSOD benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --smoke

The benchmark is its own CMake package (perfbench/CMakeLists.txt) that
compiles the checkout's ../src libraries. The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) inside the
checkout. The last line of standard output is the result JSON; build logs
go to standard error. Exits non-zero, without a result line, when the build
or the run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# One run must end well inside 180 s; the first build gets its own budget.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(target):
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "--target", target, "-j", jobs],
                   check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return os.path.join(out, target)


def git_commit():
    # Look only at the checkout itself, never at directories above it.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        result = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                                capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return result.stdout.strip() if result.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="build and run the benchmark's own smoke test")
    args = parser.parse_args()
    if not args.smoke and not args.workload:
        parser.error("--workload is required")

    try:
        binary = build("perfbench_smoke" if args.smoke else "perfbench")
    except (OSError, subprocess.SubprocessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    if args.smoke:
        return subprocess.run([binary], timeout=RUN_TIMEOUT_S).returncode

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--git-commit", git_commit()]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            build_dir(), f"trace-{args.workload}-seed{args.seed}.jsonl")]
    try:
        run = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    sys.stderr.write(run.stderr)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        sys.stdout.write(run.stdout)
        print(f"perfbench: run failed (exit {run.returncode})", file=sys.stderr)
        return 1
    try:
        json.loads(lines[-1])
    except ValueError:
        print("perfbench: the run printed no result line", file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
