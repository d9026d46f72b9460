#!/usr/bin/env python3
"""Builds the benchmark in release mode and runs one workload.

Usage, from anywhere in the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: paper-regen, daemon-rounds, scan-1m, follow-replay (see
perfbench/README.md). The build goes to $CARGO_TARGET_DIR, or to
.bench_build at the repository root when that is unset. The last line of
standard output is the run's result: one JSON object with the keys
correct, attempted, failed and metrics. Exits non-zero, without a
result, when the build or the run fails.
"""

import os
import subprocess
import sys
from pathlib import Path

# The first build compiles every crate; later runs only check freshness.
BUILD_TIMEOUT_S = 840
# A run must end within 180 s; the workloads are sized well below that.
RUN_TIMEOUT_S = 170
# Workloads whose inputs the program fixes (Lab and Daemon seed
# themselves), so --seed does not change what they run.
FIXED_SEED = ("paper-regen", "daemon-rounds")


def rustc_version():
    try:
        done = subprocess.run(["rustc", "--version"], capture_output=True, text=True, timeout=60)
        return done.stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def arg_value(args, flag):
    if flag in args and args.index(flag) + 1 < len(args):
        return args[args.index(flag) + 1]
    return "?"


def main():
    root = Path(__file__).resolve().parent.parent
    os.chdir(root)
    env = dict(os.environ)
    target = Path(env.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    try:
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", "perfbench/Cargo.toml"],
            stdout=sys.stderr,
            env=env,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build did not finish: {e}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print(f"perfbench: build failed with code {build.returncode}", file=sys.stderr)
        return build.returncode or 1

    args = sys.argv[1:]
    print(
        f"host: nproc {len(os.sched_getaffinity(0))}, {rustc_version()}, "
        f"seed {arg_value(args, '--seed')}, workloads with program-fixed seeds: {', '.join(FIXED_SEED)}",
        flush=True,
    )
    binary = target / "release" / "perfbench"
    try:
        run = subprocess.run([str(binary), *args], env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s and was stopped", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
