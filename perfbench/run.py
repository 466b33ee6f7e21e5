#!/usr/bin/env python3
"""Builds the benchmark from source and runs it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --test        # the benchmark's own tests

Run from the repository root. Builds `perfbench` and the product's
`ftserve` binary with the release profile into $CARGO_TARGET_DIR
(default `.bench_build`), then runs the benchmark with the given
arguments (`--workload all` runs the four workloads in turn). Build output goes to standard error, so the last line of
standard output is the benchmark's JSON result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")
WORKLOADS = ["churn_ftn", "storm_benes", "serve_storm", "mc_static"]


def cargo(args, env):
    cmd = ["cargo"] + args + ["--release", "--offline", "--manifest-path", MANIFEST]
    return subprocess.run(cmd, env=env, stdout=sys.stderr).returncode


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for build in (["build", "--quiet"], ["build", "--quiet", "-p", "ft-serve", "--bin", "ftserve"]):
        code = cargo(build, env)
        if code != 0:
            return code
    if sys.argv[1:] == ["--test"]:
        return cargo(["test"], env)
    exe = os.path.join(target, "release", "perfbench")
    args = sys.argv[1:]
    if args[:2] == ["--workload", "all"]:
        runs = [[exe, "--workload", w] + args[2:] for w in WORKLOADS]
    else:
        runs = [[exe] + args]
    return max(subprocess.run(cmd, env=env).returncode for cmd in runs)


if __name__ == "__main__":
    sys.exit(main())
