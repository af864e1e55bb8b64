#!/usr/bin/env python3
"""Build and run the repository benchmark from the repository root.

    python3 perfbench/run.py --workload sim-d3-cold --seed 1 --seconds 40 --trace 0

Builds perfbench/main.exe with dune into .bench_build/ (release profile,
dune cache off, so nothing is written outside the working directory),
then runs it with the given arguments, plus the time it starts the
process (`--spawned-at`), from which the benchmark times its set-up. The benchmark's report and its
final JSON line go to standard output; build output goes to standard
error. Exits non-zero without a result when the repository sources are
missing or the build fails.

`--workload all` runs every workload in turn, each in its own process.
"""
import os
import subprocess
import sys
import time

BUILD_DIR = ".bench_build"
TARGET = "./perfbench/main.exe"
WORKLOADS = ["sim-d3-cold", "serve-mix-closed"]


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: dune-project and lib/ not found; run from the "
              "repository root", file=sys.stderr)
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    # measure the program's defaults, whatever the caller's environment
    for knob in ("CHC_DOMAINS", "CHC_KERNEL", "CHC_POLY"):
        env.pop(knob, None)
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
         "--profile", "release", TARGET],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")

    def run(args):
        spawned_at = repr(time.time())
        return subprocess.run([exe] + args + ["--spawned-at", spawned_at],
                              env=env).returncode

    args = sys.argv[1:]
    if "--workload" in args and args[args.index("--workload") + 1:][:1] == ["all"]:
        i = args.index("--workload") + 1
        return max(run(args[:i] + [w] + args[i + 1:]) for w in WORKLOADS)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
