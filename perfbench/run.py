#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload suite|sweep|serve|all \
        --seed N --seconds S --trace 0|1

The build goes to the directory named by CARGO_TARGET_DIR (default
.bench_build), separate from dune's own _build, with dune's shared cache
off, so everything the benchmark writes stays inside the checkout.  Build
output goes to stderr; the benchmark's last stdout line is its JSON
result.
"""

import os
import subprocess
import sys


def main():
    if not os.path.isfile("dune-project") or not os.path.isdir("lib"):
        sys.stderr.write("run.py: run from the repository root (no dune-project or lib/ here)\n")
        return 2
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", build_dir,
         "--profile", "release", "--display", "quiet", "./perfbench/bench.exe"],
        env=env, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        sys.stderr.write("run.py: build failed\n")
        return build.returncode
    exe = os.path.join(build_dir, "default", "perfbench", "bench.exe")
    return subprocess.run([exe] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
