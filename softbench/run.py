#!/usr/bin/env python3
"""Build and run softbench, SoftDB's benchmark.

Usage, from the repository root:

    python3 softbench/run.py --workload serve_point --seed 1 --seconds 10 --trace 0

Configures and builds the benchmark (a CMake project that compiles the
engine from ./src) into $CARGO_TARGET_DIR/softbench, or
.bench_build/softbench when that variable is unset, then runs it with the
given arguments. The benchmark's own output, whose last line is the JSON
result, goes to stdout; build logs go to stderr.
"""

import os
import subprocess
import sys

RUN_TIMEOUT_S = 170


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        sys.stderr.write("softbench: engine sources (src/) not found next to "
                         + here + "\n")
        return 2
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_root):
        build_root = os.path.join(root, build_root)
    build_dir = os.path.join(build_root, "softbench")
    workdir = os.path.join(build_root, "softbench-work")

    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", here, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "softbench",
                  "-j", "4"])
    for cmd in steps:
        built = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if built.returncode != 0:
            sys.stderr.write("softbench: build failed: " + " ".join(cmd)
                             + "\n")
            return 1

    binary = os.path.join(build_dir, "softbench")
    cmd = [binary] + sys.argv[1:] + ["--workdir", workdir]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("softbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1


if __name__ == "__main__":
    sys.exit(main())
