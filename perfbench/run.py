#!/usr/bin/env python3
"""Build and run the edda benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload perfect-batch --seed 1 \
        --seconds 20 --trace 0

Configures and builds perfbench/ (which compiles the libraries under
src/ from source) into $CARGO_TARGET_DIR or .bench_build/, then runs
edda-perfbench with the given arguments. Its last stdout line is the
result JSON; build output goes to stderr. See perfbench/RATIONALE.md.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def run_quiet(cmd):
    """Runs a build step, sending its output to stderr."""
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    return proc.returncode == 0


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("error: edda sources (src/) not found next to "
                         "perfbench/\n")
        return None
    out = build_dir()
    binary = os.path.join(out, "edda-perfbench")
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        if not run_quiet(["cmake", "-S", HERE, "-B", out,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]):
            return None
    # Few jobs: the machine is shared.
    if not run_quiet(["cmake", "--build", out, "--target", "edda-perfbench",
                      "-j", "4"]):
        return None
    return binary if os.path.isfile(binary) else None


def main():
    binary = build()
    if binary is None:
        sys.stderr.write("error: benchmark build failed\n")
        return 1
    args = sys.argv[1:]
    if "--trace-out" not in args:
        args += ["--trace-out", os.path.join(build_dir(), "trace.jsonl")]
    proc = subprocess.run([binary] + args)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
