#!/usr/bin/env python3
"""Build and run the ntrace pipeline benchmark.

Run from the repository root:

    python3 ntbench/run.py --workload collect --seed 1 --seconds 10 --trace 0

The first invocation configures and builds ntbench (CMake, Release) into
$CARGO_TARGET_DIR, or .bench_build when that is unset; later invocations
only re-check the build. Build output goes to stderr, so the last line on
stdout is the benchmark's JSON result. Exits non-zero, without a result, when
the build fails or the benchmark does not finish.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)  # Retry from scratch next time.
            return False
    jobs = str(os.cpu_count() or 1)
    step = ["cmake", "--build", build_dir, "-j", jobs, "--target", "ntbench"]
    return subprocess.run(step, stdout=sys.stderr).returncode == 0


def main(argv):
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not build(build_dir):
        print("ntbench: build failed", file=sys.stderr)
        return 1
    seconds = 10
    if "--seconds" in argv[:-1]:
        seconds = int(argv[argv.index("--seconds") + 1])
    work_dir = os.path.join(build_dir, "work-%d" % os.getpid())
    command = [os.path.join(build_dir, "ntbench"), *argv, "--work-dir", work_dir]
    try:
        result = subprocess.run(command, timeout=120 + 2 * seconds)
    except subprocess.TimeoutExpired:
        print("ntbench: timed out", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return result.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
