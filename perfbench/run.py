#!/usr/bin/env python3
"""Builds and runs the Fig 6 end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. Workloads: privilege_matrix,
edit_rebuild_push, cold_launch_p2p. Every run configures (once) and builds
the minicon libraries and the benchmark with CMake (RelWithDebInfo) into
$CARGO_TARGET_DIR, or .bench_build when that is unset; later runs rebuild
only what changed. Build output goes to stderr, so the last line of stdout
is the benchmark's JSON result. All arguments are passed to the benchmark
binary (perfbench/main.cpp documents them).
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                           os.path.join(ROOT, ".bench_build"))


def build():
    """Returns the path of the benchmark binary, building it if needed."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no minicon sources at %s/src" % ROOT)
    out = build_dir()
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target",
                  "fig6_bench"])
    for cmd in steps:
        rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode
        if rc != 0:
            sys.exit("perfbench: build step failed (%d): %s" %
                     (rc, " ".join(cmd)))
    return os.path.join(out, "fig6_bench")


def main():
    binary = build()
    sys.stdout.flush()
    try:
        rc = subprocess.run([binary] + sys.argv[1:],
                            timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: benchmark exceeded %d s" % RUN_TIMEOUT_S)
    return rc


if __name__ == "__main__":
    sys.exit(main())
