#!/usr/bin/env python3
"""Builds and runs the repository's end-to-end benchmark (README.md here).

Run from the repository root:

    python3 perfbench/run.py --workload fast-path --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all            # every workload

The first run configures and builds perfbench/ (which compiles ../src) into
.bench_build/perfbench; later runs rebuild only what changed. The last line
of standard output is the run's JSON result; with --workload all there is
one result line per workload. Exits non-zero when the build fails or a
correctness check fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["fast-path", "tpcc-remote", "sim-fig1"]


def build(build_dir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: repository sources (src/) not found")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if _have("ninja") else []
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir] + generator,
            check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "m2perf")


def _have(tool):
    return any(os.access(os.path.join(d, tool), os.X_OK)
               for d in os.environ.get("PATH", "").split(os.pathsep))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    parser.add_argument("--inject-uncommitted", type=int, default=0,
                        help="test hook: commands that can never commit")
    args = parser.parse_args()

    os.chdir(ROOT)
    build_dir = os.path.join(ROOT, ".bench_build", "perfbench")
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        sys.exit("perfbench: build failed: %s" % e)
    trace_dir = os.path.join(ROOT, ".bench_build", "traces")
    os.makedirs(trace_dir, exist_ok=True)

    status = 0
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        cmd = [binary, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--trace-dir", trace_dir,
               "--inject-uncommitted", str(args.inject_uncommitted)]
        sys.stdout.flush()
        rc = subprocess.run(cmd).returncode
        if rc != 0:
            status = rc
    return status


if __name__ == "__main__":
    sys.exit(main())
