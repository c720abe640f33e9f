#!/usr/bin/env python3
"""Builds and runs the end-to-end mapping benchmark (see README.md).

    python3 e2ebench/run.py --workload corridor_live --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout. The first run configures and
builds e2ebench/ (the library plus the omu_e2ebench binary, Release) under
$CARGO_TARGET_DIR/e2ebench, default .bench_build/e2ebench; later runs only
let the build tool confirm it is up to date. Build output goes to
build.log there, never to stdout, so the benchmark's JSON result stays the
last line of stdout. Exits non-zero without a result if the build fails
(for example outside a full source tree) or the benchmark does.
"""
import argparse
import fcntl
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("corridor_live", "campus_paged", "college_fleet")
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures (once) and builds omu_e2ebench; returns its path or None."""
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    with open(os.path.join(build_dir, ".lock"), "w") as lock, open(log_path, "a") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)  # concurrent runs share one build
        steps = []
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            steps.append(configure)
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", build_dir, "--target", "omu_e2ebench", "-j", jobs])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                sys.stderr.write("e2ebench: build step failed: %s\n" % " ".join(step))
                return None
    return os.path.join(build_dir, "omu_e2ebench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="self-test scale")
    parser.add_argument("--corrupt-oracle", action="store_true",
                        help="self-test: compare against a wrong oracle hash")
    args = parser.parse_args()

    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "e2ebench")
    binary = build(build_dir)
    if binary is None:
        return 3
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               # Relative to the checkout root, which keeps the fleet's
               # Unix socket path under the 108-byte sun_path limit.
               "--out-dir", os.path.relpath(os.path.join(build_dir, "run"))]
    if args.tiny:
        command.append("--tiny")
    if args.corrupt_oracle:
        command.append("--corrupt-oracle")
    sys.stdout.flush()
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("e2ebench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 4


if __name__ == "__main__":
    sys.exit(main())
