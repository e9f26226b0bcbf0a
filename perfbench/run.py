#!/usr/bin/env python3
"""Builds the netout benchmark from source and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload serve_zipf --seed 1 --seconds 20 --trace 0

The program is built with CMake under $CARGO_TARGET_DIR (default
.bench_build) in the checkout, in the repository's default build type.
The last line of standard output is the result: one JSON object with the
keys correct, attempted, failed and metrics. The exit code is 0 only when
every answer matched its reference.
"""

import argparse
import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "perfbench")


def source_digest():
    """SHA-256 over the library and benchmark sources, which identifies the
    code measured even where the checkout carries no git metadata."""
    digest = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            paths.extend(os.path.join(dirpath, f) for f in sorted(filenames))
    for path in paths:
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()[:16]


def commit():
    for name in ("NETOUT_BENCH_COMMIT", "GITHUB_SHA"):
        if os.environ.get(name):
            return os.environ[name]
    if os.path.isdir(os.path.join(ROOT, ".git")):
        result = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                capture_output=True, text=True)
        if result.returncode == 0:
            return result.stdout.strip()
    return "unknown"


def build(directory):
    """Configures (once) and builds the benchmark; returns the binary path."""
    steps = []
    if not os.path.exists(os.path.join(directory, "CMakeCache.txt")):
        # An empty CMAKE_BUILD_TYPE selects the repository default,
        # RelWithDebInfo, the build every test tier runs.
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", directory, "-DCMAKE_BUILD_TYPE="])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", directory, "-j", jobs])
    for step in steps:
        result = subprocess.run(step, capture_output=True, text=True,
                                timeout=BUILD_TIMEOUT_S)
        if result.returncode != 0:
            sys.stderr.write(result.stdout[-4000:] + result.stderr[-4000:])
            raise SystemExit("perfbench: build failed: " + " ".join(step))
    return os.path.join(directory, "netout_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out",
                        help="where a traced run writes its spans (default: "
                             "under the build directory)")
    parser.add_argument("--inject-mismatch", action="store_true",
                        help="corrupt one answer before checking (tests "
                             "that mismatches are reported)")
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (os.path.isdir(os.path.join(ROOT, "src"))
            and os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))):
        raise SystemExit("perfbench: no netout sources next to perfbench/")

    directory = build_dir()
    binary = build(directory)
    command = [binary,
               "--workload", args.workload,
               "--seed", str(args.seed),
               "--seconds", repr(args.seconds),
               "--trace", str(args.trace),
               "--scratch", os.path.join(directory, "scratch"),
               "--commit", commit(),
               "--source-digest", source_digest()]
    if args.trace == 1:
        spans = args.spans_out or os.path.join(
            directory, "traces", "%s-seed%d.tsv" % (args.workload, args.seed))
        os.makedirs(os.path.dirname(os.path.abspath(spans)), exist_ok=True)
        command += ["--spans-out", spans]
    if args.inject_mismatch:
        command.append("--inject-mismatch")
    try:
        result = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SystemExit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
