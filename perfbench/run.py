#!/usr/bin/env python3
"""Build the benchmark harness from source and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload synth|serve|query --seed N \
        --seconds S --trace 0|1

The harness (perfbench/harness) is a Cargo package of its own that depends
on the repository's crates by path.  It is built in release mode into
$CARGO_TARGET_DIR (default: .bench_build in the current directory), then run
with the same arguments.  Its last line of standard output, one JSON object
with the keys correct/attempted/failed/metrics, is passed through as the last
line of this script's standard output; everything else goes to standard
error.  Any failure to build or run exits non-zero without printing a result.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "harness", "Cargo.toml")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["synth", "serve", "query"])
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=[0, 1])
    return p.parse_args()


def build(target_dir):
    if not os.path.isfile(MANIFEST):
        fail(f"missing {MANIFEST}")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", MANIFEST]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail(f"build failed with exit code {done.returncode}")
    binary = os.path.join(target_dir, "release", "perfbench-harness")
    if not os.path.isfile(binary):
        fail(f"build produced no {binary}")
    return binary


def main():
    args = parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(target_dir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        # subprocess.run kills and reaps the harness on timeout
        done = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"harness did not finish: {e}")
    lines = done.stdout.decode().strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"harness exited with code {done.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as e:
        fail(f"harness printed no JSON result: {e}")
    if set(result) != RESULT_KEYS or not result["metrics"]:
        fail(f"malformed result keys {sorted(result)}")
    print(lines[-1])


if __name__ == "__main__":
    main()
