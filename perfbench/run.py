#!/usr/bin/env python3
"""Build and run the simulator benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` package (its own Cargo package, depending on the
simulator crates by path) in release mode, offline, into
`$CARGO_TARGET_DIR` (default `.bench_build`), then runs one workload.
Build output goes to standard error; the benchmark's own output goes to
standard output and ends with one JSON line. Exits non-zero, without a
result, when the simulator sources are missing or the build fails.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ["node-paper", "fleet-batch", "coord-plane", "serve-dag"]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
# glibc raises its mmap threshold at run time after large frees, which
# makes whether a freed multi-megabyte cache array is reused or kept
# beside a new one depend on allocation history; peak RSS then jumps
# between two levels from seed to seed. Pinning the threshold (to glibc's
# own default) keeps every large allocation on mmap.
BENCH_ENV = {"MALLOC_MMAP_THRESHOLD_": "131072"}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def run(cmd, timeout, stdout, env=None):
    """Runs cmd to completion (killing it at the timeout) and returns its exit code."""
    proc = subprocess.Popen(cmd, stdout=stdout, env=env)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: {cmd[0]} timed out after {timeout} s", file=sys.stderr)
        return 124
    except BaseException:
        proc.kill()
        proc.wait()
        raise


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    root = os.getcwd()
    manifest = os.path.join(root, "perfbench", "Cargo.toml")
    for needed in (manifest, os.path.join(root, "crates", "cluster", "Cargo.toml")):
        if not os.path.isfile(needed):
            return fail(f"{os.path.relpath(needed, root)} not found; run from the repository root")

    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build")
    build = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    code = run(build, BUILD_TIMEOUT_S, sys.stderr, dict(os.environ, CARGO_TARGET_DIR=target))
    if code != 0:
        return fail(f"build failed with exit code {code}")

    exe = os.path.join(target, "release", "perfbench")
    sys.stdout.flush()
    return run(
        [exe, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", args.trace],
        RUN_TIMEOUT_S,
        sys.stdout,
        dict(os.environ, **BENCH_ENV),
    )


if __name__ == "__main__":
    sys.exit(main())
