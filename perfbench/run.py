#!/usr/bin/env python3
"""Build arbx and the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload <query-mix|kb-durable|routed> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds go to $CARGO_TARGET_DIR (default
`.bench_build`); build output goes to stderr, so the last line of
standard output is the benchmark's JSON result.
"""
import os
import subprocess
import sys


def main():
    root = os.getcwd()
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "-p", "arbitrex-cli", "--bin", "arbx"],
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         os.path.join("perfbench", "Cargo.toml")],
    ]
    for cmd in builds:
        done = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1
    release = os.path.join(target, "release")
    cmd = [os.path.join(release, "perfbench"), "--arbx", os.path.join(release, "arbx")]
    cmd += sys.argv[1:]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
