#!/usr/bin/env python3
"""Builds tydic and the benchmark from source, then runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Both builds go to $CARGO_TARGET_DIR (default: .bench_build at the
repository root). Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def cargo_build(target, *args):
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    result = subprocess.run(
        ["cargo", "build", "--release", "--offline", "-q", *args],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if result.returncode != 0:
        fail(f"cargo build {' '.join(args)} failed with exit code {result.returncode}")


def main():
    for needed in ["Cargo.toml", "src/bin/tydic.rs", "cookbook", "tests/golden/vhdl"]:
        if not (ROOT / needed).exists():
            fail(f"`{needed}` is missing: run this from a full checkout of the repository")
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    cargo_build(target, "--bin", "tydic")
    cargo_build(target, "--manifest-path", "perfbench/Cargo.toml")
    bench = target / "release" / "perfbench"
    tydic = target / "release" / "tydic"
    command = [str(bench), "--root", str(ROOT), "--tydic", str(tydic), *sys.argv[1:]]
    sys.exit(subprocess.run(command, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
