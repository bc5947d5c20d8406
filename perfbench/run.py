#!/usr/bin/env python3
"""Builds and runs the DirQ benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds a
Release copy of the layer libraries plus dirq_perfbench in `.bench_build/`
(later calls rebuild incrementally); build output goes to stderr. The
binary's stdout is passed through unchanged, so its last line is the JSON
result. See perfbench/README.md.
"""

import argparse
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "dirq_perfbench"


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_child(cmd, **kwargs):
    """Runs cmd to completion; the child never outlives this process."""
    proc = subprocess.Popen(cmd, **kwargs)
    try:
        return proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"the DirQ sources are missing under {ROOT}; nothing to build")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (BUILD / "CMakeCache.txt").is_file():
        code = run_child(
            ["cmake", "-S", str(HERE), "-B", str(BUILD),
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr)
        if code != 0:
            fail("cmake configure failed")
    code = run_child(
        ["cmake", "--build", str(BUILD), "--target", "dirq_perfbench",
         "-j", jobs],
        stdout=sys.stderr)
    if code != 0 or not BINARY.is_file():
        fail("build failed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--pins", default=str(HERE / "pins.txt"),
                        help="pinned digests (default: perfbench/pins.txt)")
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be >= 0")

    # Killed from outside, this script must not leave the child running.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    build()
    sys.stdout.flush()
    code = run_child(
        [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--pins", args.pins],
        cwd=str(ROOT))
    sys.exit(code)


if __name__ == "__main__":
    main()
