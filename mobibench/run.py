#!/usr/bin/env python3
"""Build and run the mobicache benchmark.

    python3 mobibench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a mobicache checkout. The first call configures and
builds mobibench/ (a standalone CMake package that compiles ../src) into
$CARGO_TARGET_DIR/mobibench, or .bench_build/mobibench when that is
unset; later calls only rebuild what changed. Build output goes to
stderr, so the last line of stdout is the benchmark's result line.

Exit codes: 0 ok, 1 build failure or failed output check, 2 usage error.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("station_hot", "fleet_skewed", "fleet_mobile", "coop_writes")
BUILD_JOBS = "3"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not 1 <= args.seconds <= 600:
        parser.error("--seconds must be in [1, 600]")
    return args


def build_dir():
    root = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return root / "mobibench"


def build(out_dir):
    """Configures (once) and builds mobibench; returns its path or None."""
    steps = []
    if not (out_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out_dir), "--target", "mobibench",
                  "-j", BUILD_JOBS])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as err:
            print(f"mobibench: cannot run {step[0]}: {err}", file=sys.stderr)
            return None
        if done.returncode != 0:
            print(f"mobibench: build step failed: {' '.join(step)}",
                  file=sys.stderr)
            return None
    return out_dir / "mobibench"


def main(argv):
    args = parse_args(argv)
    if not (BENCH_DIR.parent / "src").is_dir():
        print("mobibench: no library sources next to the benchmark; run it "
              "from a mobicache checkout", file=sys.stderr)
        return 1
    binary = build(build_dir())
    if binary is None:
        return 1
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
