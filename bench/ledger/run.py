#!/usr/bin/env python3
"""Build perf_ledger from this checkout and run one workload.

    python3 bench/ledger/run.py --workload offline-relay --seed 1 \
        --seconds 20 --trace 0

Run from the checkout root. The build tree, work files and spans all
live under .bench_build/perf_ledger; build output goes to stderr. The
last stdout line is the run's result as JSON:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}} with
the end-to-end metrics (--trace 0) or the per-layer ones (--trace 1).
The exit code is perf_ledger's: 0 only when every check passed.
"""

import argparse
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BUILD = Path(".bench_build") / "perf_ledger"


def build() -> bool:
    steps = []
    if not (ROOT / BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", "bench/ledger", "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j4",
                  "--target", "perf_ledger"])
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            return False
    return True


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    if not build():
        print("run.py: building perf_ledger failed", file=sys.stderr)
        return 1
    # Relative paths keep the daemon's unix socket paths short.
    cmd = [str(BUILD / "perf_ledger"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--workdir", str(BUILD / "work")]
    if args.trace:
        cmd += ["--trace", str(BUILD / f"spans-{args.workload}.json")]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
