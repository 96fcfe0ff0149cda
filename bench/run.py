#!/usr/bin/env python3
"""Run one benchmark workload, or all four each in its own process.

    python3 bench/run.py --workload small-mixed --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the repository root; jcone is imported from src/.  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics: the end-to-end metrics with --trace 0, the per-layer metrics
of a traced run with --trace 1.  The full record, with the machine and BLAS
configuration, is written to bench/results/.  See bench/README.md.
"""

import os
import sys
from pathlib import Path

# Fixed before numpy is imported, here and in every child process.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("small-mixed", "large-dense", "suite", "cli")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def run_all(args) -> int:
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "jcone" / "__init__.py").is_file():
        print(f"error: no jcone sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(ROOT / "src"))
    import harness
    result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, m in result["metrics"].items():
        print(f"{args.workload} {name} {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} attempted {result['attempted']} failed {result['failed']} "
          f"correct {result['correct']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
