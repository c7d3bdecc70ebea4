"""Command line of the repository benchmark.

    python3 -m perfbench --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Prints the metrics by name with their
units, then, as the last line, the result object.  Exits 2 without a
result when the repository's ``src/repro`` package is missing, and 1
when the run itself fails.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    """Parse arguments, run one workload, print the report."""
    parser = argparse.ArgumentParser(prog="python3 -m perfbench")
    parser.add_argument("--workload", required=True,
                        choices=("fig8", "build", "serve_bulk"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    # Every measured section runs single-threaded.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"

    from perfbench.harness import run

    report = run(ROOT, args.workload, args.seed, args.seconds, bool(args.trace))
    for line in report.lines:
        print(line)
    print(json.dumps(report.result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
