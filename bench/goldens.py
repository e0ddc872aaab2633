"""Capture the output digests that the correctness gate compares against.

Usage, from the root of a checkout::

    python3 bench/goldens.py

For every workload and each seed ``0 .. SEEDS-1`` it runs the first
``run.GOLDEN_OPS`` ops, checks them, and writes the sha256 of their output
records to ``bench/goldens.json``.  Capture only from a commit whose outputs
are known good: every later commit must reproduce them byte for byte.
"""

from __future__ import annotations

import json
import sys

import run

SEEDS = 50


def main() -> int:
    goldens = {}
    for workload in run.WORKLOADS:
        goldens[workload] = {}
        for seed in range(SEEDS):
            result = run.execute(workload, seed, 0, run.GOLDEN_OPS)
            if result.failed:
                sys.stderr.write(f"error: {workload} seed {seed} has failing ops\n")
                return 1
            goldens[workload][str(seed)] = result.digest
    with open(run.GOLDENS, "w", encoding="utf-8") as fh:
        json.dump(goldens, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
