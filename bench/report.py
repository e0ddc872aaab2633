"""Run every workload once and print its end-to-end metrics with their units.

Usage, from the root of a checkout::

    python3 bench/report.py

Each workload runs in its own ``bench/run.py`` process, with seed 0 and the
``run_seconds`` of ``BENCHMARK.json``.  Exit status 1 when any workload's
outputs are wrong or its run fails.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from inputs import BLOCKS

BENCH = Path(__file__).resolve().parent
RUN = BENCH / "run.py"
SEED = 0


def load_spec() -> dict:
    return json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_workload(workload: str, seed: int, seconds: int) -> tuple[dict | None, str]:
    """One untraced ``run.py`` run: its result line, or None when it failed,
    and its standard error."""
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, f"exit {proc.returncode}\n{proc.stderr[-2000:]}"
    return json.loads(lines[-1]), proc.stderr


def main() -> int:
    seconds = load_spec()["run_seconds"]
    ok = True
    print(f"{'workload':<16}{'metric':<18}{'value':>14}  unit")
    for workload in BLOCKS:
        result, err = run_workload(workload, SEED, seconds)
        if result is None:
            ok = False
            print(f"{workload:<16}FAILED ({err})")
            continue
        for name, m in result["metrics"].items():
            print(f"{workload:<16}{name:<18}{m['value']:>14.6g}  {m['unit']}")
        print(f"{workload:<16}{'ops':<18}{result['attempted']:>14}  count")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
