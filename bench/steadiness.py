"""Steadiness record: two sets of ten seeded runs of every workload.

Usage, from the root of a checkout::

    python3 bench/steadiness.py > bench/steadiness_baseline.json

Each set runs ``bench/run.py --trace 0`` once per workload and seed 0-9,
for the ``run_seconds`` of ``BENCHMARK.json``; the second set repeats the
first.  For every end-to-end metric the report keeps the ten values of each
set, their median and their quartile spread (the distance between the first
and third quartile, as ``statistics.quantiles(values, n=4)`` gives them, over
the median), and how much worse the second median is than the first, as a
share of the first.  Each is compared with the metric's bound: a spread must
stay within the bound and should stay below a third of it (``setup_s`` is
exempt), and the second median must not be worse by more than the bound.
Progress goes to standard error.  Exit status 1 when a run fails or a check
does not hold.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import sys

from inputs import BLOCKS
from report import load_spec, run_workload

SEEDS = range(10)
SETS = 2
SPREAD_EXEMPT = {"setup_s"}


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    spec = load_spec()
    seconds = spec["run_seconds"]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    ok = True
    report = {
        "what": f"bench/run.py --trace 0, {seconds} s per run, seeds {SEEDS[0]}-{SEEDS[-1]}, "
                f"{SETS} sets, one run at a time",
        "machine": {"platform": platform.platform(), "nproc": os.cpu_count()},
        "python": platform.python_version(),
        "workloads": {},
    }
    values = {w: [{name: [] for name in metrics} for _ in range(SETS)] for w in BLOCKS}
    for s in range(SETS):
        for workload in BLOCKS:
            for seed in SEEDS:
                result, err = run_workload(workload, seed, seconds)
                if result is None or not result["correct"]:
                    sys.stderr.write(f"FAIL {workload} seed {seed}: {err}\n")
                    return 1
                for name in metrics:
                    values[workload][s][name].append(result["metrics"][name]["value"])
                sys.stderr.write(f"set {s + 1} {workload} seed {seed} done\n")
    for workload in BLOCKS:
        out = report["workloads"][workload] = {}
        for name, m in metrics.items():
            sets = [values[workload][s][name] for s in range(SETS)]
            medians = [statistics.median(v) for v in sets]
            sign = 1 if m["better"] == "lower" else -1
            worse = sign * (medians[-1] - medians[0]) / medians[0]
            spreads = [spread(v) for v in sets]
            checks = {"second_not_worse_by_bound": worse <= m["bound"]}
            if name not in SPREAD_EXEMPT:
                checks["spread_within_bound"] = max(spreads) <= m["bound"]
                checks["spread_below_third_of_bound"] = max(spreads) < m["bound"] / 3
            ok = ok and all(checks.values())
            out[name] = {
                "unit": m["unit"],
                "bound": m["bound"],
                "values": sets,
                "medians": medians,
                "spreads": spreads,
                "second_worse_by": worse,
                "checks": checks,
            }
    report["all_checks_hold"] = ok
    print(json.dumps(report, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
