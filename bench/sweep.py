"""g = 2 scaling sweep: ``monocurve analyze`` time against generator bit length.

A report, not a workload.  Usage, from the root of a checkout::

    python3 bench/sweep.py > bench/sweep_baseline.json

Point ``B`` analyzes ``(2p, 2p + 2, 2^(B-1) + 1)`` with ``p`` the largest
integer such that ``2p(p + 1) < 2^(B-1)``: a plane-branch semigroup with
``g = 2``, ``n = (p + 1, p, 2)`` and a largest generator of exactly ``B``
bits.  Each point runs once in a fresh interpreter and is checked by the
benchmark's gate.  A point that runs past ``CAP_S`` seconds is killed and
reported as "did not finish"; the larger points after it are reported as
"skipped", never dropped.  The report, printed on standard output, records
the machine, the Python version and the CPU count; progress goes to
standard error.
"""

from __future__ import annotations

import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
BITS = range(10, 81, 2)
CAP_S = 20  # seconds per point

CHILD = """
import json, sys, time
sys.path.insert(0, {bench!r})
import inputs, workloads
sg = inputs.invariants({gens!r})
t0 = time.perf_counter()
out = workloads.analyze(sg)
seconds = time.perf_counter() - t0
problems, _ = workloads.check("analyze-wide", sg, out)
print(json.dumps({{"seconds": seconds, "problems": problems}}))
"""


def sweep_gens(bits: int) -> tuple[int, int, int]:
    top = 2 ** (bits - 1)
    p = math.isqrt(top // 2)  # 2p^2 <= top < 2(p+1)^2
    if 2 * p * (p + 1) >= top:
        p -= 1
    return 2 * p, 2 * p + 2, top + 1


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def point(bits: int) -> dict:
    gens = sweep_gens(bits)
    entry = {"bits": bits, "gens": list(gens)}
    code = CHILD.format(bench=str(BENCH), gens=gens)
    try:
        proc = subprocess.run(
            [sys.executable, "-I", "-c", code], capture_output=True, text=True, timeout=CAP_S
        )
    except subprocess.TimeoutExpired:
        return {**entry, "status": "did not finish", "cap_s": CAP_S}
    if proc.returncode != 0:
        return {**entry, "status": "error", "stderr": proc.stderr.strip().splitlines()[-1:]}
    result = json.loads(proc.stdout)
    entry.update(status="wrong output" if result["problems"] else "ok", seconds=result["seconds"])
    if result["problems"]:
        entry["problems"] = result["problems"]
    return entry


def main() -> int:
    points, stopped = [], None
    for bits in BITS:
        if stopped is not None:
            points.append({"bits": bits, "gens": list(sweep_gens(bits)), "status": "skipped",
                           "reason": f"{stopped} bits did not finish"})
            continue
        points.append(point(bits))
        sys.stderr.write(json.dumps(points[-1]) + "\n")
        if points[-1]["status"] == "did not finish":
            stopped = bits
    report = {
        "what": "monocurve analyze --format json, g = 2, one fresh interpreter per point",
        "machine": {"platform": platform.platform(), "cpu": _cpu_model(), "nproc": os.cpu_count()},
        "python": platform.python_version(),
        "cap_s": CAP_S,
        "points": points,
    }
    print(json.dumps(report, indent=1))
    bad = [p for p in points if p["status"] in ("error", "wrong output")]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
