"""Benchmark of monocurve: one closed-loop client, one process, one thread.

Usage, from the root of a checkout::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Inputs come from ``--seed`` (see ``inputs.py``); every op is timed from
outside the package and checked (see ``workloads.py``).  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it holds the input statistics
and the timing metrics before speed scaling.

``--trace 0`` runs whole input blocks until ``--seconds`` have passed (and
at least ``MIN_OPS`` ops ran) and reports the end-to-end metrics, with
times scaled to the host's unloaded speed (see ``timing``).
``--trace 1`` runs the first ``TRACE_OPS`` ops twice, untraced and then
traced, reports the per-layer metrics of the traced pass and writes its
spans to ``.bench_out/``.

Exit status: 0 when every output is correct, 1 when one is wrong.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import inputs
import tracer
import workloads
from timing import REF_KERNEL_S, OpTimer, kernel_seconds

BENCH = Path(__file__).resolve().parent
OUT_DIR = BENCH.parent / ".bench_out"
GOLDENS = BENCH / "goldens.json"

WORKLOADS = tuple(inputs.BLOCKS)
MIN_OPS = 100  # so that at least 10 samples lie beyond p90
GOLDEN_OPS = 100  # the output digest covers the first GOLDEN_OPS ops
SETUP_REPEATS = 9
TRACE_OPS = {"analyze-wide": 126, "campaign": 400, "campaign-dense": 600, "oracle": 2000}


@dataclass
class Pass:
    """What one pass over a workload's inputs measured."""

    timer: OpTimer = field(default_factory=OpTimer)
    failed: int = 0
    digest: str | None = None  # of the first GOLDEN_OPS records, once that many ran
    stats: inputs.InputStats = field(default_factory=inputs.InputStats)

    @property
    def attempted(self) -> int:
        return self.timer.raw.n


def _call(workload: str, inp, index: int, trace: tracer.Tracer | None):
    if trace is None:
        return workloads.run_op(workload, inp)
    trace.op, trace.active = index, True
    try:
        return trace.span(tracer.OP, workloads.run_op, workload, inp)
    finally:
        trace.active = False


def execute(workload: str, seed: int, seconds: float, min_ops: int,
            trace: tracer.Tracer | None = None) -> Pass:
    """Run whole blocks of the seed's inputs until ``seconds`` passed and
    ``min_ops`` ops ran, checking every output."""
    result = Pass()
    timer = result.timer
    digest = hashlib.sha256()
    start = time.perf_counter()
    for block in inputs.blocks(workload, seed):
        for inp in block:
            index = result.attempted
            timer.before_op()
            t0 = time.perf_counter()
            try:
                out = _call(workload, inp, index, trace)
            except Exception:
                timer.add(time.perf_counter() - t0)
                problems, record = [traceback.format_exc()], "raised"
            else:
                timer.add(time.perf_counter() - t0)
                try:
                    problems, record = workloads.check(workload, inp, out)
                except Exception:
                    problems, record = [traceback.format_exc()], "check raised"
            result.stats.add(inp)
            if problems:
                result.failed += 1
                sys.stderr.write(f"FAIL op {index} {inp}: {'; '.join(problems)}\n")
            if index < GOLDEN_OPS:
                digest.update(record.encode() + b"\0")
                if index == GOLDEN_OPS - 1:
                    result.digest = digest.hexdigest()
        if result.attempted >= min_ops and time.perf_counter() - start >= seconds:
            timer.close()
            return result


def load_goldens() -> dict:
    with open(GOLDENS, encoding="utf-8") as fh:
        return json.load(fh)


def digest_ok(workload: str, seed: int, digest: str | None) -> bool:
    """False when a golden digest exists for this seed and ``digest`` differs."""
    want = load_goldens().get(workload, {}).get(str(seed))
    if want is None or digest is None:
        return True
    if digest != want:
        sys.stderr.write(f"FAIL {workload} seed {seed}: output digest {digest} != golden {want}\n")
        return False
    return True


def measure_setup(workload: str) -> tuple[float, float]:
    """Median time, scaled and raw, for a fresh interpreter to import
    monocurve and finish the workload's warm-up op."""
    code = (
        f"import sys; sys.path.insert(0, {str(BENCH)!r}); import workloads; "
        f"sys.exit(workloads.warm_up({workload!r}))"
    )
    raw, scaled = [], []
    before = kernel_seconds()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-I", "-c", code], capture_output=True, text=True, timeout=120
        )
        raw.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"warm-up op of {workload} failed:\n{proc.stderr}")
        after = kernel_seconds()
        scaled.append(raw[-1] * 2 * REF_KERNEL_S / (before + after))
        before = after
    return statistics.median(scaled), statistics.median(raw)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


@dataclass
class Outcome:
    metrics: dict
    unscaled: dict  # the timing metrics before speed scaling
    attempted: int
    failed: int
    correct: bool
    input_stats: dict


def end_to_end(workload: str, seed: int, seconds: float) -> Outcome:
    run = execute(workload, seed, seconds, MIN_OPS)
    setup_s, raw_setup_s = measure_setup(workload)
    units = {"throughput_ops_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms"}
    metrics = {n: _metric(v, units[n]) for n, v in run.timer.summary().items()}
    metrics["ok_ratio"] = _metric((run.attempted - run.failed) / run.attempted, "ratio")
    metrics["setup_s"] = _metric(setup_s, "s")
    metrics["peak_rss_mb"] = _metric(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    return Outcome(
        metrics=metrics,
        unscaled={**run.timer.summary(scaled=False), "setup_s": raw_setup_s},
        attempted=run.attempted,
        failed=run.failed,
        correct=run.failed == 0 and digest_ok(workload, seed, run.digest),
        input_stats=run.stats.summary(),
    )


def per_layer(workload: str, seed: int) -> Outcome:
    ops = TRACE_OPS[workload]
    plain = execute(workload, seed, 0, ops)
    trace = tracer.Tracer()
    trace.install()
    try:
        traced = execute(workload, seed, 0, ops, trace)
    finally:
        trace.uninstall()
    spans = trace.finished()
    _write_spans(workload, seed, spans)
    values = tracer.layer_metrics(spans)
    # The same ops ran on both passes, so the throughput ratio is the time ratio.
    values["trace.overhead_ratio"] = (
        plain.timer.summary()["throughput_ops_s"] / traced.timer.summary()["throughput_ops_s"]
    )
    metrics = {
        name: _metric(v, "ratio" if name.endswith("_ratio") else
                      "ms" if name.endswith("_ms") else "count")
        for name, v in values.items()
    }
    same = traced.digest == plain.digest
    if not same:
        sys.stderr.write(f"FAIL {workload} seed {seed}: traced outputs differ from untraced\n")
    failed = plain.failed + traced.failed
    return Outcome(
        metrics=metrics,
        unscaled={"trace.overhead_ratio": traced.timer.raw.total / plain.timer.raw.total},
        attempted=plain.attempted + traced.attempted,
        failed=failed,
        correct=failed == 0 and same and digest_ok(workload, seed, plain.digest),
        input_stats=plain.stats.summary(),
    )


def _write_spans(workload: str, seed: int, spans: list[tracer.Span]) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for s in spans:
            fh.write(json.dumps([s.op, s.id, s.parent, s.name, s.start_ns, s.end_ns, s.error]) + "\n")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.trace:
        out = per_layer(args.workload, args.seed)
    else:
        out = end_to_end(args.workload, args.seed, args.seconds)
    print(json.dumps({"input_stats": out.input_stats, "unscaled": out.unscaled}))
    print(json.dumps({
        "correct": out.correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": out.metrics,
    }))
    return 0 if out.correct else 1


if __name__ == "__main__":
    sys.exit(main())
