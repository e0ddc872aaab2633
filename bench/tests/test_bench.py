"""Tests of the benchmark itself.  Run with ``python3 -m pytest bench/tests``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from itertools import islice
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from tracer import Span  # noqa: E402

monocurve = workloads.monocurve


def first_inputs(workload: str, seed: int, nblocks: int = 3) -> list:
    return [x for block in islice(inputs.blocks(workload, seed), nblocks) for x in block]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    assert first_inputs(workload, 7) == first_inputs(workload, 7)
    assert first_inputs(workload, 7) != first_inputs(workload, 8)


@pytest.mark.parametrize(
    "workload, gs, max_gen, max_mu",
    [
        ("analyze-wide", {2, 3, 4}, 2**30, None),
        ("campaign", {2, 3, 4, 5}, 10**6, None),
        ("campaign-dense", {2, 3, 4}, 600, 5000),
    ],
)
def test_semigroups_lie_in_the_workload_region(workload, gs, max_gen, max_mu):
    sgs = first_inputs(workload, 11)
    assert {sg.g for sg in sgs} == gs
    for sg in sgs:
        built = monocurve.build_semigroup(sg.gens)
        assert (built.e, built.n, built.conductor_degree()) == (sg.e, sg.n, sg.mu)
        assert sg.gens[-1] <= max_gen
        assert max_mu is None or sg.mu <= max_mu
    if workload == "analyze-wide":
        assert min(sg.gens[-1] for sg in sgs) >= 2**16


def test_oracle_systems_lie_in_the_default_budget():
    for s in first_inputs("oracle", 11):
        assert 1 <= s.d <= 10 and 1 <= len(s.a) <= 4 and max(s.k) <= 6
        assert all(a * k % s.d == 0 for a, k in zip(s.a, s.k))


def span(sid, parent, name, start, end, op=0, error=None):
    return Span(op, sid, parent, name, start * 10**6, end * 10**6, error)


def test_self_time_subtracts_covered_child_time():
    spans = [
        span(0, None, tracer.OP, 0, 100),
        span(1, 0, "zeta.characteristic_polynomial", 10, 60),
        span(2, 1, "zeta.to_cyclotomic", 20, 30),
        span(3, 1, "zeta.to_cyclotomic", 40, 50),
        span(4, 0, "qspace.count_solutions_total", 70, 90),
        span(5, 4, "qspace.l_factor", 75, 80),
        span(6, None, "odd", 0, 50),  # overlapping children count once
        span(7, 6, "a", 10, 30),
        span(8, 6, "b", 20, 40),
    ]
    got = tracer.self_times_ns(spans)
    assert {k: v // 10**6 for k, v in got.items()} == {
        0: 30, 1: 30, 2: 10, 3: 10, 4: 15, 5: 5, 6: 20, 7: 20, 8: 20
    }
    metrics = tracer.layer_metrics(spans)
    assert metrics["zeta.to_cyclotomic.calls"] == 2
    assert metrics["zeta.to_cyclotomic.self_ms"] == 20
    assert metrics["zeta.characteristic_polynomial.self_ms"] == 30
    assert metrics["qspace.calls"] == 2
    assert metrics["qspace.self_ms"] == 20


def test_ratios_count_skips_and_dense_ops():
    spans = [
        span(0, None, tracer.OP, 0, 10, op=0),
        span(1, 0, "oracle.enum_digits", 1, 2, op=0),
        span(2, 0, "oracle.enum_digits", 3, 4, op=0, error="BudgetExceeded"),
        span(3, 0, "zeta.expand", 5, 6, op=0),
        span(4, 0, "zeta.expand", 6, 7, op=0),
        span(5, None, tracer.OP, 10, 20, op=1),
        span(6, None, tracer.OP, 20, 30, op=2),
        span(7, 6, "oracle.enum_digits", 21, 22, op=2),
        span(8, 6, "oracle.enum_digits", 22, 23, op=2),
    ]
    metrics = tracer.layer_metrics(spans)
    assert metrics["oracle.enum_digits.calls"] == 4
    assert metrics["oracle.enum_digits.run_ratio"] == 0.75
    assert metrics["crosscheck.dense_ratio"] == pytest.approx(1 / 3)


def test_a_ratio_without_denominator_reads_undefined():
    metrics = tracer.layer_metrics([span(0, None, tracer.OP, 0, 10)])
    assert metrics["oracle.enum_digits.calls"] == 0
    assert metrics["oracle.enum_digits.run_ratio"] == tracer.UNDEFINED
    assert metrics["crosscheck.dense_ratio"] == 0
    assert tracer.layer_metrics([])["crosscheck.dense_ratio"] == tracer.UNDEFINED


def test_tracer_wraps_every_binding_and_restores_them():
    original = monocurve.zeta.characteristic_polynomial
    trace = tracer.Tracer()
    trace.install()
    try:
        assert monocurve.conjecture.characteristic_polynomial is not original
        assert monocurve.characteristic_polynomial is not original
        trace.active = True
        monocurve.verify_conjecture(monocurve.build_semigroup((4, 6, 13)))
        trace.active = False
    finally:
        trace.uninstall()
    assert monocurve.conjecture.characteristic_polynomial is original
    spans = trace.finished()
    by_id = {s.id: s for s in spans}
    nested = [s for s in spans if s.name == "zeta.characteristic_polynomial"]
    assert nested and all(by_id[s.parent].name in (
        "conjecture.verify_conjecture", "conjecture.pk_factorization") for s in nested)


# The layers each workload runs; the per-layer metrics of every other layer
# read 0 on it (see bench/README.md).
LAYERS_RUN = {
    "analyze-wide": {"semigroup", "qspace", "resolution", "zeta", "conjecture", "cli"},
    "campaign": {"semigroup", "qspace", "resolution", "zeta", "conjecture", "oracle", "crosscheck"},
    "campaign-dense": {"semigroup", "qspace", "resolution", "zeta", "conjecture", "oracle",
                       "crosscheck"},
    "oracle": {"qspace", "oracle"},
}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_passes_the_gate_and_runs_the_documented_layers(workload):
    trace = tracer.Tracer()
    trace.install()
    try:
        result = run.execute(workload, seed=1, seconds=0, min_ops=1, trace=trace)
    finally:
        trace.uninstall()
    assert result.attempted == len(next(inputs.blocks(workload, 1)))
    assert result.failed == 0
    layers = {s.name.split(".")[0] for s in trace.finished() if s.name != tracer.OP}
    assert layers == LAYERS_RUN[workload]


def test_gate_flags_a_wrong_analyze_output():
    sg = inputs.invariants((4, 6, 13))
    rc, text = workloads.analyze(sg)
    doc = json.loads(text)
    doc["mu"] += 1
    problems, _ = workloads.check("analyze-wide", sg, (rc, json.dumps(doc)))
    assert problems == [f"mu = {sg.mu + 1}, expected {sg.mu}"]


def test_committed_golden_matches(capsys):
    assert "0" in run.load_goldens()["oracle"]
    assert run.main(["--workload", "oracle", "--seed", "0", "--seconds", "0"]) == 0
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["correct"] is True


def test_corrupted_golden_fails_the_run(monkeypatch, capsys):
    goldens = run.load_goldens()
    digest = goldens["oracle"]["0"]
    goldens["oracle"]["0"] = ("0" if digest[0] != "0" else "1") + digest[1:]
    monkeypatch.setattr(run, "load_goldens", lambda: goldens)
    assert run.main(["--workload", "oracle", "--seed", "0", "--seconds", "0"]) == 1
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["correct"] is False


def test_fails_without_the_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "oracle", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_runs_emit_exactly_the_declared_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    for outcome, declared in (
        (run.end_to_end("oracle", 0, 0), spec["end_to_end"]),
        (run.per_layer("oracle", 0), spec["per_layer"]),
    ):
        assert outcome.correct
        got = {name: m["unit"] for name, m in outcome.metrics.items()}
        assert got == {m["name"]: m["unit"] for m in declared}
