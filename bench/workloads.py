"""The benchmark's operations and the correctness gate for each of them.

An operation is one unit of user work, made through monocurve's public
functions as a user would make it.  :func:`check` inspects its output
against the benchmark's own invariants and returns the problems found plus
a canonical record of the output, which feeds the golden digest.  Functions
are looked up on the ``monocurve`` modules at call time, so a tracer that
replaces them sees every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
if not (SRC / "monocurve" / "__init__.py").is_file():
    raise ImportError(f"no monocurve sources under {SRC}: run from a checkout of the repository")
sys.path.insert(0, str(SRC))  # this checkout's monocurve, never an installed copy

import monocurve  # noqa: E402
import monocurve.cli  # noqa: E402

from inputs import Semigroup, System, invariants  # noqa: E402


def analyze(sg: Semigroup):
    """``monocurve analyze --gens ... --format json``, in-process, stdout captured."""
    out = io.StringIO()
    argv = ["analyze", "--gens", ",".join(map(str, sg.gens)), "--format", "json"]
    with contextlib.redirect_stdout(out):
        rc = monocurve.cli.main(argv)
    return rc, out.getvalue()


def campaign(sg: Semigroup):
    """``cross_check(build_semigroup(gens))``; returns the validated semigroup too."""
    built = monocurve.build_semigroup(sg.gens)
    return built, monocurve.cross_check(built)


def oracle(system: System):
    """Closed-form count of ``system`` and its count by enumeration."""
    qtype = monocurve.CyclicQuotientType((system.d,), (system.a,))
    if system.mode == "total":
        closed = monocurve.count_solutions_total(qtype, system.k)
    else:
        closed = monocurve.count_solutions_fixed_tail(qtype, system.k[0])
    return closed, monocurve.enum_count_solutions(qtype, system.k, system.c, system.mode)


def _check_analyze(sg: Semigroup, out) -> tuple[list[str], str]:
    rc, text = out
    doc = json.loads(text)
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}")
    for key, want in (("gens", sg.gens), ("e", sg.e), ("n", sg.n)):
        if doc[key] != list(want):
            problems.append(f"{key} = {doc[key]}, expected {list(want)}")
    if doc["g"] != sg.g:
        problems.append(f"g = {doc['g']}, expected {sg.g}")
    if doc["mu"] != sg.mu:
        problems.append(f"mu = {doc['mu']}, expected {sg.mu}")
    factors = doc["delta"]["factors"]
    degree = sum(a * e for a, e in factors["num"]) - sum(a * e for a, e in factors["den"])
    if degree != sg.mu:
        problems.append(f"deg Delta = {degree}, expected mu = {sg.mu}")
    if not doc["conjecture_pass"] or not all(p["verdict"] for p in doc["poles"]):
        problems.append("conjecture verdict false")
    return problems, text


def _check_campaign(sg: Semigroup, out) -> tuple[list[str], str]:
    built, failures = out
    problems = list(failures)
    report = monocurve.verify_conjecture(built)
    if not report.passed:
        problems.append("conjecture verdict false")
    degree = report.delta.product.degree()
    if report.delta.mu != sg.mu or degree != sg.mu:
        problems.append(f"Delta: mu {report.delta.mu}, degree {degree}, expected {sg.mu}")
    record = "\n".join(
        [json.dumps(failures), report.to_json_text(), report.delta.product.render()]
    )
    return problems, record


def _check_oracle(system: System, out) -> tuple[list[str], str]:
    closed, enumerated = out
    problems = []
    if closed != enumerated:
        problems.append(f"closed form {closed} != enumeration {enumerated}")
    c = ",".join(str(x) for x in system.c)
    return problems, f"{system.d} {system.a} {system.k} {c} {system.mode} {closed} {enumerated}"


OPS = {
    "analyze-wide": (analyze, _check_analyze),
    "campaign": (campaign, _check_campaign),
    "campaign-dense": (campaign, _check_campaign),
    "oracle": (oracle, _check_oracle),
}


def run_op(workload: str, inp):
    return OPS[workload][0](inp)


def check(workload: str, inp, out) -> tuple[list[str], str]:
    """Problems with ``out`` (empty when correct) and its canonical record."""
    return OPS[workload][1](inp, out)


# A fixed input per workload, so set-up time does not depend on the seed.
WARM_UP = {
    "analyze-wide": invariants((4, 6, 13)),
    "campaign": invariants((8, 12, 26, 53)),
    "campaign-dense": invariants((12, 18, 37)),
    "oracle": System(d=6, a=(1, 2, 3), k=(6, 3, 2), c=(Fraction(0),) * 3, mode="total"),
}


def warm_up(workload: str) -> int:
    """Run and check the warm-up op of ``workload``; 0 when it is correct."""
    inp = WARM_UP[workload]
    problems, _ = check(workload, inp, run_op(workload, inp))
    return 1 if problems else 0
