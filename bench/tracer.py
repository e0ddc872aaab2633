"""Stdlib-only span tracer for monocurve, applied from outside the package.

:meth:`Tracer.install` replaces each public function of the traced modules
with a wrapper in every ``monocurve`` namespace that binds it (so the call
``conjecture.characteristic_polynomial(...)`` inside ``verify_conjecture`` is
traced as ``zeta.characteristic_polynomial``), and wraps
``CharacteristicPolynomial.expand`` as ``zeta.expand``.  Spans are kept in
memory; :func:`layer_metrics` derives the per-layer counts and self times.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from dataclasses import dataclass

LAYERS = ("semigroup", "qspace", "resolution", "zeta", "conjecture", "oracle", "crosscheck", "cli")
OP = "op"  # root span the runner opens around each operation
UNDEFINED = -1.0  # a ratio whose denominator is 0


@dataclass(frozen=True)
class Span:
    op: int  # index of the operation the span belongs to
    id: int
    parent: int | None
    name: str
    start_ns: int
    end_ns: int
    error: str | None  # exception class name, if the call raised


class Tracer:
    """Records one span per traced call while :attr:`active` is true."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.active = False
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn(*args, **kwargs)`` inside a span called ``name``."""
        if not self.active:
            return fn(*args, **kwargs)
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(sid)
        error = None
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[sid] = Span(self.op, sid, parent, name, start, end, error)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        return traced

    def install(self) -> None:
        """Wrap the public functions of every layer in every namespace binding them."""
        names = {}
        for layer in LAYERS:
            module = importlib.import_module(f"monocurve.{layer}")
            for attr in module.__all__:
                obj = getattr(module, attr)
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    names[obj] = f"{layer}.{attr}"
        wrappers = {fn: self._wrap(name, fn) for fn, name in names.items()}
        for modname, module in list(sys.modules.items()):
            if modname != "monocurve" and not modname.startswith("monocurve."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(module, attr, wrappers[obj])
        cls = importlib.import_module("monocurve.zeta").CharacteristicPolynomial
        self._patch(cls, "expand", self._wrap("zeta.expand", cls.expand))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def finished(self) -> list[Span]:
        if self._stack:
            raise RuntimeError("spans still open")
        return list(self.spans)


def self_times_ns(spans: list[Span]) -> dict[int, int]:
    """Span id -> duration minus the part of its interval covered by child spans."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered, reach = 0, s.start_ns
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start_ns):
            lo, hi = max(c.start_ns, reach), min(c.end_ns, s.end_ns)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = s.end_ns - s.start_ns - covered
    return out


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """The per-layer metrics of one traced run (all traced ops together).

    ``<name>.calls`` counts spans, ``<name>.self_ms`` sums their self times;
    ``qspace.*`` is summed over all qspace functions.  The ratios are
    ``oracle.enum_digits.run_ratio`` (searches that did not raise
    ``BudgetExceeded`` over searches attempted) and ``crosscheck.dense_ratio``
    (ops with a dense ``zeta.expand`` over ops); each reads ``UNDEFINED``
    when its denominator is 0, so that it cannot pass for a measured 0.
    Counts and times of a layer that does not run read 0.
    """
    own = self_times_ns(spans)
    calls: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    for s in spans:
        keys = (s.name, "qspace") if s.name.startswith("qspace.") else (s.name,)
        for key in keys:
            calls[key] = calls.get(key, 0) + 1
            self_ns[key] = self_ns.get(key, 0) + own[s.id]

    def count(name):
        return calls.get(name, 0)

    def ms(name):
        return self_ns.get(name, 0) / 1e6

    searches = [s for s in spans if s.name == "oracle.enum_digits"]
    ran = sum(s.error != "BudgetExceeded" for s in searches)
    ops = count(OP)
    dense_ops = len({s.op for s in spans if s.name == "zeta.expand"})
    return {
        "semigroup.build_semigroup.calls": count("semigroup.build_semigroup"),
        "semigroup.build_semigroup.self_ms": ms("semigroup.build_semigroup"),
        "semigroup.b_table.calls": count("semigroup.b_table"),
        "semigroup.b_table.self_ms": ms("semigroup.b_table"),
        "semigroup.decompose.calls": count("semigroup.decompose"),
        "qspace.calls": count("qspace"),
        "qspace.self_ms": ms("qspace"),
        "resolution.build_resolution.calls": count("resolution.build_resolution"),
        "resolution.build_resolution.self_ms": ms("resolution.build_resolution"),
        "resolution.zeta_from_graph.self_ms": ms("resolution.zeta_from_graph"),
        "resolution.export_graph.self_ms": ms("resolution.export_graph"),
        "zeta.to_cyclotomic.calls": count("zeta.to_cyclotomic"),
        "zeta.to_cyclotomic.self_ms": ms("zeta.to_cyclotomic"),
        "zeta.characteristic_polynomial.calls": count("zeta.characteristic_polynomial"),
        "zeta.characteristic_polynomial.self_ms": ms("zeta.characteristic_polynomial"),
        "zeta.zeta_closed_form.calls": count("zeta.zeta_closed_form"),
        "zeta.resolution_multiplicities.calls": count("zeta.resolution_multiplicities"),
        "zeta.expand.calls": count("zeta.expand"),
        "zeta.expand.self_ms": ms("zeta.expand"),
        "conjecture.verify_conjecture.self_ms": ms("conjecture.verify_conjecture"),
        "conjecture.pk_factorization.calls": count("conjecture.pk_factorization"),
        "conjecture.pk_factorization.self_ms": ms("conjecture.pk_factorization"),
        "conjecture.candidate_poles.self_ms": ms("conjecture.candidate_poles"),
        "oracle.enum_count_solutions.calls": count("oracle.enum_count_solutions"),
        "oracle.enum_count_solutions.self_ms": ms("oracle.enum_count_solutions"),
        "oracle.enum_digits.calls": len(searches),
        "oracle.enum_digits.self_ms": ms("oracle.enum_digits"),
        "oracle.enum_digits.run_ratio": ran / len(searches) if searches else UNDEFINED,
        "crosscheck.cross_check.self_ms": ms("crosscheck.cross_check"),
        "crosscheck.dense_ratio": dense_ops / ops if ops else UNDEFINED,
        "cli.main.self_ms": ms("cli.main"),
        "cli.build_parser.self_ms": ms("cli.build_parser"),
    }
