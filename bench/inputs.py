"""Seeded inputs for the benchmark workloads.

Every workload draws its inputs here, from ``random.Random`` seeded by the
run's ``--seed``, and never through ``monocurve.random_semigroup``: a change
to the library's own sampler cannot move a workload.

Inputs come in *blocks*.  A block holds one input per stratum of the
workload (one per ``g``, and for ``analyze-wide`` one per ``g`` and size
band), in a seeded order, so every block has the same mix.  A run executes
whole blocks, which keeps the mix, and with it the timings, steady across
seeds.

The invariants the correctness gate compares against (``e``, ``n`` and the
Milnor number ``mu``) are computed here from the generators alone, without
the library.
"""

from __future__ import annotations

import math
import random
import statistics
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

DENSE_MU_CAP = 5000  # largest mu whose Delta is expanded densely by cross_check

# analyze-wide: b_g log-uniform in [2^16, 2^30], stratified into size bands.
WIDE_MIN_BITS = 16
WIDE_MAX_BITS = 30
WIDE_BANDS = 14  # one bit each
WIDE_N_CAP = 8
WIDE_GS = (2, 3, 4)

CAMPAIGN_GS = (2, 3, 4, 5)
CAMPAIGN_MAX_SIZE = 10**6

DENSE_GS = (2, 3, 4)
DENSE_MAX_SIZE = 600

# oracle: the default EnumerationBudget region.
ORACLE_MAX_D = 10
ORACLE_MAX_RANK = 3
ORACLE_MAX_EXPONENT = 6
ORACLE_MAX_CONSTANT_DEN = 6


@dataclass(frozen=True)
class Semigroup:
    """Generators with the invariants the benchmark derives on its own."""

    gens: tuple[int, ...]
    e: tuple[int, ...]
    n: tuple[int, ...]
    mu: int

    @property
    def g(self) -> int:
        return len(self.gens) - 1


@dataclass(frozen=True)
class System:
    """``x_i^{k_i} = exp(2 pi i c_i)`` in ``X(d; a)``, counted in ``mode``."""

    d: int
    a: tuple[int, ...]
    k: tuple[int, ...]
    c: tuple[Fraction, ...]
    mode: str  # "total" or "fixed_tail"


def invariants(gens) -> Semigroup:
    """``e_i = gcd(b_0..b_i)``, ``n_i = e_{i-1}/e_i`` (``n_0 = n_1 b_1 / b_0``) and
    ``mu = 1 - b_0 + sum_{k>=1} (n_k - 1) b_k``."""
    gens = tuple(gens)
    e = [gens[0]]
    for b in gens[1:]:
        e.append(math.gcd(e[-1], b))
    n = [0] + [e[i - 1] // e[i] for i in range(1, len(gens))]
    n[0] = n[1] * gens[1] // gens[0]
    mu = 1 - gens[0] + sum((n[k] - 1) * gens[k] for k in range(1, len(gens)))
    return Semigroup(gens, tuple(e), tuple(n), mu)


def _coprime_from(m: int, n: int, step: int) -> int:
    while math.gcd(m, n) != 1:
        m += step
    return m


def _near_minimal(rng: random.Random, g: int, max_size: int) -> tuple[int, ...] | None:
    """One draw of a plane-branch chain with every generator <= ``max_size``.

    ``b_0 = n_1...n_g``, ``b_1 = n_0 e_1`` with ``n_0 > n_1`` coprime to
    ``n_1``, and ``b_k = m e_k`` just above ``n_{k-1} b_{k-1}`` with ``m``
    coprime to ``n_k``; each ``m`` is drawn from a window of width ``w``
    above its smallest admissible value.  ``None`` if the draw overflows.
    """
    n_cap = round(max_size ** (1 / (g + 1))) + 1
    w = max(8, n_cap)
    ns = [rng.randint(2, n_cap) for _ in range(g)]
    e = [math.prod(ns[i:]) for i in range(g + 1)]
    gens = [e[0]]
    for k in range(1, g + 1):
        lo = ns[0] + 1 if k == 1 else ns[k - 2] * gens[-1] // e[k] + 1
        m = _coprime_from(rng.randint(lo, lo + w), ns[k - 1], 1)
        gens.append(m * e[k])
    return tuple(gens) if gens[-1] <= max_size else None


def _log_spread(rng: random.Random, g: int, top: int) -> tuple[int, ...] | None:
    """One draw of a chain whose last generator is the largest valid value <= ``top``.

    Intermediate generators sit near log-spaced targets between ``b_0`` and
    ``top``.  ``None`` if the levels leave no room below ``top``.
    """
    n_cap = min(WIDE_N_CAP, max(2, round(top ** (1 / (g + 1)))))
    ns = [rng.randint(2, n_cap) for _ in range(g)]
    e = [math.prod(ns[i:]) for i in range(g + 1)]
    gens = [e[0]]
    for k in range(1, g + 1):
        lo = ns[0] + 1 if k == 1 else ns[k - 2] * gens[-1] // e[k] + 1
        if k < g:
            share = (k - rng.random() / 2) / g
            target = gens[0] * (top / gens[0]) ** share
            m = _coprime_from(max(lo, int(target) // e[k]), ns[k - 1], 1)
        else:
            m = _coprime_from(top // e[k], ns[k - 1], -1)
            if m < lo:
                return None
        gens.append(m * e[k])
    return tuple(gens)


def _draw(rng: random.Random, make, *args, accept=lambda sg: True) -> Semigroup:
    for _ in range(10_000):
        gens = make(rng, *args)
        if gens is not None and accept(sg := invariants(gens)):
            return sg
    raise RuntimeError(f"no admissible semigroup from {make.__name__}{args}")


def _wide_block(rng: random.Random) -> list[Semigroup]:
    block = []
    for band in range(WIDE_BANDS):
        for g in WIDE_GS:
            bits = WIDE_MIN_BITS + (WIDE_MAX_BITS - WIDE_MIN_BITS) * (
                band + rng.random()
            ) / WIDE_BANDS
            block.append(_draw(rng, _log_spread, g, int(2**bits)))
    rng.shuffle(block)
    return block


def _campaign_block(rng: random.Random) -> list[Semigroup]:
    block = [_draw(rng, _near_minimal, g, CAMPAIGN_MAX_SIZE) for g in CAMPAIGN_GS]
    rng.shuffle(block)
    return block


def _dense_block(rng: random.Random) -> list[Semigroup]:
    block = [
        _draw(rng, _near_minimal, g, DENSE_MAX_SIZE, accept=lambda sg: sg.mu <= DENSE_MU_CAP)
        for g in DENSE_GS
    ]
    rng.shuffle(block)
    return block


def _system(rng: random.Random, d: int) -> System:
    pairs = [
        (a, k)
        for a in range(d)
        for k in range(1, ORACLE_MAX_EXPONENT + 1)
        if a * k % d == 0
    ]
    ncoords = rng.randint(1, ORACLE_MAX_RANK + 1)
    chosen = [rng.choice(pairs) for _ in range(ncoords)]
    consts = []
    for _ in range(ncoords):
        den = rng.randint(1, ORACLE_MAX_CONSTANT_DEN)
        consts.append(Fraction(rng.randrange(den), den))
    mode = "total" if ncoords == 1 else rng.choice(("total", "fixed_tail"))
    return System(
        d=d,
        a=tuple(a for a, _ in chosen),
        k=tuple(k for _, k in chosen),
        c=tuple(consts),
        mode=mode,
    )


def _oracle_block(rng: random.Random) -> list[System]:
    block = [_system(rng, d) for d in range(1, ORACLE_MAX_D + 1)]
    rng.shuffle(block)
    return block


BLOCKS = {
    "analyze-wide": _wide_block,
    "campaign": _campaign_block,
    "campaign-dense": _dense_block,
    "oracle": _oracle_block,
}


def blocks(workload: str, seed: int):
    """Endless stream of input blocks for ``workload``; the same seed, the same stream."""
    make = BLOCKS[workload]
    rng = random.Random(f"{workload}:{seed}")
    while True:
        yield make(rng)


class InputStats:
    """Running summary of the inputs a run executed; its size does not grow with the run."""

    def __init__(self):
        self.counters: dict[str, Counter] = {}
        self.count = 0
        self.dense = 0

    def _add(self, key: str, value) -> None:
        self.counters.setdefault(key, Counter())[value] += 1

    def add(self, inp) -> None:
        self.count += 1
        if isinstance(inp, System):
            self._add("d_mix", inp.d)
            self._add("coords_mix", len(inp.a))
            self._add("mode_mix", inp.mode)
        else:
            self._add("g_mix", inp.g)
            self._add("b_g_bits", inp.gens[-1].bit_length())
            self._add("mu_bits", inp.mu.bit_length())
            self.dense += inp.mu <= DENSE_MU_CAP

    def summary(self) -> dict:
        out: dict = {"count": self.count}
        for key, counter in self.counters.items():
            if key.endswith("_mix"):
                out[key] = {str(v): n for v, n in sorted(counter.items())}
            else:
                values = sorted(counter.elements())
                out[key] = {
                    "min": values[0],
                    "median": statistics.median(values),
                    "max": values[-1],
                }
        if "g_mix" in out:
            out["dense_share"] = self.dense / self.count
        return out
