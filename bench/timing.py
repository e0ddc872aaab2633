"""Op timing for the benchmark: host-speed scaling and constant-memory histograms.

On a shared host the speed of this process changes by up to 2x, in
stretches of a tenth of a second to minutes, as other tenants load the
machine.  Every timed interval is therefore scaled by
``REF_KERNEL_S / local``, where ``local`` is the mean time of a fixed
pure-Python kernel sampled just before and just after the interval.  Scaled
times are kernel-relative costs expressed in seconds of a host on which the
kernel takes ``REF_KERNEL_S``: the development host at its unloaded speed.
The kernel never calls monocurve, so a change to the program moves scaled
and raw times alike.
"""

from __future__ import annotations

import math
import time
from array import array
from collections import Counter

# Kernel time on the development host (2-vCPU Intel Xeon VM, Python 3.11.7)
# at its unloaded speed.
REF_KERNEL_S = 150e-6


def _kernel() -> int:
    """Fixed integer and dict work, about 0.15 ms; never uses monocurve."""
    acc, table = 0, {}
    for i in range(1, 600):
        k = i % 37
        table[k] = table.get(k, 0) + math.gcd(i, 360) * (i * 7919 % 1013)
        acc += i * i // (k + 1)
    return acc + len(table)


def kernel_seconds() -> float:
    """Time one run of the kernel: a sample of the host's momentary speed."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


class Histogram:
    """Log-binned distribution of positive values, exact count and sum."""

    STEPS = 512  # bins per doubling: values are kept to 0.14%

    def __init__(self):
        self.counts: Counter = Counter()
        self.n = 0
        self.total = 0.0

    def add(self, value: float) -> None:
        self.counts[math.floor(math.log2(max(value, 1e-12)) * self.STEPS)] += 1
        self.n += 1
        self.total += value

    def quantile(self, q: float) -> float:
        """Smallest bin centre with at least ``q * n`` values at or below it."""
        rank, seen = q * self.n, 0
        for b in sorted(self.counts):
            seen += self.counts[b]
            if seen >= rank:
                return 2 ** ((b + 0.5) / self.STEPS)
        raise ValueError("empty histogram")


class OpTimer:
    """Times ops, raw and scaled, in memory that does not grow with the op count.

    Call :meth:`before_op` before each op and :meth:`add` with its raw time.
    A kernel sample is taken before an op when the last one is older than
    ``EVERY_S``; ops wait in a small buffer until the sample after them
    exists, then enter the scaled histogram.
    """

    EVERY_S = 0.005

    def __init__(self):
        self.raw = Histogram()
        self.scaled = Histogram()
        self._pending = array("d")
        self._before = math.nan
        self._sampled_at = -math.inf

    def _sample(self) -> None:
        after = kernel_seconds()
        self._sampled_at = time.perf_counter()
        if self._pending:
            factor = 2 * REF_KERNEL_S / (self._before + after)
            for raw in self._pending:
                self.scaled.add(raw * factor)
            self._pending = array("d")
        self._before = after

    def before_op(self) -> None:
        if time.perf_counter() - self._sampled_at >= self.EVERY_S:
            self._sample()

    def add(self, raw: float) -> None:
        self.raw.add(raw)
        self._pending.append(raw)

    def close(self) -> None:
        """Take the sample that closes the last ops."""
        self._sample()

    def summary(self, scaled: bool = True) -> dict[str, float]:
        """Throughput and latency percentiles, scaled or raw."""
        hist = self.scaled if scaled else self.raw
        return {
            "throughput_ops_s": hist.n / hist.total,
            "op_p50_ms": hist.quantile(0.5) * 1e3,
            "op_p90_ms": hist.quantile(0.9) * 1e3,
        }
