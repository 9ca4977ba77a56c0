"""A fixed calibration kernel that measures how fast the host runs right now.

Shared cloud hosts switch between a fast and a slow speed, about 1.6x
apart, in stretches from a fraction of a second to minutes, as other
tenants come and go.  How much of a run falls in slow stretches moves its
wall time by a third and more, so raw wall-time medians of two sets of
runs of the same code disagree.  The benchmark times this kernel before
the first op and after every op, in the same process, and divides its
wall-time metrics by the run's host slowdown (see slowdown()), so they
read as the seconds the run would have taken on the reference host.

The kernel does not touch hyperspec, so a change to the program leaves
it alone.  Its parts are the kinds of work hyperspec does, and slow
stretches slow them by different amounts: pure-Python loops over small
ints and tuples and building frozensets (hypergraph enumeration and
canonical forms), Fraction arithmetic (interpolation, rational tensors),
big-integer products and remainders (CRT, Bareiss) and small numpy
int64 eliminations modulo a prime (the modular kernel).  The samples
file of a run keeps each part's times, for checking which parts track
which workload.

On a 2-vCPU x86-64 VM, over ten runs of each workload, the division cut
the spread (interquartile range over median) of ops_per_s from 0.13-0.15
to 0.02-0.04.  Dividing search by the two pure-Python parts alone, or
charpoly and echar by the four parts other than frozensets, did no
better there.
"""

from __future__ import annotations

import gc
import itertools
import statistics
import time
from fractions import Fraction

import numpy as np

# mean seconds of each part on the 2-vCPU x86-64 VM (Xeon, 2.0 GHz,
# Python 3.11, numpy 2.4) the benchmark was tuned on
REFERENCE_S = {
    "objects": 0.0037,
    "frozensets": 0.0024,
    "fractions": 0.0025,
    "big_ints": 0.0034,
    "eliminate": 0.0035,
}

_PRIME = 2147483629
_MATRIX = (
    np.arange(40 * 40, dtype=np.int64).reshape(40, 40) * 7919 + 104729
) % _PRIME


def _objects() -> int:
    table: dict[tuple[int, ...], int] = {}
    for idx in itertools.combinations_with_replacement(range(9), 4):
        mask = 0
        for v in idx:
            mask |= 1 << v
        table[idx] = bin(mask).count("1")
    total = 0
    for _ in range(60):
        for idx, bits in table.items():
            total += bits ^ (idx[0] + idx[-1])
    return total


def _fractions() -> Fraction:
    acc = Fraction(0)
    for i in range(1, 300):
        acc = acc * Fraction(i, i + 3) + Fraction(1, i)
    return acc


def _big_ints() -> int:
    x = 3 ** 900
    m = (1 << 1700) - 159
    acc = 1
    for i in range(300):
        acc = acc * (x + i) % m
    return acc


def _eliminate() -> int:
    det = 1
    for _ in range(5):
        a = _MATRIX.copy()
        for col in range(a.shape[0]):
            pivot = int(a[col, col]) or 1
            det = det * pivot % _PRIME
            inv = pow(pivot, -1, _PRIME)
            factors = a[col + 1:, col] * inv % _PRIME
            a[col + 1:, col + 1:] = (
                a[col + 1:, col + 1:] - factors[:, None] * a[col, col + 1:]
            ) % _PRIME
    return det


def _frozensets() -> int:
    seen: dict[frozenset[int], int] = {}
    for mask in range(1 << 10):
        key = frozenset(i for i in range(10) if mask >> i & 1)
        seen[key] = seen.get(key, 0) + len(key)
    return len(seen)


PARTS = {
    "objects": _objects,
    "frozensets": _frozensets,
    "fractions": _fractions,
    "big_ints": _big_ints,
    "eliminate": _eliminate,
}


def sample() -> dict[str, float]:
    """Seconds each part of the kernel takes now.

    The collector is off meanwhile, so the objects the program under test
    keeps alive cannot change the kernel's time.
    """
    gc.disable()
    try:
        times = {}
        for name, part in PARTS.items():
            t0 = time.perf_counter()
            part()
            times[name] = time.perf_counter() - t0
        return times
    finally:
        gc.enable()


def slowdown(samples: list[dict[str, float]]) -> float:
    """Mean time of a kernel pass over the samples, over the reference's."""
    return statistics.mean(sum(s.values()) for s in samples) / sum(REFERENCE_S.values())
