"""Host-speed probes: fixed slices of CPython work timed between jobs.

The benchmark shares its host with other tenants, and identical runs drift
by 15-25% as the host speeds up and slows down over tens of seconds. The
drift is not preemption (process time tracks wall time), so measuring CPU
time does not remove it. Instead each run times probe kernels between its
jobs and scales every reported time by the kernels' reference time over
their median time in that pass, so a reported second is a second at the
reference host speed. The kernels never call divgap, so a slower program
still reads slower.

How much a slow host slows code depends on the code: interpreter dispatch,
Fraction, list and argparse work slow by 20-30%, while big-integer decimal
conversion moves by a few percent. So gap_walk, whose time goes to huge
integers, is probed with the decimal kernel alone, and the interpreter-bound
workloads and set-up with every kernel. Over five runs per workload on the
machine in machine.json, that cut the spread (interquartile range over
median) of wall_s from 3-11% raw to 1-3.5%.
"""

from __future__ import annotations

import argparse
import statistics
import time
from fractions import Fraction

_SEVENS = 7**5000  # 4226 digits, inside the default int-to-str limit
_PARSER = argparse.ArgumentParser(prog="probe")
_PARSER.add_argument("m", type=int)
_PARSER.add_argument("--above", type=int)
_PARSER.add_argument("--json", action="store_true")


def _interpreter() -> int:
    x = 0
    for i in range(9000):
        x = (x * 31 + i) % 1000003
    return x


def _trial_division() -> int:
    m, found = 999999937, 0
    for d in range(1, 6000):
        if m % d == 0:
            found += 1
    return found


def _fractions() -> Fraction:
    lo, scale, half = Fraction(0), Fraction(1), Fraction(1, 2)
    b = total = 1
    for _ in range(150):
        scale *= Fraction(2, 3)
        lo = max(lo, (b - half) * scale)
        b = (total + 1) // 2
        total += b
    return lo


def _lists() -> int:
    circle = list(range(20000))
    del circle[1::3]
    return len(circle)


def _argparse() -> int:
    for _ in range(20):
        _PARSER.parse_args(["12345", "--above", "3", "--json"])
    return 0


def _decimal() -> int:
    return sum(len(str(_SEVENS + k)) for k in range(10))


KERNELS = {
    "interpreter": _interpreter,
    "trial_division": _trial_division,
    "fractions": _fractions,
    "lists": _lists,
    "argparse": _argparse,
    "decimal": _decimal,
}

# Median kernel times on the machine described in machine.json.
REFERENCE_S = {
    "interpreter": 0.00080,
    "trial_division": 0.00030,
    "fractions": 0.00115,
    "lists": 0.00047,
    "argparse": 0.00057,
    "decimal": 0.00300,
}

ALL_KERNELS = tuple(KERNELS)
# gap_walk spends its time in huge-integer arithmetic and decimal rendering,
# which a slow host barely slows; the other workloads are interpreter-bound.
WORKLOAD_KERNELS = {
    "gap_walk": ("decimal",),
    "certify": ALL_KERNELS,
    "survivors": ALL_KERNELS,
    "desk": ALL_KERNELS,
}


def probe(kernels: tuple[str, ...], samples: dict[str, list[float]]) -> float:
    """Run each kernel once, appending its time to samples; returns the total."""
    total = 0.0
    for name in kernels:
        t0 = time.perf_counter()
        KERNELS[name]()
        seconds = time.perf_counter() - t0
        samples.setdefault(name, []).append(seconds)
        total += seconds
    return total


def speed_factor(samples: dict[str, list[float]]) -> float:
    """Scale from times measured alongside samples to reference host speed."""
    return statistics.fmean(REFERENCE_S[k] / statistics.median(v) for k, v in samples.items())
