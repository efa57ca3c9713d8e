"""Survivor computations for the circle-elimination game, three ways.

n people stand in a circle, counting starts at person 1, and every q-th
person leaves until one remains. The three routes are independent: a
survivor recurrence, an explicit elimination of the circle, and a ceiling
iteration that jumps straight to the answer. Their pairwise agreement is a
test obligation, not an assumption. Each route predicts its work from n and
q and refuses a game predicted above its limit before doing any of it.
"""

from __future__ import annotations

import sys
from array import array
from collections import namedtuple
from functools import cache

from .errors import SIMULATION_CAP, ResourceLimit, SimulationCapExceeded, brief
from .report import CheckedRecord

# most array entries survivor_simulation's lap deletions may be predicted to
# move; n = 10^5 with q >= n sits at it and takes about 0.4 s (2-core Xeon,
# CPython 3.11)
MOVE_LIMIT = 10**10
# A step of survivor_recurrence or survivor_via_ow costs about the same on
# any terms up to a machine word and grows with their bits past it, so each
# is predicted as steps times the bit length of its widest term, at least
# WORD_BITS, and refused above one shared budget. A million steps on
# machine-size terms take 0.15-0.45 s (2-core Xeon, CPython 3.11); at the
# budget's edge on wider terms a game takes less
WORD_BITS = 64
BIT_OP_LIMIT = 10**6 * WORD_BITS


class SurvivorResult(CheckedRecord, namedtuple("SurvivorResult", "n q survivor algorithm")):
    __slots__ = ()

    def __new__(cls, n: int, q: int, survivor: int, algorithm: str):
        if not 1 <= survivor <= n:
            raise ValueError(f"survivor {brief(survivor)} outside 1..{brief(n)}")
        return tuple.__new__(cls, (n, q, survivor, algorithm))


def _validate(n: int, q: int) -> None:
    if n < 1:
        raise ValueError(f"n must be at least 1, got {brief(n)}")
    if q < 2:
        raise ValueError(f"q must be at least 2, got {brief(q)}")


def _step_limit(widest: int) -> int:
    """Most steps BIT_OP_LIMIT admits on terms up to widest."""
    return BIT_OP_LIMIT // max(WORD_BITS, widest.bit_length())


def _recurrence_steps(n: int, q: int) -> tuple[int, int]:
    """survivor_recurrence's predicted iterations at n, q, and its step limit."""
    return min(n - 1, q * n.bit_length()), _step_limit(max(n, q))


def survivor_recurrence(n: int, q: int) -> SurvivorResult:
    """Fold the one-smaller-circle recurrence up from a single person.

    The fold is pos <- (pos + q) mod m for m = 2..n. While
    pos + s*(q-1) < m, the next s steps never wrap and each just adds q, so
    they run as one batch; the step after a batch wraps. That takes about
    q*ln(n) iterations when q is much smaller than n, and one step at a time
    while q is at least the circle size. Each iteration grows the circle, so
    there are at most n - 1, and q * bit_length(n) exceeds the q*ln(n) term;
    the terms are at most n and q. A predicted min of the two above the step
    limit for terms that wide is refused before the first step.
    """
    _validate(n, q)
    predicted, limit = _recurrence_steps(n, q)
    if predicted > limit:
        raise ResourceLimit(
            f"the recurrence would take up to {brief(predicted)} iterations at n={brief(n)}, "
            f"q={brief(q)}, above the limit {limit}; lower --q or --n"
        )
    pos, m = 0, 1
    while m < n:
        s = min((m - pos - 1) // (q - 1), n - m)
        pos += s * q
        m += s
        if m < n:
            m += 1
            pos = (pos + q) % m
    return SurvivorResult(n, q, pos + 1, "recurrence")


@cache
def _label_block() -> bytes:
    """Little-endian bytes of the labels 0..65,535, built on first use.

    Bytes 0-1 of label i are i mod 256 and i // 256, each plane one
    bytearray stride assignment; bytes 2-3 stay zero.
    """
    block = bytearray(4 << 16)
    block[0::4] = bytes(range(256)) * 256
    block[1::4] = b"".join(bytes((v,)) * 256 for v in range(256))
    return bytes(block)


def _labels(n: int) -> array:
    """A fresh array("I") holding 0..n-1, with no int per label.

    Bytes 0-1 of label i repeat every 65,536 labels, so the first
    min(n, 65536) labels are copied from _label_block(). Each further block
    comes from one copy of no more of the block than the longest of them
    needs, with byte 2 (and byte 3 when it changes) restamped with the
    block number, appended up to label n - 1. The copies are
    byteswapped once on a big-endian host. The block is bytes, so no lap
    deletion on the returned array can reach it.
    """
    first = _label_block()
    cells = array("I")
    cells.frombytes(memoryview(first)[: 4 * n])
    if n > 1 << 16:
        size = min(n - (1 << 16), 1 << 16)
        block = bytearray(memoryview(first)[: 4 * size])
        for k in range(1, -(-n >> 16)):
            block[2::4] = bytes((k & 255,)) * size
            if not k & 255:
                block[3::4] = bytes((k >> 8,)) * size
            # a slice past the end is the whole block
            cells.frombytes(memoryview(block)[: 4 * (n - (k << 16))])
    if sys.byteorder == "big":
        cells.byteswap()
    return cells


def survivor_simulation(n: int, q: int, *, simulation_cap: int = SIMULATION_CAP) -> SurvivorResult:
    """Eliminate the explicit circle until one person remains.

    The first lap depends on n and q alone: once divmod(q - 1, n) has
    skipped the laps in which nobody reaches the count, it removes the
    people at positions lap1, lap1 + q, ... (person i + 1 at position i),
    so it is counted, not carried out. The circle starts as it stands after
    that lap: one flat C array of the labels 0..size-1, built by _labels,
    label j for the j-th person left, so no int object is made per person.
    Labels are 32 bits wide, so n above 2**32 is refused whatever the cap.

    Each further lap around the circle removes every q-th survivor in a
    single slice deletion; the carry tracks counts that spill into the next
    lap, and laps in which nobody reaches the count are skipped by one
    divmod. This is the same elimination order as removing people one at a
    time, just processed lap by lap. The last label is mapped back through
    the first lap to its person.

    A lap's deletion moves every entry from its first removal to the end of
    the circle: at most n, and at most q per person it removes. Every lap
    removes someone and n - 1 people leave in all, so the laps move at most
    n*min(n, q) entries; a bound above MOVE_LIMIT (q >= n near the cap) is
    refused before the circle is built.
    """
    _validate(n, q)
    if n > simulation_cap:
        raise SimulationCapExceeded(
            f"n={brief(n)} exceeds the simulation cap {brief(simulation_cap)}; "
            "raise it with --sim-cap or use the recurrence"
        )
    if n > 1 << 32:
        raise ResourceLimit(
            f"n={brief(n)} needs labels wider than 32 bits; use --algo recurrence"
        )
    predicted = n * min(n, q)
    if predicted > MOVE_LIMIT:
        raise ResourceLimit(
            f"the simulation would move up to {predicted} entries at n={n}, q={brief(q)}, "
            f"above the limit {MOVE_LIMIT}; use --algo recurrence"
        )
    if n == 1:
        return SurvivorResult(n, q, 1, "simulation")
    empty, lap1 = divmod(q - 1, n)
    size = n - len(range(lap1, n, q))
    carry = (empty + 1) * n % q
    cells = _labels(size)
    while size > 1:
        empty, first = divmod((q - 1 - carry) % q, size)
        del cells[first::q]
        carry = (carry + (empty + 1) * size) % q
        size = len(cells)
    # back through the first lap: q - 1 people stand between its removals
    j = cells[0]
    if j >= lap1:
        j += (j - lap1) // (q - 1) + 1
    return SurvivorResult(n, q, j + 1, "simulation")


def ow_sequence(q: int, seed: int, count: int) -> list[int]:
    """First count terms of x -> ceil(q*x / (q-1)) starting at seed."""
    if q < 2:
        raise ValueError(f"q must be at least 2, got {brief(q)}")
    if seed < 1:
        raise ValueError(f"seed must be at least 1, got {brief(seed)}")
    if count < 1:
        raise ValueError(f"count must be at least 1, got {brief(count)}")
    terms = [seed]
    x = seed
    for _ in range(count - 1):
        x = (q * x + q - 2) // (q - 1)
        terms.append(x)
    return terms


def survivor_via_ow(n: int, q: int) -> SurvivorResult:
    """Survivor from the ceiling iteration alone.

    Iterate x -> ceil(q*x / (q-1)) from 1 until the term exceeds (q-1)*n;
    the survivor is q*n + 1 minus that term. The first such term never
    overshoots q*n, so the result always lands in 1..n.

    Each step multiplies the term by at least q/(q-1), and ln(q/(q-1)) >= 1/q,
    so reaching (q-1)*n takes at most q*ln((q-1)*n) + 1 steps; q times the
    bit length of (q-1)*n bounds that without floats. A bound above the step
    limit for terms as wide as (q-1)*n is refused before the first step,
    pointing at the recurrence when it would be admitted and at q and n
    otherwise.
    """
    _validate(n, q)
    bound = (q - 1) * n
    predicted = q * bound.bit_length()
    limit = _step_limit(bound)
    if predicted > limit:
        steps, recurrence_limit = _recurrence_steps(n, q)
        advice = "use --algo recurrence" if steps <= recurrence_limit else "lower --q or --n"
        raise ResourceLimit(
            f"the ceiling iteration would take up to {brief(predicted)} steps at q={brief(q)}, "
            f"above the limit {limit}; {advice}"
        )
    term = 1
    while term <= bound:
        term = (q * term + q - 2) // (q - 1)
    return SurvivorResult(n, q, q * n + 1 - term, "ow_formula")
