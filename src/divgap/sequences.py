"""The divisor-gap sequence and its exponent sequence.

The gap sequence starts at 4 and extends by the smallest complementary-divisor
difference above 1 of the product of all earlier terms. The exponent sequence
follows the half-sum ceiling recurrence b(1) = 1, b(n) = ceil(sum/2). From
index 3 on the gap terms are exactly 2**b(n); verify_theorem recomputes the
gaps from the divisor definition and checks that identity index by index.
"""

from __future__ import annotations

from collections.abc import Iterator
from fractions import Fraction
from itertools import islice
from math import ceil, prod

from .divisors import _chain_split, _gap_exponents, _grow, _walk, delta_above
from .errors import A_PATHS, ORACLE_BOUND, InsufficientPrecision, brief
from .intervals import RationalInterval
from .report import CheckRecord, VerificationReport

# verify_theorem re-derives the factored path's gaps by trial division while
# the partial product stays below this; each costs at most isqrt(bound) steps.
# It is also that trial division's bound, so the cross-check never refuses a
# run the caller's oracle_bound admits.
CROSS_CHECK_BOUND = 1 << 20


class SequenceReport:
    """A computed sequence prefix with the path that produced it.

    Term n is held as the record (odd, e) with term = odd * 2**e, turned into
    an integer only when iterated; a factored gap term near index 60 already
    needs megabytes, so read records instead of terms when the range is large.
    """

    __slots__ = ("name", "start_index", "path", "records")

    def __init__(self, name: str, start_index: int, path: str,
                 records: tuple[tuple[int, int], ...]):
        self.name = name
        self.start_index = start_index
        self.path = path
        self.records = records

    def __iter__(self):
        for odd, e in self.records:
            yield odd << e

    @property
    def terms(self) -> list[int]:
        return list(self)


def _odd_record(t: int) -> tuple[int, int]:
    """(odd, e) with t = odd * 2**e, for t >= 1."""
    e = (t & -t).bit_length() - 1
    return t >> e, e


def b_terms(n_max: int) -> Iterator[int]:
    """b(1), ..., b(n_max) of the half-sum ceiling recurrence, one at a time.

    u is the running sum plus one, so u >> 1 is the ceiling of half the sum:
    one shift and one add per term, since CPython runs // 2 on a big int as
    a full long division.
    """
    t, u = 1, 2
    for _ in range(n_max):
        yield t
        t = u >> 1
        u += t


def _b_prefix(n_max: int) -> Iterator[tuple[int, int]]:
    """The (odd, e) records of b(1), ..., b(n_max), made as they are pulled."""
    if n_max < 1:
        raise ValueError(f"n_max must be at least 1, got {brief(n_max)}")
    return map(_odd_record, b_terms(n_max))


def b_seq(n_max: int) -> SequenceReport:
    """Indices 1..n_max of the half-sum ceiling recurrence."""
    return SequenceReport("b", 1, "recurrence", tuple(_b_prefix(n_max)))


def a_records(path: str, oracle_bound: int) -> Iterator[tuple[int, int]]:
    """The (odd, e) records of gap terms a(0), a(1), ... via the chosen path.

    oracle: the product as a plain integer, each gap by trial division
    (honest up to index 10 with the default bound). factored: the product as
    a prime -> exponent mapping extended in place, each gap by the
    descending divisor walk in exponent space; the gap comes out factored,
    so no integer of the terms' size is built and its power of two stays an
    exponent. The walk's split of the product into p**E and the chains of
    the part coprime to p is carried from step to step and rebuilt only
    when a gap brings in a prime other than p. The stream has no end; a gap
    is computed only when its record is pulled.
    """
    if path not in A_PATHS:
        raise ValueError(f"unknown path {path!r}, expected one of {A_PATHS}")
    yield 1, 2  # a(0) = 4
    if path == "oracle":
        product = 4
        while True:
            a = delta_above(product, 1, oracle_bound=oracle_bound).difference
            yield _odd_record(a)
            product *= a
    else:
        product = {2: 2}
        split = _chain_split(((2, 2),))
        while True:
            gap = _gap_exponents(_walk(split, 1), product, oracle_bound)
            two = gap.get(2, 0)
            # while the identity holds each gap is 2**two alone, with no odd
            # part to build
            yield (1 if len(gap) == (two > 0)
                   else prod(p**e for p, e in gap.items() if p != 2)), two
            split = _grow(product, split, gap)


def _a_prefix(n_max: int, path: str, oracle_bound: int) -> Iterator[tuple[int, int]]:
    """The records of a(0), ..., a(n_max) from a_records, walked as they are pulled."""
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {brief(n_max)}")
    # a range, not islice, whose stop may not exceed sys.maxsize; it comes
    # first, so the zip stops before it pulls a record past n_max
    return (record for _, record in zip(range(n_max + 1), a_records(path, oracle_bound)))


def a_seq(n_max: int, path: str = "factored", *, oracle_bound: int = ORACLE_BOUND) -> SequenceReport:
    """Indices 0..n_max of the gap sequence via the chosen path (see a_records)."""
    return SequenceReport("a", 0, path, tuple(_a_prefix(n_max, path, oracle_bound)))


def _theorem_records(n_max: int, check_path: str, oracle_bound: int) -> Iterator[CheckRecord]:
    """verify_theorem's record for n = 3, 4, ..., n_max, each made as it is pulled.

    Only the running sums are kept between records, so a caller that keeps
    only the failures and a count checks the identity in O(n_max)-bit memory.
    """
    if n_max < 3:
        raise ValueError(f"n_max must be at least 3, got {brief(n_max)}")
    product = 48  # terms 0..2: 4 * 3 * 4
    e_big = 4  # the exponent of 2 in that product
    # b(1) and b(2) have no gap term to match; the range comes first, so the
    # zip stops before it pulls a gap past n_max from the endless stream
    pairs = zip(range(3, n_max + 1), islice(a_records(check_path, oracle_bound), 3, None),
                islice(b_terms(n_max), 2, None))
    for n, (odd, e), b in pairs:
        actual = e if odd == 1 else None
        # lemma 2's exponent ceil(E/2) - 1, with a shift for the halving
        ok = actual == b and e == ((e_big + 1) >> 1) - 1
        e_big += e
        if check_path == "factored" and product < CROSS_CHECK_BOUND:
            a = odd << e
            ok = ok and delta_above(product, 1, oracle_bound=CROSS_CHECK_BOUND).difference == a
            product *= a
        yield CheckRecord(n, ok, b, actual)


def verify_theorem(n_max: int, check_path: str = "factored", *, oracle_bound: int = ORACLE_BOUND) -> VerificationReport:
    """Check gap term == 2**b(n) for n = 3..n_max.

    Each gap term is recomputed from the divisor definition by a_records on
    the chosen path, which must be one of A_PATHS; nothing is assumed from
    the identity being checked. Every gap is also held to lemma 2: while the
    identity holds the product of the earlier terms is 3 * 2**E, whose
    minimal gap is 2**(ceil(E/2) - 1), with E summed from the records' own
    exponents of two. On the factored path, the gaps whose partial product
    is below CROSS_CHECK_BOUND are also recomputed by trial division on the
    integer product. A disagreement with any route fails the record.
    Failures are recorded, not raised; records hold the exponents compared
    with b(n) (actual is None for a term that is not a power of two at all).
    """
    records = tuple(_theorem_records(n_max, check_path, oracle_bound))
    return VerificationReport(f"gap term = 2^b(n) via {check_path} path", records)


def b_closed_form(n: int, c_enc: RationalInterval) -> int:
    """Evaluate ceil(x * (3/2)**n - 1/2) at both endpoints of an enclosure.

    Returns the common value, raising InsufficientPrecision when the
    enclosure is too wide to pin a single integer at this index.
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, got {brief(n)}")
    r = Fraction(3, 2) ** n
    half = Fraction(1, 2)
    at_lo = ceil(c_enc.lo * r - half)
    at_hi = ceil(c_enc.hi * r - half)
    if at_lo != at_hi:
        raise InsufficientPrecision(
            f"enclosure of width {brief(c_enc.width)} spans {brief(at_hi - at_lo + 1)} candidates "
            f"at index {n}; tighten it with more terms"
        )
    return at_lo
