"""Certified rational enclosures of the two limit constants and their relation.

The growth constant c of the half-sum ceiling recurrence satisfies
b(n) = ceil(c * (3/2)**n - 1/2) for every n, so each computed term pins c
inside an interval of width (2/3)**n; intersecting them certifies digits.
The circle-game constant K3 is the limit of e(n) * (2/3)**n for the q = 3
ceiling iteration x -> floor((3x + 1)/2) seeded at 2, which nests by
construction. relation_check compares c against (2/9) * K3 with no rounding
anywhere.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable
from fractions import Fraction

from .errors import EmptyIntersection
from .intervals import RationalInterval, render_digits
from .sequences import b_terms

DEFAULT_TERMS = 200
K3_SCALE = Fraction(2, 9)


def _steps(x: int, k: int) -> int:
    """k steps of f(x) = floor((3x + 1)/2), one at a time."""
    for _ in range(k):
        x = (3 * x + 1) >> 1
    return x


# f^8 on 0..255
_JUMP8 = tuple(_steps(low, 8) for low in range(256))


def _iterate_q3(seed: int, count: int) -> int:
    """The count-th term of x -> floor((3x + 1)/2) from seed, eight steps a jump.

    f(2^j*G + M) = 3*2^(j-1)*G + f(M) for every j >= 1 and integer M, so by
    induction f^8(2^8*H + L) = 3^8*H + f^8(L): one shift, mask, multiply and
    add replace eight multiply-add-shift steps on the full-size integer. The
    last count - 1 mod 8 steps run singly. ow_sequence(3, seed, count)[-1] is
    the stepwise route to the same term.
    """
    x = seed
    for _ in range((count - 1) >> 3):
        x = 3**8 * (x >> 8) + _JUMP8[x & 255]
    return _steps(x, (count - 1) & 7)


def _intersect_growth_constraints(terms: Iterable[int]) -> RationalInterval:
    """Intersect the per-index constraints ((b - 1/2), (b + 1/2)] * (2/3)^n.

    Constraint n is [(2b - 1) * 2^(n-1), (2b + 1) * 2^(n-1)] / 3^n, so the
    running bounds are kept as integer numerators over 3^n: each step
    multiplies them by 3 and compares against the shifted candidates. One
    Fraction per endpoint is built at the end; Fraction arithmetic in the
    loop would re-normalize 1.58n-bit numbers by gcd at every step.

    An empty running intersection would falsify the ceiling closed form for
    the supplied terms, so it aborts with the first violating index instead
    of clamping. The terms are read once, in order, and not kept.
    """
    terms = iter(terms)
    b = next(terms)
    lo, hi, n = 2 * b - 1, 2 * b + 1, 1
    for n, b in enumerate(terms, start=2):
        lo = max(3 * lo, (2 * b - 1) << (n - 1))
        hi = min(3 * hi, (2 * b + 1) << (n - 1))
        if lo > hi:
            raise EmptyIntersection(
                f"constraint {n} (term {b}) empties the intersection", index=n
            )
    den = 3**n
    return RationalInterval(Fraction(lo, den), Fraction(hi, den))


def c_enclosure(n_terms: int) -> RationalInterval:
    """Enclosure of the growth constant from the first n_terms recurrence terms.

    Monotone in n_terms: more terms always give a subinterval. Width after n
    terms is at most (2/3)**n.
    """
    if n_terms < 1:
        raise ValueError(f"n_terms must be at least 1, got {n_terms}")
    return _intersect_growth_constraints(b_terms(n_terms))


def k3_enclosure(n_terms: int) -> RationalInterval:
    """Enclosure of the circle-game constant from the seed-2 ceiling iteration.

    With e the n-th iterate, the limit lies in
    [e * (2/3)**n, (e + 2) * (2/3)**n]; the lower bounds rise and the upper
    bounds fall, so the intervals nest and the width is exactly 2 * (2/3)**n.
    """
    if n_terms < 1:
        raise ValueError(f"n_terms must be at least 1, got {n_terms}")
    e = _iterate_q3(2, n_terms)
    den = 3**n_terms
    return RationalInterval(Fraction(e << n_terms, den), Fraction((e + 2) << n_terms, den))


class RelationReport(namedtuple("RelationReport",
                                "c_interval k3_scaled_interval overlap agreeing_places")):
    """Comparison of the growth constant against (2/9) times the game constant."""

    __slots__ = ()


def relation_check(n_terms: int) -> RelationReport:
    """Compare the two enclosures at matched precision.

    agreeing_places counts the decimal places shared by every member of both
    intervals (the certificate of their hull). Non-overlap is reported, not
    raised: it would be a mathematically meaningful negative result.
    """
    if n_terms < 1:
        raise ValueError(f"n_terms must be at least 1, got {n_terms}")
    c_iv = c_enclosure(n_terms)
    scaled = k3_enclosure(n_terms).scale(K3_SCALE)
    hull = c_iv.hull(scaled)
    places = render_digits(hull, n_terms).certified_places
    return RelationReport(c_iv, scaled, c_iv.overlaps(scaled), places)
