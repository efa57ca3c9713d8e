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

from .errors import DEFAULT_TERMS, EmptyIntersection  # noqa: F401 (DEFAULT_TERMS: public here)
from .intervals import RationalInterval, render_digits
from .sequences import b_terms

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

    Over the denominator 3^n, constraint n is [L_n, H_n] with
    L_n, H_n = (2b_n -+ 1) * 2^(n-1), and the running bounds fold as
    lo_n = max(3 lo_(n-1), L_n) and hi_n = min(3 hi_(n-1), H_n). Both are
    kept as nonnegative offsets from the newest constraint, in units of
    2^(n-1): lo_n = L_n + D * 2^(n-1) and hi_n = H_n - E * 2^(n-1).
    Substituting, with t = 3b_(n-1) - 2b_n,

        D' = max((3D + 2t - 1) / 2, 0),  E' = max((3E - 2t - 1) / 2, 0),

    and the intersection is empty exactly when D' + E' > (H_n - L_n)/2^(n-1),
    which is 2. Since 3 lo_(n-1) <= 3 hi_(n-1), the bounds cross only when
    one crosses the other's newest constraint, 3 lo_(n-1) > H_n or
    3 hi_(n-1) < L_n: that is, when one offset alone exceeds 2 before its
    max. Each offset is a numerator over 2^k: with D = d/2^k, D' before the
    max is 3d + (2t - 1) * 2^k over 2^(k+1), and when the newest constraint
    binds, d and k reset to 0. On the recurrence's own terms t is small and
    the binding constraint is a few terms back, so the offsets stay a few
    bits wide, and the full-width work per term is t alone; the 1.58n-bit
    endpoints are rebuilt once at the end. Correctness rests on the
    identities above, not on how wide the offsets get.

    An empty running intersection would falsify the ceiling closed form for
    the supplied terms, so it aborts with the first violating index instead
    of clamping. The terms are read once, in order, and not kept.
    """
    terms = iter(terms)
    prev = next(terms)
    n = 1
    d = kd = e = ke = 0  # D = d / 2^kd, E = e / 2^ke
    for n, b in enumerate(terms, start=2):
        t = 3 * prev - 2 * b
        prev = b
        # the offsets before the max, each a numerator over one more power of 2
        d = 3 * d + ((2 * t - 1) << kd)
        e = 3 * e - ((2 * t + 1) << ke)
        if d > 4 << kd or e > 4 << ke:
            raise EmptyIntersection(
                f"constraint {n} (term {b}) empties the intersection", index=n
            )
        if d > 0:
            kd += 1
        else:
            d = kd = 0
        if e > 0:
            ke += 1
        else:
            e = ke = 0
    den = 3**n
    lo = ((2 * prev - 1) << (n - 1)) + (d << (n - 1 - kd))
    hi = ((2 * prev + 1) << (n - 1)) - (e << (n - 1 - ke))
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
