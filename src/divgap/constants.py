"""Certified rational enclosures of the two limit constants and their relation.

The growth constant c of the half-sum ceiling recurrence satisfies
b(n) = ceil(c * (3/2)**n - 1/2) for every n, so each computed term pins c
inside an interval of width (2/3)**n; intersecting them certifies digits,
and needs only the parities of the recurrence's running sums, not its
terms. The circle-game constant K3 is the limit of e(n) * (2/3)**n for the
q = 3 ceiling iteration x -> floor((3x + 1)/2) seeded at 2, which nests by
construction. Both 3/2 maps advance through one routine, _advance, eight
steps a jump, each from its own table of 256 jumps; c's fold reads the
parities that walk passes. relation_check compares c against (2/9) * K3
with no rounding anywhere.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable
from fractions import Fraction
from itertools import chain
from operator import sub

# DEFAULT_TERMS is public here
from .errors import DEFAULT_TERMS, EmptyIntersection, brief  # noqa: F401
from .intervals import RationalInterval, render_digits

K3_SCALE = Fraction(2, 9)


def _jump_table(c: int) -> tuple[tuple[int, bytes], ...]:
    """For step(x) = floor((3x + c)/2) and each L in 0..255: step^8(L) and
    the parities of L, step(L), ..., step^7(L).

    Both 3/2 maps here, f (c = 1) and g(u) = floor(3u/2) (c = 0), satisfy
    step(2^j*G + M) = 3*2^(j-1)*G + step(M) for every j >= 1 and integer M,
    so by induction step^i(2^8*H + L) = 3^i*2^(8-i)*H + step^i(L) for
    i <= 8: eight steps of a full-size integer are one shift, mask, multiply
    and add, and the parities of its first eight iterates are its low
    byte's.
    """
    table = []
    for x in range(256):
        parities = bytearray()
        for _ in range(8):
            parities.append(x & 1)
            x = (3 * x + c) >> 1
        table.append((x, bytes(parities)))
    return tuple(table)


# the jump tables of g (c = 0) and f (c = 1), indexed by c
_JUMPS = (_jump_table(0), _jump_table(1))


def _advance(c: int, x: int, k: int, parities: bytearray | None = None) -> int:
    """step^k(x) for step(x) = floor((3x + c)/2), eight steps a jump.

    step^8(2^8*H + L) = 3^8*H + step^8(L) (see _jump_table): one shift,
    mask, multiply and add replace eight steps on the full-size integer.
    The last k mod 8 steps run singly. Given a bytearray, appends the
    parities of x, step(x), ..., step^(k-1)(x) to it.
    """
    table = _JUMPS[c]
    if parities is None:
        for _ in range(k >> 3):
            x = 3**8 * (x >> 8) + table[x & 255][0]
    else:
        for _ in range(k >> 3):
            x8, eight = table[x & 255]
            parities += eight
            x = 3**8 * (x >> 8) + x8
    for _ in range(k & 7):
        if parities is not None:
            parities.append(x & 1)
        x = (3 * x + c) >> 1
    return x


def _fold_growth_constraints(steps: Iterable[int]) -> tuple[int, int, int]:
    """Fold the per-index constraints ((b - 1/2), (b + 1/2)] * (2/3)^n.

    Over the denominator 3^n, constraint n is [L_n, H_n] with
    L_n, H_n = (2b_n -+ 1) * 2^(n-1), and the running bounds fold as
    lo_n = max(3 lo_(n-1), L_n) and hi_n = min(3 hi_(n-1), H_n). Both are
    kept as nonnegative offsets from the newest constraint, in units of
    2^(n-1): lo_n = L_n + D * 2^(n-1) and hi_n = H_n - E * 2^(n-1).
    Substituting, with t_n = 3b_(n-1) - 2b_n,

        D' = max((3D + 2t - 1) / 2, 0),  E' = max((3E - 2t - 1) / 2, 0),

    and the intersection is empty exactly when D' + E' > (H_n - L_n)/2^(n-1),
    which is 2. Since 3 lo_(n-1) <= 3 hi_(n-1), the bounds cross only when
    one crosses the other's newest constraint, 3 lo_(n-1) > H_n or
    3 hi_(n-1) < L_n: that is, when one offset alone exceeds 2 before its
    max. Each offset is a numerator over 2^k: with D = d/2^k, D' before the
    max is 3d + (2t - 1) * 2^k over 2^(k+1), and when the newest constraint
    binds, d and k reset to 0. On the recurrence's own terms t is small and
    the binding constraint is a few terms back, so the offsets stay a few
    bits wide. Correctness rests on the identities above, not on how wide
    the offsets get.

    steps is t_2, t_3, ..., read once, in order; the fold needs no term.
    Returns n and the offsets D * 2^(n-1) and E * 2^(n-1): with b_n, they
    give the endpoints (see _growth_interval). An empty running
    intersection would falsify the ceiling closed form, so it aborts with
    the first violating index instead of clamping.
    """
    n = 1
    d = kd = e = ke = 0  # D = d / 2^kd, E = e / 2^ke
    for n, t in enumerate(steps, start=2):
        # the offsets before the max, each a numerator over one more power of 2
        d = 3 * d + ((2 * t - 1) << kd)
        e = 3 * e - ((2 * t + 1) << ke)
        if d > 4 << kd or e > 4 << ke:
            raise EmptyIntersection(f"constraint {n} empties the intersection", index=n)
        if d > 0:
            kd += 1
        else:
            d = kd = 0
        if e > 0:
            ke += 1
        else:
            e = ke = 0
    return n, d << (n - 1 - kd), e << (n - 1 - ke)


def _growth_interval(n: int, b: int, lo_offset: int, hi_offset: int) -> RationalInterval:
    """The folded intersection of constraints 1..n, from b_n and the fold's offsets."""
    den = 3**n
    return RationalInterval(Fraction(((2 * b - 1) << (n - 1)) + lo_offset, den),
                            Fraction(((2 * b + 1) << (n - 1)) - hi_offset, den))


def c_enclosure(n_terms: int) -> RationalInterval:
    """Enclosure of the growth constant from the first n_terms recurrence terms.

    Monotone in n_terms: more terms always give a subinterval. Width after n
    terms is at most (2/3)**n.

    No term is built. With u_m = b_1 + ... + b_m + 1, the recurrence is
    b_(m+1) = u_m >> 1 and u_(m+1) = u_m + b_(m+1) = g(u_m) = floor(3u_m / 2),
    so 2b_n = u_(n-1) - (u_(n-1) mod 2) for n >= 2 and the fold's input is
    t_n = (u_(n-1) mod 2) - (u_(n-2) mod 2) for n >= 3, while t_2 = 1:
    that is the same difference with -1 for the parity before u_1 = 2.
    _advance walks g from u_1 to u_n, eight terms a jump, and records the
    parities of u_1, ..., u_(n-1) on the way; u_n is 3b_n or 3b_n + 1 for
    n >= 2 and 2 for n = 1, so b_n = (u_n + 1) // 3.
    """
    if n_terms < 1:
        raise ValueError(f"n_terms must be at least 1, got {brief(n_terms)}")
    parities = bytearray()
    u = _advance(0, 2, n_terms - 1, parities)
    n, lo_offset, hi_offset = _fold_growth_constraints(
        map(sub, parities, chain((-1,), parities)))
    return _growth_interval(n, (u + 1) // 3, lo_offset, hi_offset)


def k3_enclosure(n_terms: int) -> RationalInterval:
    """Enclosure of the circle-game constant from the seed-2 ceiling iteration.

    With e the n-th iterate, f^(n-1)(2) by _advance, the limit lies in
    [e * (2/3)**n, (e + 2) * (2/3)**n]; the lower bounds rise and the upper
    bounds fall, so the intervals nest and the width is exactly 2 * (2/3)**n.
    """
    if n_terms < 1:
        raise ValueError(f"n_terms must be at least 1, got {brief(n_terms)}")
    e = _advance(1, 2, n_terms - 1)
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
        raise ValueError(f"n_terms must be at least 1, got {brief(n_terms)}")
    c_iv = c_enclosure(n_terms)
    scaled = k3_enclosure(n_terms).scale(K3_SCALE)
    hull = c_iv.hull(scaled)
    places = render_digits(hull, n_terms).certified_places
    return RelationReport(c_iv, scaled, c_iv.overlaps(scaled), places)
