"""Certified rational enclosures of the two limit constants and their relation.

The growth constant c of the half-sum ceiling recurrence satisfies
b(n) = ceil(c * (3/2)**n - 1/2) for every n, so each computed term pins c
inside an interval of width (2/3)**n; intersecting them certifies digits,
and needs only the parities of the recurrence's running sums, not its
terms. The circle-game constant K3 is the limit of e(n) * (2/3)**n for the
q = 3 ceiling iteration x -> floor((3x + 1)/2) seeded at 2, which nests by
construction. Both 3/2 maps advance through one routine, _advance, eight
steps a jump, each from its own table of 256 jumps. c's fold binds only in
its last full window of eight terms and the terms after it, so it folds
those alone, from parities that the low bits of one iterate of the walk
fix. relation_check compares c against (2/9) * K3 with no rounding
anywhere, and orbit_identity holds the two maps' orbits to each other and
to the recurrence.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Iterator
from fractions import Fraction
from itertools import islice

# DEFAULT_TERMS is public here
from .errors import DEFAULT_TERMS, EmptyIntersection, brief  # noqa: F401
from .intervals import RationalInterval, render_digits
from .report import CheckRecord

K3_SCALE = Fraction(2, 9)


def _jump_table(c: int) -> tuple[int, ...]:
    """step^8(L) for step(x) = floor((3x + c)/2) and each L in 0..255.

    Both 3/2 maps here, f (c = 1) and g(u) = floor(3u/2) (c = 0), satisfy
    step(2^j*G + M) = 3*2^(j-1)*G + step(M) for every j >= 1 and integer M,
    so by induction step^i(2^j*G + M) = 3^i*2^(j-i)*G + step^i(M) for
    i <= j: the parities of the first j iterates of x are those of
    x mod 2^j, and at j = 8 eight steps of a full-size integer are one
    shift, mask, multiply and add.
    """
    table = []
    for x in range(256):
        for _ in range(8):
            x = (3 * x + c) >> 1
        table.append(x)
    return tuple(table)


# the jump tables of g (c = 0) and f (c = 1), indexed by c
_JUMPS = (_jump_table(0), _jump_table(1))


def _advance(c: int, x: int, k: int) -> int:
    """step^k(x) for step(x) = floor((3x + c)/2), eight steps a jump.

    step^8(2^8*H + L) = 3^8*H + step^8(L) (see _jump_table): one shift,
    mask, multiply and add replace eight steps on the full-size integer.
    The last k mod 8 steps run singly.
    """
    table = _JUMPS[c]
    for _ in range(k >> 3):
        x = 3**8 * (x >> 8) + table[x & 255]
    for _ in range(k & 7):
        x = (3 * x + c) >> 1
    return x


def _fold_growth_constraints(steps: Iterable[int],
                             n: int = 1) -> tuple[int, int, int, int, int]:
    """Fold the per-index constraints ((b - 1/2), (b + 1/2)] * (2/3)^n, one a step.

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

    steps is t_(n+1), t_(n+2), ..., read once, in order, from D = E = 0 at
    index n; the default n = 1 is the state after constraint 1 alone.
    Returns (n, d, kd, e, ke) after the last step, D = d/2^kd and
    E = e/2^ke: with b_n, it gives the endpoints (see _growth_interval). An
    empty running intersection would falsify the ceiling closed form, so it
    aborts with the first violating index instead of clamping.
    """
    d = kd = e = ke = 0
    for n, t in enumerate(steps, start=n + 1):
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
    return n, d, kd, e, ke


def _window_steps(prev: int, low: int, count: int) -> Iterator[int]:
    """t for the count terms from u, read from low = u mod 2^k for count <= k.

    The parities of u, g(u), ..., g^(k-1)(u) are those of the same iterates
    of u mod 2^k (see _jump_table), so they are stepped on a small integer;
    each t is a parity minus the one before it, prev before the first.
    """
    for _ in range(count):
        p = low & 1
        yield p - prev
        prev = p
        low = 3 * low >> 1


def _growth_interval(b: int, n: int, d: int, kd: int, e: int, ke: int) -> RationalInterval:
    """The folded intersection of constraints 1..n, from b_n and the fold's state."""
    den = 3**n
    return RationalInterval(Fraction(((2 * b - 1) << (n - 1)) + (d << (n - 1 - kd)), den),
                            Fraction(((2 * b + 1) << (n - 1)) - (e << (n - 1 - ke)), den))


def c_enclosure(n_terms: int) -> RationalInterval:
    """Enclosure of the growth constant from the first n_terms recurrence terms.

    Monotone in n_terms: more terms always give a subinterval. Width after n
    terms is at most (2/3)**n.

    No term is built. With u_m = b_1 + ... + b_m + 1, the recurrence is
    b_(m+1) = u_m >> 1 and u_(m+1) = u_m + b_(m+1) = g(u_m) = floor(3u_m / 2),
    so 2b_n = u_(n-1) - (u_(n-1) mod 2) for n >= 2 and the fold's input is
    t_n = (u_(n-1) mod 2) - (u_(n-2) mod 2) for n >= 3, while t_2 = 1:
    that is the same difference with -1 for the parity before u_1 = 2.

    A window is the eight fold steps whose parities one jump of the walk
    skips, t_(8w+2) to t_(8w+9). Only the last full window and the
    n_terms - 1 mod 8 steps after it are folded, from D = E = 0, which is
    exact: a step x -> max((3x + 2t - 1)/2, 0) is nondecreasing in x, so a
    window ends at its value from 0, C, from every x up to some S >= 0, and
    every window after the first is entered at or below its S. The walk's
    first window ends at D = 0 and E = 1/2, at most both S of its second,
    and each window's C is at most the S of every window that can follow
    it; the tests check both over every window. Below 17 terms, with fewer
    than two full windows, the fold starts at t_2. _advance walks g from
    u_1 to u_(a+1), with a the start of the window before the last full
    one, a multiple of 8, or 0 below 17 terms. The low 24 bits of u_(a+1)
    fix the parities of the at most 23 terms from there to u_n (see
    _jump_table). The walk then goes on to u_n, which is 3b_n or 3b_n + 1
    for n >= 2 and 2 for n = 1, so b_n = (u_n + 1) // 3.
    """
    if n_terms < 1:
        raise ValueError(f"n_terms must be at least 1, got {brief(n_terms)}")
    count = n_terms - 1
    # the steps before the last full window, and the eight before those,
    # stepped only for the parity before it unless it is the first
    start = max(count - 8 - (count & 7), 0)
    a = max(start - 8, 0)
    u = _advance(0, 2, a)
    steps = islice(_window_steps(-1, u & 0xFFFFFF, count - a), start - a, None)
    state = _fold_growth_constraints(steps, start + 1)
    return _growth_interval((_advance(0, u, count - a) + 1) // 3, *state)


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


def orbit_identity(n_terms: int) -> CheckRecord:
    """Hold the f-orbit, the g-orbit and the recurrence to one another.

    f(x) = g(x + 1) - 1, so f^k(1) + 1 = g^k(2) = u_(k+1), the running sum
    b_1 + ... + b_(k+1) plus one: K3's iteration and c's walk are one orbit.
    Runs f from 1 and g from 2 through _advance, a jump at a time, beside
    sequences.b_terms, which reads no table, and compares the three at
    every jump boundary k = 0, 8, 16, ... and at k = n_terms - 1, so a wrong
    table entry fails at the first jump that reads it. Returns the record
    of the first index k + 1 at which they disagree, with the running sum
    plus one expected and (f^k(1) + 1, g^k(2)) found, or a passing record
    at n_terms.
    """
    from .sequences import b_terms

    if n_terms < 1:
        raise ValueError(f"n_terms must be at least 1, got {brief(n_terms)}")
    terms = b_terms(n_terms)
    x, u, s, done = 1, 2, next(terms), 0
    for k in (*range(0, n_terms - 1, 8), n_terms - 1):
        x = _advance(1, x, k - done)
        u = _advance(0, u, k - done)
        s += sum(islice(terms, k - done))
        done = k
        if not x + 1 == u == s + 1:
            return CheckRecord(k + 1, False, s + 1, (x + 1, u))
    return CheckRecord(n_terms, True)
