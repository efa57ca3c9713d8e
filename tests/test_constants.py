"""Tests for rational intervals, the two constant enclosures, and digits.

The digit strings pinned below were frozen from an independent scan of the
growth constraints with Fraction arithmetic, written before this module,
and are compared as literal text; nothing here is allowed to round.
The bisection renderer below searches the certified depth two truncations
per probe, the reference for the library's one-truncation renderer;
ow_sequence steps the K3 iteration one term at a time, the reference for
_advance's eight-step jumps over f; the integer-numerator fold below is the
reference for the library's fold of two small offsets, which
_intersect_growth_constraints below feeds from any term list, and the term-fed
offset fold below, kept as it stood before the fold read parities, is the
reference for c_enclosure, which builds no term and folds only the last
full window of eight terms and the terms after it, from 0. The lemma that
makes that exact is checked over all 512 windows with eight steps of the
fold composed in Fraction arithmetic: each window's value from 0 is at most
the largest start that every window which can follow it takes to its own
value from 0. Both maps' tables are held to the maps stepped one at a time,
and the two walks to each other: f's orbit from 2 is g's from 3 less one.
"""

import random
import sys
import tracemalloc
from collections import deque
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cli_run import run_cli

import divgap.constants
from divgap.constants import (
    _JUMPS,
    DEFAULT_TERMS,
    K3_SCALE,
    _advance,
    _fold_growth_constraints,
    _growth_interval,
    _jump_table,
    _window_steps,
    c_enclosure,
    k3_enclosure,
    orbit_identity,
    relation_check,
)
from divgap.errors import EmptyIntersection
from divgap.intervals import (
    SPLIT_BITS,
    DigitCertificate,
    RationalInterval,
    decimal_str,
    render_digits,
)
from divgap.josephus import ow_sequence
from divgap.report import CheckRecord
from divgap.sequences import b_seq, b_terms

# 34 certified places of the growth constant from the 200-term enclosure
C_200 = "0.3605045561966149591015446628665164"
# the first 26 of those places, quoted independently as the reference value
C_REFERENCE_26 = "0.36050455619661495910154466"
# leading digits of the seed-2 iteration's growth constant
K3_PREFIX = "1.62227050288476731595695098"


# --- RationalInterval ---


def test_interval_basics():
    iv = RationalInterval(Fraction(1, 3), Fraction(1, 2))
    assert iv.width == Fraction(1, 6)
    assert iv.contains(Fraction(2, 5))
    assert not iv.contains(Fraction(2, 3))
    assert iv.encloses(RationalInterval(Fraction(1, 3), Fraction(2, 5)))


def test_interval_coerces_and_validates():
    iv = RationalInterval(1, 2)
    assert iv.lo == Fraction(1) and iv.hi == Fraction(2)
    with pytest.raises(ValueError):
        RationalInterval(2, 1)


def test_interval_scale_and_intersect():
    iv = RationalInterval(2, 4).scale(Fraction(1, 2))
    assert (iv.lo, iv.hi) == (1, 2)
    a = RationalInterval(0, 2)
    b = RationalInterval(1, 3)
    got = a.intersect(b)
    assert (got.lo, got.hi) == (1, 2)
    assert a.intersect(RationalInterval(5, 6)) is None
    assert a.overlaps(b)
    assert not a.overlaps(RationalInterval(3, 4))


def test_interval_hull():
    h = RationalInterval(0, 1).hull(RationalInterval(3, 4))
    assert (h.lo, h.hi) == (0, 4)


def test_point_interval():
    pt = RationalInterval(Fraction(1, 3), Fraction(1, 3))
    assert pt.width == 0
    assert pt.contains(Fraction(1, 3))


# --- render_digits ---


def test_render_digits_truncates_never_rounds():
    iv = RationalInterval(Fraction(1999, 1000), Fraction(19999, 10000))
    cert = render_digits(iv, 10)
    # common truncation prefix of 1.999 and 1.9999 at 3 places
    assert cert.decimal_prefix == "1.999"
    assert cert.certified_places == 3


def test_render_digits_integer_parts_must_agree():
    iv = RationalInterval(Fraction(9, 10), Fraction(11, 10))
    assert render_digits(iv, 5) == DigitCertificate("", 0)


def test_render_digits_point_interval_hits_the_cap():
    pt = RationalInterval(Fraction(1, 3), Fraction(1, 3))
    cert = render_digits(pt, 12)
    assert cert.decimal_prefix == "0.333333333333"
    assert cert.certified_places == 12


def test_render_digits_respects_the_cap():
    iv = c_enclosure(100)
    assert render_digits(iv, 5).certified_places == 5


@settings(max_examples=200, deadline=None)
@given(
    st.fractions(min_value=0, max_value=50),
    st.fractions(min_value=0, max_value=50),
    st.integers(min_value=1, max_value=25),
)
def test_render_digits_is_a_common_truncation_prefix(x, y, places):
    lo, hi = min(x, y), max(x, y)
    cert = render_digits(RationalInterval(lo, hi), places)
    if cert.certified_places == 0:
        if int(lo) != int(hi):
            assert cert.decimal_prefix == ""
        else:
            assert cert.decimal_prefix == str(int(lo))
        return
    d = cert.certified_places
    scaled_lo = (lo.numerator * 10**d) // lo.denominator
    scaled_hi = (hi.numerator * 10**d) // hi.denominator
    assert scaled_lo == scaled_hi
    whole, frac = divmod(scaled_lo, 10**d)
    assert cert.decimal_prefix == f"{whole}.{frac:0{d}d}"
    # maximality: one more place must disagree, unless the cap cut it off
    if d < places:
        e = d + 1
        assert (lo.numerator * 10**e) // lo.denominator != (
            hi.numerator * 10**e
        ) // hi.denominator


def _truncate(x: Fraction, places: int) -> int:
    return (x.numerator * 10**places) // x.denominator


def bisect_render(iv: RationalInterval, max_places: int) -> DigitCertificate:
    """Reference: the certified depth by binary search, two truncations per probe."""
    if _truncate(iv.lo, 0) != _truncate(iv.hi, 0):
        return DigitCertificate("", 0)
    lo_d, hi_d = 0, max_places
    while lo_d < hi_d:
        mid = (lo_d + hi_d + 1) // 2
        if _truncate(iv.lo, mid) == _truncate(iv.hi, mid):
            lo_d = mid
        else:
            hi_d = mid - 1
    places = lo_d
    whole = _truncate(iv.lo, 0)
    if places == 0:
        return DigitCertificate(str(whole), 0)
    tail = _truncate(iv.lo, places) - whole * 10**places
    return DigitCertificate(f"{whole}.{tail:0{places}d}", places)


# endpoints: a nonnegative rational, or a decimal with up to 30 places, so
# some sit exactly on a decimal boundary; small numerators give zero integer
# parts
_endpoint = st.one_of(
    st.fractions(min_value=0, max_value=1000),
    st.fractions(min_value=0, max_value=1, max_denominator=10**40),
    st.builds(lambda k, p: Fraction(k, 10**p),
              st.integers(min_value=0, max_value=10**35), st.integers(min_value=0, max_value=30)),
)


@settings(max_examples=800, deadline=None)
@given(_endpoint, _endpoint, st.integers(min_value=1, max_value=30), st.booleans())
@example(Fraction(1, 3), Fraction(1, 3), 30, False)
@example(Fraction(0), Fraction(0), 1, False)
@example(Fraction(1, 10), Fraction(1, 10), 1, False)
@example(Fraction(1, 10), Fraction(2, 10), 1, False)
@example(Fraction(99, 100), Fraction(1), 5, False)
@example(Fraction(0), Fraction(1, 10**30), 30, False)
@example(Fraction(123456, 10**6), Fraction(123457, 10**6), 30, False)
def test_render_digits_matches_the_bisection_reference(x, y, cap, point):
    lo, hi = min(x, y), max(x, y)
    iv = RationalInterval(lo, lo if point else hi)
    assert render_digits(iv, cap) == bisect_render(iv, cap)


@pytest.mark.parametrize("lo, hi, cap, want", [
    # every place agrees, up to the cap
    (Fraction(1, 3), Fraction(1, 3) + Fraction(1, 10**40), 30, ("0." + "3" * 30, 30)),
    (Fraction(123456789, 10**9), Fraction(123456789, 10**9), 9, ("0.123456789", 9)),
    # the first place differs
    (Fraction(1, 10), Fraction(29, 100), 5, ("0", 0)),
    (Fraction(71, 10), Fraction(79, 10), 3, ("7", 0)),
    # a carry chain: the digit strings differ from their first byte on, or
    # after a common prefix, however long the chain of nines
    (Fraction(999999, 10**7), Fraction(1, 10), 7, ("0", 0)),
    (Fraction(12999999, 10**8), Fraction(13, 100), 8, ("0.1", 1)),
    (Fraction(10**20 - 1, 10**20), Fraction(1), 25, ("", 0)),
    # depth 0: the width admits no place at all, with or without a common
    # integer part
    (Fraction(0), Fraction(9, 10), 5, ("0", 0)),
    (Fraction(5, 2), Fraction(7, 2), 5, ("", 0)),
], ids=["all", "all-exact", "first", "first-whole", "carry", "carry-prefix", "carry-whole",
        "depth0", "depth0-whole"])
def test_render_digits_at_the_prefix_edges(lo, hi, cap, want):
    iv = RationalInterval(lo, hi)
    assert render_digits(iv, cap) == DigitCertificate(*want) == bisect_render(iv, cap)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=5000))
@example(1)
@example(2)
@example(7)
@example(8)
@example(9)
@example(200)
@example(1000)
@example(4321)
@example(5000)
def test_render_digits_matches_the_reference_on_the_enclosures(n):
    c_iv = c_enclosure(n)
    scaled = k3_enclosure(n).scale(K3_SCALE)
    for iv in (c_iv, k3_enclosure(n), c_iv.hull(scaled)):
        assert render_digits(iv, n) == bisect_render(iv, n)


def test_decimal_rendering_matches_str():
    # str() of huge ints is guarded, so the guard is lifted for the comparison
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        for k in (SPLIT_BITS - 1, SPLIT_BITS, SPLIT_BITS + 1, 2 * SPLIT_BITS + 3):
            for x in (0, 1, 2**k - 1, 2**k, 2**k + 1, -(2**k) - 1):
                assert decimal_str(x) == str(x)
        rng = random.Random(2024)
        for _ in range(40):
            x = rng.getrandbits(rng.randint(1, 10**5))
            assert decimal_str(x) == str(x)
        # a canonical decimal string is the only one of its value, so this
        # checks what == str(x) would, without CPython's quadratic str()
        x = 2**10**6
        d = decimal_str(x)
        assert d.isascii() and d.isdigit() and d[0] != "0" and int(d) == x
    finally:
        sys.set_int_max_str_digits(old)


# --- the growth-constant enclosure ---


def test_c_enclosure_digits_at_200_terms():
    cert = render_digits(c_enclosure(200), 200)
    assert cert.decimal_prefix == C_200
    assert cert.certified_places == 34
    assert cert.decimal_prefix.startswith(C_REFERENCE_26)


def test_c_enclosure_width_law():
    for n in (1, 5, 20, 90, 200):
        assert c_enclosure(n).width <= Fraction(2, 3) ** n


def test_c_enclosure_nesting():
    outer = None
    for n in (1, 3, 10, 40, 120, 200, 300, 1000, 5000):
        iv = c_enclosure(n)
        assert iv.width >= 0  # non-empty by construction
        if outer is not None:
            assert outer.encloses(iv)
        outer = iv


def test_c_enclosure_more_terms_certify_more_digits():
    for n in (300, 5000):
        cert = render_digits(c_enclosure(n), n)
        assert cert.decimal_prefix.startswith(C_200)
        assert cert.certified_places >= 50


def test_c_enclosure_validates():
    with pytest.raises(ValueError):
        c_enclosure(0)


def _intersect_growth_constraints(terms) -> RationalInterval:
    """The growth constraints of any term list b_1, b_2, ..., through the library's fold.

    Feeds the fold t_n = 3b_(n-1) - 2b_n from the terms, read once, in
    order, and not kept; an empty intersection names its index and term.
    c_enclosure feeds the same fold from parities alone, and the references
    below hold the fold to the constraints of arbitrary terms through this.
    """
    terms = iter(terms)
    b = next(terms)

    def steps():
        nonlocal b
        for term in terms:
            t, b = 3 * b - 2 * term, term
            yield t

    try:
        state = _fold_growth_constraints(steps())
    except EmptyIntersection as exc:
        raise EmptyIntersection(
            f"constraint {exc.index} (term {b}) empties the intersection", index=exc.index
        ) from None
    return _growth_interval(b, *state)


def test_c_enclosure_reports_first_violation():
    # a fabricated second term far outside the first term's band
    with pytest.raises(EmptyIntersection) as info:
        _intersect_growth_constraints([1, 100])
    assert info.value.index == 2


def _enclosure_peak(n: int) -> int:
    """c_enclosure(n)'s tracemalloc peak."""
    tracemalloc.start()
    try:
        c_enclosure(n)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_c_enclosure_streams_the_recurrence():
    # no term is built: the fold reads the parities of at most 23 terms from
    # the low bits of one iterate. Held as a list, 20,000 terms peak near
    # 16 MiB. At 10^5 terms the walk's two full-width integers and the
    # endpoints' Fractions peak near 0.34 MiB; keeping a byte of parity per
    # term, 0.1 MB more, peaked at 0.45 MiB
    assert _enclosure_peak(20000) < 2**20
    assert _enclosure_peak(10**5) < 0.4 * 2**20


def _offset_fold_reference(terms) -> RationalInterval:
    """Reference: the term-fed offset fold as it stood before the fold read parities.

    Kept verbatim; c_enclosure builds no term and must give its interval.
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


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=5000))
@example(1)
@example(2)
@example(3)
@example(9)
@example(10)
@example(11)
@example(5000)
def test_c_enclosure_matches_the_term_fed_fold(n):
    assert c_enclosure(n) == _offset_fold_reference(b_terms(n))


def test_c_enclosure_matches_the_term_fed_fold_at_a_hundred_thousand():
    assert c_enclosure(10**5) == _offset_fold_reference(b_terms(10**5))


@pytest.mark.parametrize("n", [*range(1, 201), 1999, 3001, 4999, 12345])
def test_c_enclosure_matches_the_term_fed_fold_at_every_window_edge(n):
    # n = 1..200 puts the last term at every place of the first 25 windows,
    # with 0..7 terms left over after them, and the folded suffix's start
    # at each of the first 23 windows, past the switch at 17 terms
    assert c_enclosure(n) == _offset_fold_reference(b_terms(n))


def _g_parities(low: int) -> list[int]:
    """The parities of low, g(low), ..., g^7(low), stepped one at a time."""
    return [u % 2 for u in _orbit(_g, low, 7)]


def _window_ts(key: int) -> list[int]:
    """t of the eight terms of window key p * 256 + L: each parity minus the one before."""
    parities = [key >> 8, *_g_parities(key & 255)]
    return [y - x for x, y in zip(parities, parities[1:])]


def _composed_window(ts: list[int]) -> tuple[Fraction, Fraction]:
    """Reference: (S, C) of eight steps x -> max((3x + 2t - 1)/2, 0), in Fraction.

    B composes the eight affine parts and C is the clamped steps' value from
    0, so the window is x -> max((3/2)^8 x + B, C), and S, where the affine
    part meets C, is the largest x that ends at C. Along the way it checks
    that from 0 no step's value passes 2, that C is at most 1/2, and that no
    x <= S empties the intersection, since the least x at which some step's
    affine part passes 2, T, is at least S.
    """
    half = Fraction(1, 2)
    b = c = Fraction(0)
    thresholds = []
    for i, t in enumerate(ts, start=1):
        b = 3 * b * half + (2 * t - 1) * half
        before = 3 * c * half + (2 * t - 1) * half
        assert before <= 2
        c = max(before, 0)
        thresholds.append((2 - b) / Fraction(3, 2) ** i)
    s = (c - b) / Fraction(3, 2) ** 8
    assert c <= half and 0 <= s <= min(thresholds)
    return s, c


def _window_entry(key: int) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """(S, C) of D and of E for window key p * 256 + L: E's are D's with t negated."""
    ts = _window_ts(key)
    return (*_composed_window(ts), *_composed_window([-t for t in ts]))


def test_the_walk_folds_every_window_after_the_first_by_lookup():
    # why c_enclosure may fold the last full window from 0: every window
    # after the first is entered at or below its S, so it ends at its C as
    # if by lookup, whatever came before. Over all 512 keys p * 256 + L,
    # each C is at most the S of every key that can follow it, whose p is
    # the parity of the window's last term; the walk's first window ends at
    # D = 0 and E = 1/2, and that is at most both S of its second
    entries = [_window_entry(key) for key in range(512)]
    for key, (_, cd, _, ce) in enumerate(entries):
        p = _g_parities(key & 255)[7]
        following = entries[p << 8:(p + 1) << 8]
        assert cd <= min(f[0] for f in following), key
        assert ce <= min(f[2] for f in following), key
    n, d, kd, e, ke = _fold_growth_constraints(_window_steps(-1, 2, 8))
    assert (n, Fraction(d, 2**kd), Fraction(e, 2**ke)) == (9, 0, Fraction(1, 2))
    u = _orbit(_g, 2, 8)  # u_1, ..., u_9
    sd, _, se, _ = entries[(u[7] & 1) << 8 | u[8] & 255]
    assert 0 <= sd and Fraction(1, 2) <= se


def _f(x: int) -> int:
    return (3 * x + 1) // 2


def _g(u: int) -> int:
    return 3 * u // 2


def _orbit(step, x: int, k: int) -> list[int]:
    """x, step(x), ..., step^k(x), one step at a time."""
    out = [x]
    for _ in range(k):
        out.append(step(out[-1]))
    return out


# each map with the constant c of floor((3x + c)/2) that selects it
MAPS = [(_f, 1), (_g, 0)]


@pytest.mark.parametrize("step, c", MAPS, ids=["f", "g"])
def test_jump_table_is_the_stepwise_map(step, c):
    assert [_orbit(step, low, 8)[8] for low in range(256)] == list(_jump_table(c))


def test_the_kernels_tables_are_the_stepwise_maps():
    # the tables _advance reads, indexed by c, not rebuilt by _jump_table
    for step, c in MAPS:
        assert len(_JUMPS[c]) == 256
        for low in range(256):
            assert _JUMPS[c][low] == _orbit(step, low, 8)[8]


_TABLES = {step: _jump_table(c) for step, c in MAPS}


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=2**300))
@example(0)
@example(255)
@example(256)
@example(2**24 - 1)
@example(2**24)
@example(2**300)
def test_one_jump_is_eight_steps_of_either_map(x):
    # on a full-size integer: the jump's value from the low byte's table
    # entry, and the parities of its first j iterates, which are those of
    # x mod 2^j: at j = 8 a jump's, at j = 24 those c_enclosure reads
    for step, table in _TABLES.items():
        orbit = _orbit(step, x, 23)
        assert 3**8 * (x >> 8) + table[x & 255] == orbit[8]
        for j in (8, 24):
            low = x & (1 << j) - 1
            assert [y % 2 for y in orbit[:j]] == [y % 2 for y in _orbit(step, low, j - 1)]
    parities = [y % 2 for y in _orbit(_g, x, 23)]
    for prev in (0, 1):
        assert list(_window_steps(prev, x & 0xFFFFFF, 24)) == [
            p - q for q, p in zip([prev, *parities], parities)]


def _fraction_intersection(terms: list[int]) -> RationalInterval:
    """Reference: the same intersection with every step in Fraction arithmetic."""
    lo = hi = None
    scale = Fraction(1)
    two_thirds = Fraction(2, 3)
    half = Fraction(1, 2)
    for n, b in enumerate(terms, start=1):
        scale *= two_thirds
        cand_lo = (b - half) * scale
        cand_hi = (b + half) * scale
        lo = cand_lo if lo is None else max(lo, cand_lo)
        hi = cand_hi if hi is None else min(hi, cand_hi)
        if lo > hi:
            raise EmptyIntersection(
                f"constraint {n} (term {b}) empties the intersection", index=n
            )
    return RationalInterval(lo, hi)


B_1500 = b_seq(1500).terms


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=len(B_1500)))
def test_integer_intersection_matches_fraction_reference(n):
    assert _intersect_growth_constraints(B_1500[:n]) == _fraction_intersection(B_1500[:n])


# every one-term shift of the first 1500 terms by +-1 or +-2 empties the
# intersection within 8 further terms; 16 leaves room
SHIFT_REACH = 16


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_shifted_term_raises_like_the_fraction_reference(data):
    k = data.draw(st.integers(min_value=1, max_value=len(B_1500) - SHIFT_REACH))
    n = data.draw(st.integers(min_value=k + SHIFT_REACH, max_value=len(B_1500)))
    terms = B_1500[:n]
    terms[k - 1] += data.draw(st.sampled_from([-2, -1, 1, 2]))
    with pytest.raises(EmptyIntersection) as want:
        _fraction_intersection(terms)
    with pytest.raises(EmptyIntersection) as got:
        _intersect_growth_constraints(terms)
    assert got.value.index == want.value.index
    assert str(got.value) == str(want.value)


def _integer_numerator_intersection(terms) -> RationalInterval:
    """Reference: the fold the offset fold replaced, kept verbatim.

    The running bounds are full integer numerators over 3^n, each step
    multiplying them by 3 and comparing against the shifted candidates.
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


def _half_sum_terms(n_max: int) -> list[int]:
    """Reference: b(1..n_max) with the ceiling of half the sum as (s + 1) // 2."""
    out = []
    t = s = 1
    for _ in range(n_max):
        out.append(t)
        t = (s + 1) // 2
        s += t
    return out


B_5000 = _half_sum_terms(5000)


def test_b_terms_match_the_floor_division_form():
    assert list(b_terms(5000)) == B_5000
    assert B_5000[:len(B_1500)] == B_1500


def _same_fold(terms: list[int]) -> None:
    """The offset fold and the reference agree: one interval, or one refusal."""
    try:
        want = _integer_numerator_intersection(terms)
    except EmptyIntersection as exc:
        with pytest.raises(EmptyIntersection) as got:
            _intersect_growth_constraints(terms)
        assert got.value.index == exc.index
        assert str(got.value) == str(exc)
    else:
        assert _intersect_growth_constraints(terms) == want


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=len(B_5000)))
@example(1)
@example(2)
@example(len(B_5000))
def test_offset_fold_matches_the_integer_numerators(n):
    _same_fold(B_5000[:n])


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_offset_fold_matches_the_integer_numerators_off_the_recurrence(data):
    # one or more terms moved by +-1, +-2 or far out; the fold must empty at
    # the same index with the same message, or give the same interval when
    # the moved terms stay inside the band (the last one or two can)
    n = data.draw(st.integers(min_value=1, max_value=len(B_5000)))
    terms = B_5000[:n]
    far = st.one_of(st.integers(min_value=-10**6, max_value=10**6),
                    st.integers().map(lambda x: x << 200))
    for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
        k = data.draw(st.integers(min_value=0, max_value=n - 1))
        shift = data.draw(st.one_of(st.sampled_from([-2, -1, 1, 2]), far))
        terms[k] += shift
    _same_fold(terms)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(min_value=-(10**30), max_value=10**30), min_size=1, max_size=40))
@example([1, 100])
@example([1, 1, 2, 3, 5, 8])
@example([1, 1, 2, 3, 5, 7])
@example([0])
def test_offset_fold_matches_the_integer_numerators_on_any_terms(terms):
    _same_fold(terms)


# --- the ceiling-iteration constant ---


def test_k3_enclosure_digits():
    cert = render_digits(k3_enclosure(200), 200)
    assert cert.decimal_prefix.startswith(K3_PREFIX)
    assert cert.certified_places >= 30


def test_k3_enclosure_width_is_exact():
    for n in (1, 7, 33, 128):
        assert k3_enclosure(n).width == 2 * Fraction(2, 3) ** n


def test_k3_enclosure_nesting():
    outer = None
    for n in (1, 4, 16, 64, 256):
        iv = k3_enclosure(n)
        if outer is not None:
            assert outer.encloses(iv)
        outer = iv


def test_k3_seed_choice_is_the_shifted_seed1_iteration():
    # the seed-1 iterate one index later gives the same enclosure endpoints
    n = 50
    e_seed1 = ow_sequence(3, 1, n + 1)[-1]
    iv = k3_enclosure(n)
    assert iv.lo == e_seed1 * Fraction(2, 3) ** n


@pytest.mark.parametrize("count", range(1, 65))
def test_jumped_iterate_matches_ow_sequence_at_every_short_count(count):
    # counts 1..64 cover every tail of 0..7 single steps after 0..7 jumps
    for seed in (1, 2, 3, 255, 256, 257):
        assert _advance(1, seed, count - 1) == ow_sequence(3, seed, count)[-1]


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=1, max_value=10**6), st.integers(min_value=1, max_value=3000))
def test_jumped_iterate_matches_ow_sequence(seed, count):
    assert _advance(1, seed, count - 1) == ow_sequence(3, seed, count)[-1]


def test_the_two_orbits_are_one_orbit_shifted_by_one():
    # f(x) = g(x + 1) - 1, so f^k(2) + 1 = g^(k+1)(2) = g^k(3). Chunks of
    # 1..40 steps run both the jumps and the single-step tails of either
    # map; orbit_identity compares the two at every jump boundary
    rng = random.Random(31)
    x, u, k = 2, 3, 0
    while k < 10**4:
        s = rng.randint(1, 40)
        x = _advance(1, x, s)
        u = _advance(0, u, s)
        k += s
        assert x + 1 == u, k
    # at 10^5 once, with g's walk held to b(n): g^(n-2)(3) is u_n, the
    # running sum plus one, which is 3b(n) or 3b(n) + 1
    n = 10**5
    x = _advance(1, 2, n - 2)
    u = _advance(0, 3, n - 2)
    assert x + 1 == u
    b = deque(b_terms(n), maxlen=1)[0]
    assert u - 3 * b in (0, 1)


@pytest.mark.parametrize("n", [1, 2, 8, 9, 10, 16, 17, 1000, 10**4])
def test_orbit_identity_holds(n):
    assert orbit_identity(n) == CheckRecord(n, True)


def test_orbit_identity_validates():
    with pytest.raises(ValueError):
        orbit_identity(0)


@pytest.mark.parametrize("c", [0, 1], ids=["g", "f"])
def test_orbit_identity_fails_at_the_first_jump_that_reads_a_wrong_entry(c, monkeypatch):
    # one entry of either table one off: the first jump from an iterate with
    # that low byte breaks the identity at the boundary after it
    low = 123
    table = list(divgap.constants._JUMPS[c])
    table[low] += 1
    jumps = list(divgap.constants._JUMPS)
    jumps[c] = tuple(table)
    monkeypatch.setattr(divgap.constants, "_JUMPS", tuple(jumps))
    x, k = 2 - c, 0
    while x & 255 != low:
        x = _advance(c, x, 8)
        k += 8
    got = orbit_identity(k + 20)
    assert (got.index, got.passed) == (k + 9, False)
    f_found, g_found = got.actual
    assert (f_found == got.expected, g_found == got.expected) == (c == 0, c == 1)


def test_k3_enclosure_is_the_stepwise_enclosure():
    for n in (1, 2, 7, 8, 9, 200, 1000):
        e = ow_sequence(3, 2, n)[-1]
        scale = Fraction(2, 3) ** n
        assert k3_enclosure(n) == RationalInterval(e * scale, (e + 2) * scale)


# --- the relation between the two constants ---


def test_relation_at_200_terms():
    rep = relation_check(200)
    assert rep.overlap
    assert rep.agreeing_places == 34
    assert rep.c_interval.overlaps(rep.k3_scaled_interval)


def test_relation_at_50_terms():
    rep = relation_check(50)
    assert rep.overlap
    assert rep.agreeing_places == 8


def test_relation_scaling_factor():
    assert K3_SCALE == Fraction(2, 9)
    rep = relation_check(80)
    want = k3_enclosure(80).scale(Fraction(2, 9))
    assert rep.k3_scaled_interval.lo == want.lo
    assert rep.k3_scaled_interval.hi == want.hi


def test_relation_at_5000_terms():
    rep = relation_check(5000)
    assert rep.overlap
    assert rep.agreeing_places >= 870


def test_relation_at_20000_terms():
    rep = relation_check(20000)
    assert rep.overlap
    assert rep.agreeing_places >= 3500


def test_relation_past_the_int_string_guard():
    # 30,000 terms certify more places than the interpreter's default guard
    # lets str() render; called as a library, outside the CLI that raises
    # it, the digits must render all the same
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        rep = relation_check(30000)
    finally:
        sys.set_int_max_str_digits(old)
    assert rep.overlap
    assert rep.agreeing_places >= 5000


def test_relation_agreement_grows_with_terms():
    places = [relation_check(n).agreeing_places for n in (25, 50, 100, 200)]
    assert places == sorted(places)


def test_default_terms():
    assert DEFAULT_TERMS == 200


# --- one enclosure per command ---


@pytest.mark.parametrize("which, name", [("c", "c_enclosure"), ("k3", "k3_enclosure")])
def test_constants_command_builds_its_enclosure_once(which, name, monkeypatch):
    real = getattr(divgap.constants, name)
    calls = []

    def counted(n_terms):
        calls.append(n_terms)
        return real(n_terms)

    # the cli's handler imports the name from divgap.constants when it runs
    monkeypatch.setattr(divgap.constants, name, counted)
    proc = run_cli("constants", which, "--terms", "300")
    assert proc.returncode == 0
    assert calls == [300]
    assert proc.stdout.splitlines()[2] == "terms: 300"
