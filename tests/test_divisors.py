"""Tests for divisor enumeration and the minimal-gap operations.

The trial-division oracle is the ground truth here. Everything the factored
route produces is checked against it, either directly or through the naive
referee implementations defined at the top of this file. The trial-division
kernels' former loops (an upward scan keeping the last qualifying divisor,
and while loops stepping p * p <= rest) are kept verbatim below as the
reference for the downward scan and the range loops that replaced them. So
is the factored walk's former search and merge (a binary search for each
chain's square-root boundary, then a k-way merge of all chains in
descending order), and its former per-chain walk, which stepped each chain
down one exponent at a time from the binary search's boundary: both are
references for the walk that jumps to the qualifying step and works out
each boundary and power in line. The comparison both references use,
le_scaled, is the walk's former one, which built a power only where it fit
inside the smaller operand. The former gap_factorization, which factored inner
with f's primes as hints and multiplied in p**shared, is the reference for
the one that builds the gap's factorization in one mapping. The former
check_middle_pair_law, which built a fresh Factorization and split per k,
is the reference for the one that carries its split from k to k. The former
integer log, a binary search that built p**mid at every probe, is the
reference for the one that starts from a float quotient of logs.
"""

import operator
import random
import subprocess
import sys
import time
import tracemalloc
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divgap import divisors
from divgap.divisors import (
    BRUTE_UP_TO,
    DIVISOR_CAP,
    MAX_K_LIMIT,
    ORACLE_BOUND,
    DivisorPair,
    Factorization,
    _chain_split,
    _check_max_k,
    _grow,
    _ilog,
    _is_prime,
    _oracle_min_pair,
    _pow,
    _walk,
    check_divisor_count_law,
    check_middle_pair_law,
    delta,
    delta_above,
    delta_pair,
    divisor_count,
    divisor_list,
    divisor_list_factored,
    factorize,
    gap_factorization,
)
from divgap.errors import (
    DivgapError,
    NoQualifyingPair,
    OracleBoundExceeded,
    ResourceLimit,
    brief,
)
from divgap.report import CheckRecord, VerificationReport
from divgap.sequences import b_seq


def naive_divisors(m):
    """Reference list built by testing every candidate up to m."""
    return [d for d in range(1, m + 1) if m % d == 0]


def naive_min_pair(m, threshold=None):
    """Reference minimal-gap pair from the full divisor list, or None."""
    best = None
    for d in naive_divisors(m):
        e = m // d
        if d > e:
            continue
        if threshold is None or e - d > threshold:
            if best is None or e - d < best[1] - best[0]:
                best = (d, e)
    return best


def ascending_min_pair(m: int, threshold: int | None, oracle_bound: int) -> DivisorPair:
    """The oracle's former upward scan, which keeps the last qualifying divisor."""
    if m > oracle_bound:
        raise OracleBoundExceeded(
            f"m={brief(m)} exceeds the trial-division bound {oracle_bound}; "
            "raise it with --oracle-bound or pass a Factorization"
        )
    # The gap m/d - d shrinks as d grows, so the last qualifying d wins.
    best = None
    for d in range(1, isqrt(m) + 1):
        if m % d == 0:
            diff = m // d - d
            if threshold is None or diff > threshold:
                best = DivisorPair(d, m // d)
    if best is None:
        raise NoQualifyingPair(f"no divisor pair of {m} has difference above {threshold}")
    return best


def while_is_prime(p: int) -> bool:
    """The former primality loop, stepping d while d * d <= p."""
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def while_factorize(m: int, *, oracle_bound: int = ORACLE_BOUND,
                    hints: tuple[int, ...] = ()) -> Factorization:
    """The former factorize, stepping p while p * p <= rest."""
    if m < 1:
        raise ValueError(f"m must be positive, got {m}")
    found = {}
    rest = m
    for p in hints:
        if p == 2:
            if rest % 2 == 0:
                e = (rest & -rest).bit_length() - 1
                rest >>= e
                found[2] = e
        elif rest % p == 0:
            e = 0
            while rest % p == 0:
                rest //= p
                e += 1
            found[p] = e
    if rest > oracle_bound:
        raise OracleBoundExceeded(
            f"unfactored part {brief(rest)} of m exceeds the trial-division bound {oracle_bound}; "
            "raise it with --oracle-bound or supply a Factorization"
        )
    p = 2
    while p * p <= rest:
        if rest % p == 0:
            e = 0
            while rest % p == 0:
                rest //= p
                e += 1
            found[p] = found.get(p, 0) + e
        p += 1 if p == 2 else 2
    if rest > 1:
        found[rest] = found.get(rest, 0) + 1
    return Factorization.from_mapping(found)


def le_scaled(s: int, k: int, t: int, p: int) -> bool:
    """Exact s * p**k <= t for s >= 1 and any integer k; t >= 1, or t = 0 when k >= 0.

    The power is only materialized when it fits inside the smaller operand,
    so comparisons stay cheap even for exponents in the millions.
    """
    if k >= 0:
        if k > _ilog(t, p):
            return False
        return s * p**k <= t
    if -k > _ilog(s, p):
        return True
    return s <= t * p ** (-k)


def binary_search_ilog(x: int, p: int) -> int:
    """Largest a >= 0 with p**a <= x, for x >= 1. Exact binary search."""
    if p == 2:
        return x.bit_length() - 1
    lo, hi = 0, x.bit_length()
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if p**mid <= x:
            lo = mid
        else:
            hi = mid - 1
    return lo


def binary_search_boundary_exponent(s: int, c: int, p: int, e_big: int) -> int:
    """Largest a in [0, e_big] with s * p**a <= c * p**(e_big - a), else -1.

    That inequality says s * p**a is at most its complementary divisor, i.e.
    at most the square root of the whole number.
    """
    if not le_scaled(s, -e_big, c, p):
        return -1
    lo, hi = 0, e_big
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if le_scaled(s, 2 * mid - e_big, c, p):
            lo = mid
        else:
            hi = mid - 1
    return lo


def merged_small_side(p: int, e_big: int, chains: list[tuple[int, int]]):
    """Yield (s, a, c) for every divisor s * p**a at most its complement,
    in strictly decreasing order of value, without materializing any value.
    """
    active = []
    for s, c in chains:
        a = binary_search_boundary_exponent(s, c, p, e_big)
        if a >= 0:
            active.append([a, s, c])
    while active:
        best = 0
        for i in range(1, len(active)):
            a_i, s_i, _ = active[i]
            a_b, s_b, _ = active[best]
            if not le_scaled(s_i, a_i - a_b, s_b, p):
                best = i
        a, s, c = active[best]
        yield s, a, c
        if a == 0:
            active.pop(best)
        else:
            active[best][0] = a - 1


def merged_min_gap_step(
    f: Factorization, threshold: int | None
) -> tuple[int, int, int, int, int, int]:
    """The minimal pair of f with difference above threshold, kept in pieces.

    Returns (p, E, s, a, c, inner) for the pair s * p**a <= c * p**(E - a),
    whose difference is p**min(a, E - a) * inner. Only inner is built: it is
    c * p**(E - 2a) - s or c - s * p**(2a - E), and E - 2a stays near log_p T
    close to the square root, so inner stays small however large E is.
    """
    p, e_big, chains = _chain_split(f.pairs)
    # Walk down from the square root; the gap grows as the small side
    # shrinks, so the first qualifying divisor gives the minimal gap.
    for s, a, c in merged_small_side(p, e_big, chains):
        k = e_big - 2 * a
        inner = c * _pow(p, k) - s if k >= 0 else c - s * _pow(p, -k)
        shared = min(a, e_big - a)
        # inner is 0 only at an exact square root, where no threshold is met
        if threshold is None or (inner and not le_scaled(inner, shared, threshold, p)):
            return p, e_big, s, a, c, inner
    raise NoQualifyingPair(
        f"no divisor pair of the factored input has difference above {brief(threshold)}"
    )


def stepping_min_gap_step(
    f: Factorization, threshold: int | None
) -> tuple[int, int, int, int, int, int]:
    """The minimal pair of f with difference above threshold, kept in pieces.

    Returns (p, E, s, a, c, inner) for the pair s * p**a <= c * p**(E - a),
    whose difference is p**min(a, E - a) * inner. Only inner is built: it is
    c * p**(E - 2a) - s or c - s * p**(2a - E), and E - 2a stays near log_p T
    close to the square root, so inner stays small however large E is.
    """
    p, e_big, chains = _chain_split(f.pairs)
    # The gap strictly grows as the small side shrinks, so the qualifying
    # divisors are exactly those up to one bound. Each chain steps down from
    # its square-root boundary to its largest qualifying divisor, and the
    # largest of those over all chains has the minimal gap.
    best = None
    for s, c in chains:
        a = binary_search_boundary_exponent(s, c, p, e_big)
        while a >= 0:
            k = e_big - 2 * a
            inner = c * _pow(p, k) - s if k >= 0 else c - s * _pow(p, -k)
            # inner is 0 only at an exact square root, where no threshold is met
            if threshold is None or (
                inner and not le_scaled(inner, min(a, e_big - a), threshold, p)
            ):
                if best is None or not le_scaled(s, a - best[1], best[0], p):
                    best = s, a, c, inner
                break
            a -= 1
    if best is None:
        raise NoQualifyingPair(
            f"no divisor pair of the factored input has difference above {brief(threshold)}"
        )
    return (p, e_big, *best)


def hinted_gap_factorization(
    f: Factorization,
    threshold: int,
    *,
    oracle_bound: int = ORACLE_BOUND,
) -> Factorization:
    """delta_above(f, threshold).difference as a Factorization, never materialized.

    The walk is the one behind delta_above; the gap comes out as
    p**min(a, E - a) times a small inner factor, and only that inner factor
    is built. It is factored by trial division after dividing out f's own
    primes, and raises OracleBoundExceeded when the rest is above oracle_bound.
    """
    if threshold < 0:
        raise ValueError(f"threshold must be nonnegative, got {threshold}")
    p, e_big, _, a, _, inner = _walk(_chain_split(f.pairs), threshold)
    rest = factorize(inner, oracle_bound=oracle_bound, hints=tuple(q for q, _ in f.pairs))
    shared = min(a, e_big - a)
    return rest.multiply(Factorization(((p, shared),))) if shared else rest


def fresh_split_middle_pair_law(max_k: int) -> VerificationReport:
    """Adjudicate the minimal-gap law for 3 * 2**k.

    For every k the descending walk finds the minimal gap of 3 * 2**k in
    exponent space, and it must be 2^(ceil(k/2) - 1); for k up to BRUTE_UP_TO
    the trial-division oracle recomputes it on the integer as well. Records
    hold the exponents compared (actual is None for a gap that is not a
    power of two at all). The widely quoted exponent ceil(k/2) fails already
    at k = 4, where enumeration gives gap 2, so the report carries that as a
    note rather than a failure.
    """
    _check_max_k(max_k)
    records = []
    for k in range(1, max_k + 1):
        # 3 * 2**k is never a square, so its minimal gap is above 0
        exponents = dict(gap_factorization(Factorization._proven({2: k, 3: 1}), 0).pairs)
        actual = exponents.get(2, 0) if exponents.keys() <= {2} else None
        expected = (k + 1) // 2 - 1
        ok = actual == expected
        if ok and k <= BRUTE_UP_TO:
            ok = delta(3 << k) == 1 << expected
        records.append(CheckRecord(k, ok, expected, actual))
    notes = (
        "the gap exponent for 3*2^k is ceil(k/2) - 1, not the published ceil(k/2); "
        "enumeration gives gap 2 = 2^1 at k = 4 where the published form says 4",
    )
    return VerificationReport("middle-pair gap law for 3*2^k", tuple(records), notes)


def outcome(fn, *args, **kwargs):
    """fn's result, or the type and message of the error it raised."""
    try:
        return fn(*args, **kwargs)
    except (DivgapError, ValueError) as exc:
        return type(exc), str(exc)


# --- factorize and divisor lists ---


def test_factorize_small_known_values():
    assert factorize(1).pairs == ()
    assert factorize(2).pairs == ((2, 1),)
    assert factorize(48).pairs == ((2, 4), (3, 1))
    assert factorize(360).pairs == ((2, 3), (3, 2), (5, 1))
    assert factorize(97).pairs == ((97, 1),)


def test_factorize_round_trip_first_two_thousand():
    for m in range(1, 2001):
        assert factorize(m).value() == m


def test_factorize_rejects_nonpositive():
    with pytest.raises(ValueError):
        factorize(0)
    with pytest.raises(ValueError):
        factorize(-6)


def test_factorize_bound_is_enforced():
    with pytest.raises(OracleBoundExceeded):
        factorize(10**9 + 7, oracle_bound=10**6)


def test_factorize_hints_unlock_smooth_giants():
    # 2^5000 * 3 is far beyond any trial-division bound, but dividing out
    # the hinted primes leaves cofactor 1.
    f = factorize(3 * 2**5000, oracle_bound=10**6, hints=(2, 3))
    assert f.pairs == ((2, 5000), (3, 1))


@pytest.mark.parametrize("hint", [1, 0, -1])
def test_factorize_rejects_hints_below_two_at_once(hint):
    # 1 and -1 used to divide out forever, 0 raised ZeroDivisionError
    start = time.perf_counter()
    with pytest.raises(ValueError, match="is not prime"):
        factorize(12, hints=(hint,))
    assert time.perf_counter() - start < 0.05


def test_factorize_hints_do_not_excuse_the_cofactor():
    with pytest.raises(OracleBoundExceeded):
        factorize((10**9 + 7) * 2**100, oracle_bound=10**6, hints=(2,))


def test_divisor_list_small_cases():
    assert divisor_list(1) == [1]
    assert divisor_list(48) == [1, 2, 3, 4, 6, 8, 12, 16, 24, 48]
    assert divisor_list(49) == [1, 7, 49]


def test_divisor_list_matches_naive_scan():
    for m in range(1, 600):
        assert divisor_list(m) == naive_divisors(m)


def test_divisor_list_factored_agrees_exhaustively():
    for m in range(1, 2001):
        f = factorize(m)
        lst = divisor_list_factored(f)
        assert lst == divisor_list(m)
        assert divisor_count(f) == len(lst)


def test_divisor_list_factored_agrees_on_random_sample():
    rng = random.Random(20513)
    for _ in range(2000):
        m = rng.randrange(1, 10**6 + 1)
        assert divisor_list_factored(factorize(m)) == divisor_list(m)


def test_divisor_list_bound_and_cap():
    with pytest.raises(OracleBoundExceeded):
        divisor_list(10**15 + 1)
    f = Factorization(((2, 100), (3, 50)))
    with pytest.raises(ResourceLimit):
        divisor_list_factored(f, divisor_cap=1000)


def test_factorization_validates_structure():
    with pytest.raises(ValueError):
        Factorization(((4, 1),))  # not prime
    with pytest.raises(ValueError):
        Factorization(((3, 1), (2, 1)))  # out of order
    with pytest.raises(ValueError):
        Factorization(((2, 0),))  # exponent must be positive


def test_factorization_multiply_merges_exponents():
    f = Factorization(((2, 3), (5, 1))).multiply(Factorization(((2, 1), (3, 2))))
    assert f.pairs == ((2, 4), (3, 2), (5, 1))
    assert f.value() == 2**4 * 3**2 * 5


def test_multiply_and_factorize_prove_no_prime_twice(monkeypatch):
    g = Factorization(((2, 3), (7, 1)))
    calls = []
    monkeypatch.setattr(divisors, "_is_prime", lambda p: calls.append(p) or _is_prime(p))
    f = factorize(9999999967)
    assert f.pairs == ((9999999967, 1),)
    assert f.multiply(g).pairs == ((2, 3), (7, 1), (9999999967, 1))
    assert calls == []
    # the hints are still the caller's claim, proven when they divide m
    assert factorize(2**40 * 3 * 101, hints=(2, 3, 5)).pairs == ((2, 40), (3, 1), (101, 1))
    assert sorted(calls) == [2, 3]
    with pytest.raises(ValueError, match="6 is not prime"):
        factorize(12, hints=(6,))
    with pytest.raises(ValueError, match="4 is not prime"):
        Factorization(((4, 1),))


# --- minimal-gap pairs, oracle route ---


def test_delta_known_values():
    # pinned from the naive referee
    assert delta(1) == 0
    assert delta(2) == 1
    assert delta(48) == 2
    assert delta(100) == 0
    assert delta(97) == 96  # primes pair only as (1, p)
    assert delta_pair(48) == DivisorPair(small=6, large=8)


def test_delta_above_known_values():
    assert delta_above(48, 1) == DivisorPair(6, 8)
    assert delta_above(12, 1) == DivisorPair(2, 6)
    assert delta_above(36, 0) == DivisorPair(4, 9)


def test_delta_matches_naive_referee():
    for m in range(1, 800):
        assert (delta_pair(m).small, delta_pair(m).large) == naive_min_pair(m)
    for m in range(2, 800):
        for t in (0, 1, 2, 5):
            want = naive_min_pair(m, t)
            if want is None:
                with pytest.raises(NoQualifyingPair):
                    delta_above(m, t)
            else:
                got = delta_above(m, t)
                assert (got.small, got.large) == want


def test_delta_above_rejects_bad_input():
    with pytest.raises(ValueError):
        delta_above(48, -1)
    with pytest.raises(ValueError):
        delta_above(1, 1)


def test_delta_above_no_pair_above_threshold():
    with pytest.raises(NoQualifyingPair):
        delta_above(2, 1)  # only pair (1, 2), difference exactly 1
    with pytest.raises(NoQualifyingPair):
        delta_above(4, 3)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=1, max_value=10**5))
def test_delta_zero_iff_perfect_square(m):
    r = isqrt(m)
    assert (delta(m) == 0) == (r * r == m)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=2, max_value=10**5))
def test_delta_above_zero_dominates_delta(m):
    d = delta(m)
    above = delta_above(m, 0).difference
    assert above >= d
    if d > 0:
        assert above == d


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=10**6))
def test_divisor_lists_agree_everywhere(m):
    assert divisor_list_factored(factorize(m)) == divisor_list(m)


# --- the trial-division kernels against their former loops ---

SQUARES = (36, 100, 10**10)
PRIME_SQUARES = (4, 9, 25, 97**2, 999983**2)
TWICE_PRIMES = (6, 2 * 97, 2 * 999983, 2 * 100000007)
# Korselt's criterion holds for each: squarefree, and p - 1 divides m - 1
CARMICHAEL = (561, 1105, 1729, 41041, 825265, 321197185, 5394826801, 232250619601)
PINNED = (1, 2, 3, 48, 97, *SQUARES, *PRIME_SQUARES, *TWICE_PRIMES, *CARMICHAEL)
PRIME_NEAR_1E14 = 10**14 - 27
HINT_PRIMES = (2, 3, 5, 7, 11, 13)
# where the 6j - 1, 6j + 1 scan turns: 5 * 7 meets both of its first pair,
# 49 and 169 square a 6j + 1 prime, 11 * 13 and 101 * 103 are twin primes,
# 5 * 7^2 and 7 * 11 * 13 restart the scan after a 6j - 1 and after a 6j + 1
# prime, and 2^a * 3^b times 5 or 7 leave it one candidate
WHEEL_EDGES = (35, 49, 169, 143, 101 * 103, 5 * 7**2, 7 * 11 * 13,
               2**10 * 3**5 * 5, 2**3 * 3**7 * 7)


def pinned_thresholds(m: int) -> list[int | None]:
    """No threshold, the smallest ones, and each side of the minimal gap and
    of the largest gap m - 1, where the stop test's strictness shows."""
    g = ascending_min_pair(m, None, ORACLE_BOUND).difference
    return [None, *sorted({t for t in (0, 1, g - 1, g, g + 1, m - 2, m - 1) if t >= 0})]


@pytest.mark.parametrize("m", PINNED)
def test_downward_scan_matches_the_ascending_scan_pinned(m):
    for t in pinned_thresholds(m):
        assert outcome(_oracle_min_pair, m, t, ORACLE_BOUND) == outcome(
            ascending_min_pair, m, t, ORACLE_BOUND)
        if t is None:
            assert delta_pair(m) == ascending_min_pair(m, None, ORACLE_BOUND)
        elif m >= 2:
            assert outcome(delta_above, m, t) == outcome(ascending_min_pair, m, t, ORACLE_BOUND)


def test_kernels_at_a_prime_near_the_bound():
    p = PRIME_NEAR_1E14
    assert delta_pair(p) == ascending_min_pair(p, None, ORACLE_BOUND) == DivisorPair(1, p)
    assert factorize(p).pairs == ((p, 1),)
    assert _is_prime(p)
    assert outcome(_oracle_min_pair, p + 1, 0, p) == outcome(ascending_min_pair, p + 1, 0, p)


@pytest.mark.parametrize("m", [2, 48, 97, 10**14])
def test_scan_starts_below_the_largest_gap(m):
    # only d = 1, whose gap m - 1 is the largest, can exceed t = m - 2
    for t in (m - 2, m - 1, m, 10 * m):
        got = outcome(delta_above, m, t)
        if t == m - 2:
            assert got == DivisorPair(1, m)
        else:
            assert got == (NoQualifyingPair,
                           f"no divisor pair of {m} has difference above {t}")
        if m < 10**14:
            assert got == outcome(ascending_min_pair, m, t, ORACLE_BOUND)


def test_no_scan_runs_when_no_pair_can_qualify():
    start = time.perf_counter()
    with pytest.raises(NoQualifyingPair):
        delta_above(10**14, 10**14)
    assert time.perf_counter() - start < 0.01


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=2, max_value=10**6), st.data())
def test_scan_start_matches_the_ascending_scan_at_any_threshold(m, data):
    # thresholds around every gap of m, where the start's exact correction shows
    t = data.draw(st.one_of(
        st.integers(0, 2 * m),
        st.sampled_from([m // d - d + k for d in range(1, isqrt(m) + 1) if m % d == 0
                         for k in (-1, 0, 1) if m // d - d + k >= 0]),
    ))
    assert outcome(_oracle_min_pair, m, t, ORACLE_BOUND) == outcome(
        ascending_min_pair, m, t, ORACLE_BOUND)


@pytest.mark.parametrize("m", PINNED + WHEEL_EDGES)
def test_range_loops_match_the_while_loops_pinned(m):
    assert _is_prime(m) == while_is_prime(m)
    for hints in ((), (2,), HINT_PRIMES):
        assert factorize(m, hints=hints) == while_factorize(m, hints=hints)


# random m up to 10^12, and products of two factors up to 10^6, whose
# divisors crowd the square root
MACHINE_M = st.one_of(
    st.integers(min_value=1, max_value=10**12),
    st.builds(operator.mul, st.integers(1, 10**6), st.integers(1, 10**6)),
)


@settings(max_examples=60, deadline=None)
@given(MACHINE_M, st.one_of(st.none(), st.integers(0, 10**4)),
       st.sampled_from((ORACLE_BOUND, 10**9)))
def test_downward_scan_matches_the_ascending_scan(m, t, bound):
    assert outcome(_oracle_min_pair, m, t, bound) == outcome(ascending_min_pair, m, t, bound)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=-3, max_value=10**12))
def test_is_prime_matches_the_while_loop(p):
    assert _is_prime(p) == while_is_prime(p)


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(
        MACHINE_M,
        # smooth over the hint primes times a machine-scale cofactor
        st.builds(lambda a, i, j: a * 2**i * 3**j,
                  st.integers(1, 10**12), st.integers(0, 200), st.integers(0, 100)),
    ),
    st.lists(st.sampled_from(HINT_PRIMES), unique=True).map(lambda h: tuple(sorted(h))),
    st.sampled_from((ORACLE_BOUND, 10**6)),
)
def test_factorize_matches_the_while_loop(m, hints, bound):
    assert outcome(factorize, m, oracle_bound=bound, hints=hints) == outcome(
        while_factorize, m, oracle_bound=bound, hints=hints)


def test_factorize_refreshes_its_bound_after_each_prime():
    # 3^200 * 7 * p with p prime near 10^12 lies far above the default bound.
    # With the bound raised, the scan's top falls to isqrt(p) once the 3s and
    # the 7 are out, about 5 * 10^5 odd probes; a top kept from before either
    # division would probe up to p itself, about 5 * 10^11 of them.
    p = 999999999989
    m = 3**200 * 7 * p
    code = (
        "from divgap.divisors import factorize; "
        f"print(factorize({m}, oracle_bound={m}).pairs)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=10)
    assert proc.stdout == f"((3, 200), (7, 1), ({p}, 1))\n"


def test_pair_invariants():
    p = delta_pair(48)
    assert p.small * p.large == 48
    assert p.difference == p.large - p.small
    with pytest.raises(ValueError):
        DivisorPair(3, 2)


# --- minimal-gap pairs, factored route ---


def test_factored_route_agrees_with_oracle():
    for m in range(1, 3000):
        f = factorize(m)
        assert delta_pair(f) == delta_pair(m)
    for m in range(2, 1200):
        f = factorize(m)
        try:
            want = delta_above(m, 1)
        except NoQualifyingPair:
            with pytest.raises(NoQualifyingPair):
                delta_above(f, 1)
        else:
            assert delta_above(f, 1) == want
            assert gap_factorization(f, 1) == factorize(want.difference)


def test_factored_route_on_awkward_shapes():
    shapes = [
        ((2, 60), (3, 2), (5, 1)),
        ((2, 1), (3, 50)),
        ((5, 30), (7, 3)),
        ((2, 7), (3, 7), (5, 7)),
        ((11, 25),),
        ((2, 13), (13, 13)),
    ]
    for pairs in shapes:
        f = Factorization(pairs)
        m = f.value()
        divs = divisor_list_factored(f)
        best = None
        for d in divs:
            if d * d > m:
                break
            best = (d, m // d)
        got = delta_pair(f)
        assert (got.small, got.large) == best


def test_factored_route_perfect_squares():
    assert delta(Factorization(((2, 100), (3, 100)))) == 0
    assert delta(Factorization(((2, 40),))) == 0
    assert delta(Factorization(((7, 2),))) == 0


def test_factored_route_scales_to_millions_of_bits():
    # 3 * 2^1000001: middle pair is (2^500001, 3 * 2^500000), gap 2^500000
    f = Factorization(((2, 1000001), (3, 1)))
    pair = delta_above(f, 1)
    assert pair.small == 2**500001
    assert pair.large == 3 * 2**500000
    assert pair.difference == 2**500000


def test_factored_route_respects_chain_cap():
    # the part coprime to 2**10000 has 4001**2 divisors, above DIVISOR_CAP,
    # so the walk refuses before it builds a single chain
    f = Factorization(((2, 10000), (3, 4000), (5, 4000)))
    start = time.perf_counter()
    with pytest.raises(ResourceLimit, match="^the part coprime to 2 has 16008001 divisors, "
                       "above the cap 10000000; the walk builds one chain per divisor "
                       "of that part$"):
        delta(f)
    assert time.perf_counter() - start < 0.05


def test_factored_route_empty_factorization():
    one = Factorization(())
    assert delta(one) == 0
    with pytest.raises(NoQualifyingPair):
        delta_above(one, 0)


# --- the per-chain walk against the search-and-merge reference ---

WALK_PRIMES = (2, 3, 5, 7, 11)


def walk_boundary(s: int, c: int, p: int, e_big: int) -> int:
    """The exponent _walk starts the chain (s, c) from, or -1 when it has none.

    At no threshold the walk's pair on that one chain is its start. When
    s > c * p**E the chain has no divisor on the small side, and the walk
    finds no pair on it at any threshold.
    """
    if not le_scaled(s, -e_big, c, p):
        with pytest.raises(NoQualifyingPair):
            _walk((p, e_big, [(s, c)]), 0)
        return -1
    return _walk((p, e_big, [(s, c)]), None)[3]


def test_boundary_exponent_matches_the_binary_search_exhaustively():
    for p in (2, 3, 5):
        for e_big in range(10):
            for s in range(1, 41):
                for c in range(1, 41):
                    want = binary_search_boundary_exponent(s, c, p, e_big)
                    assert walk_boundary(s, c, p, e_big) == want, (s, c, p, e_big)


@settings(max_examples=500, deadline=None)
@given(
    st.integers(1, 10**6),
    st.integers(1, 10**6),
    st.sampled_from(WALK_PRIMES),
    st.one_of(st.integers(0, 60), st.integers(0, 10**300)),
)
def test_boundary_exponent_matches_the_binary_search(s, c, p, e_big):
    assert walk_boundary(s, c, p, e_big) == binary_search_boundary_exponent(s, c, p, e_big)


ILOG_PRIMES = (2, 3, 5, 7, 11, 13, 97, 65537, 999983)


def test_ilog_matches_the_binary_search_on_random_inputs():
    rng = random.Random(2026)
    for _ in range(20000):
        x = rng.getrandbits(rng.randint(1, 1500)) or 1
        p = rng.choice(ILOG_PRIMES)
        assert _ilog(x, p) == binary_search_ilog(x, p), (x, p)


def test_ilog_matches_the_binary_search_next_to_prime_powers():
    # x = 0 comes in at k = 0, below the docstring's x >= 1; the two agree there too
    for p in ILOG_PRIMES:
        for k in range(300):
            for x in (p**k - 1, p**k, p**k + 1):
                assert _ilog(x, p) == binary_search_ilog(x, p), (x, p)


def walk_thresholds(m: int, rng: random.Random) -> list[int | None]:
    """None, 0, 1, one random value, m - 2 and m - 1, the negative ones left out."""
    return [None] + [t for t in (0, 1, rng.randint(0, m), m - 2, m - 1) if t >= 0]


def assert_walks_agree(f: Factorization, thresholds) -> None:
    for t in thresholds:
        want = outcome(merged_min_gap_step, f, t)
        assert outcome(stepping_min_gap_step, f, t) == want, (f.pairs, t)
        assert outcome(_walk, _chain_split(f.pairs), t) == want, (f.pairs, t)


@settings(max_examples=150, deadline=None)
@given(
    st.dictionaries(st.sampled_from(WALK_PRIMES), st.integers(1, 5), max_size=5)
    .filter(lambda mapping: divisor_count(Factorization.from_mapping(mapping)) <= 800),
    st.randoms(use_true_random=False),
)
def test_walk_matches_the_merge(mapping, rng):
    f = Factorization.from_mapping(mapping)
    assert_walks_agree(f, walk_thresholds(f.value(), rng))


@settings(max_examples=100, deadline=None)
@given(
    st.dictionaries(st.sampled_from((3, 5, 7, 11, 13)), st.integers(1, 2), max_size=2),
    st.integers(1, 200),
    st.randoms(use_true_random=False),
)
def test_walk_matches_the_merge_on_a_long_chain(mapping, e_big, rng):
    # 2**e_big outweighs the rest, so each chain is long and its boundary
    # lands far from both ends
    f = Factorization.from_mapping({2: e_big, **mapping})
    assert_walks_agree(f, walk_thresholds(f.value(), rng))


def test_walk_matches_the_merge_pinned():
    rng = random.Random(12)
    shapes = [
        (),  # 1, the single chain (1, 1)
        ((2, 2),),
        ((7, 2),),
        ((2, 2), (3, 2)),
        ((2, 40),),
        ((2, 2), (3, 2), (5, 2), (7, 2)),
        ((2, 30), (3, 30)),
        ((2, 7), (3, 7), (5, 7)),
        ((2, 60), (3, 2), (5, 1)),
        ((2, 1), (3, 50)),
        ((11, 25),),
    ]
    for pairs in shapes:
        f = Factorization(pairs)
        assert_walks_agree(f, walk_thresholds(f.value(), rng))


@pytest.mark.parametrize("e_big, t_exp", [(100001, 75000), (20001, 15000)])
def test_walk_jumps_to_the_qualifying_step(e_big, t_exp):
    # 3 * 2^E with t = 2^T, far below the square root. On the chain of powers
    # of two, 2^a qualifies while 3 * 2^(E - a) - 2^a > 2^T, first at
    # E - a = T - 1; 3 * 2^a, whose gap is under 2^(E - a), needs E - a > T
    # and is smaller. Stepping down one exponent at a time took 6.9 s at
    # the first scale.
    f = Factorization(((2, e_big), (3, 1)))
    start = time.perf_counter()
    pair = delta_above(f, 2**t_exp)
    assert time.perf_counter() - start < 0.1
    assert pair == DivisorPair(2 ** (e_big - t_exp + 1), 3 * 2 ** (t_exp - 1))
    if e_big < 10**5:
        assert _walk(_chain_split(f.pairs), 2**t_exp) == stepping_min_gap_step(f, 2**t_exp)


def test_walk_takes_the_threshold_log_once(monkeypatch):
    # 36 chains, each testing one or more candidates; the log of the
    # threshold is one per walk. At these thresholds the chain (42525, 1)
    # does not jump; its jump would take the log of threshold // 1 as well
    logs = []

    def counted(x, p):
        logs.append(x)
        return _ilog(x, p)

    monkeypatch.setattr(divisors, "_ilog", counted)
    f = Factorization(((2, 40), (3, 5), (5, 2), (7, 1)))
    for threshold in (12345, 30000, 10**5 + 3):
        logs.clear()
        got = _walk(_chain_split(f.pairs), threshold)
        assert logs.count(threshold) == 1
        assert got == stepping_min_gap_step(f, threshold)


def test_walk_matches_the_merge_on_the_sequence_products():
    # the partial products 3 * 2^(2 + b(1) + ... + b(n-1)) up to n = 400, at
    # the sequence's threshold 1 and at the square root
    b = b_seq(400).terms
    for n in range(1, 401):
        f = Factorization.from_mapping({2: 2 + sum(b[: n - 1]), 3: 1})
        assert_walks_agree(f, (None, 1))


# --- the minimal gap as a factorization ---


@settings(max_examples=300, deadline=None)
@given(
    st.dictionaries(st.sampled_from([2, 3, 5, 7, 11, 13]), st.integers(1, 40), max_size=3),
    st.integers(0, 10**4),
)
def test_gap_factorization_matches_the_materialized_difference(mapping, t):
    f = Factorization.from_mapping(mapping)
    bound = 10**9
    try:
        want = delta_above(f, t).difference
    except NoQualifyingPair:
        with pytest.raises(NoQualifyingPair):
            gap_factorization(f, t, oracle_bound=bound)
        return
    try:
        got = gap_factorization(f, t, oracle_bound=bound)
    except OracleBoundExceeded:
        # a refusal is honest only when the gap's part coprime to f's
        # primes really lies above the trial-division bound
        rest = want
        for p in mapping:
            while rest % p == 0:
                rest //= p
        assert rest > bound
    else:
        assert got.value() == want


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=2, max_value=10**6), st.integers(0, 1000))
def test_gap_factorization_matches_trial_division(m, t):
    try:
        want = delta_above(m, t).difference
    except NoQualifyingPair:
        with pytest.raises(NoQualifyingPair):
            gap_factorization(factorize(m), t)
    else:
        assert gap_factorization(factorize(m), t) == factorize(want)


@settings(max_examples=200, deadline=None)
@given(
    st.dictionaries(st.sampled_from((2, 3, 5, 7, 11, 13, 97)), st.integers(1, 12), max_size=5)
    .filter(lambda mapping: divisor_count(Factorization.from_mapping(mapping)) <= 1500),
    st.sampled_from((10**9, 10**4)),
    st.randoms(use_true_random=False),
)
def test_gap_factorization_matches_the_hinted_factorization(mapping, bound, rng):
    # 10^4 makes some cofactors refuse, so the errors are compared too
    f = Factorization.from_mapping(mapping)
    m = f.value()
    for t in (t for t in (0, 1, rng.randint(0, m), m - 2) if t >= 0):
        assert outcome(gap_factorization, f, t, oracle_bound=bound) == outcome(
            hinted_gap_factorization, f, t, oracle_bound=bound), (mapping, t)


def test_gap_factorization_on_the_sequence_products():
    # the scale the sequence walk runs at: products up to 3 * 2^7972439
    # each product 3 * 2^(2 + b(1) + ... + b(n-1)) is built from the
    # recurrence, independently of the walk under test
    b = b_seq(40).terms
    for n in range(3, 41):
        f = Factorization.from_mapping({2: 2 + sum(b[: n - 1]), 3: 1})
        assert gap_factorization(f, 1).value() == delta_above(f, 1).difference


def test_gap_factorization_edge_inputs():
    with pytest.raises(ValueError):
        gap_factorization(Factorization(((2, 4),)), -1)
    with pytest.raises(NoQualifyingPair):
        gap_factorization(Factorization(()), 0)


# --- the 3*2^k laws ---


def test_middle_pair_known_table():
    # pinned from full enumeration for k = 1..8
    table = {
        1: (2, 3), 2: (3, 4), 3: (4, 6), 4: (6, 8),
        5: (8, 12), 6: (12, 16), 7: (16, 24), 8: (24, 32),
    }
    for k, (s, l) in table.items():
        assert delta_pair(Factorization(((2, k), (3, 1)))) == DivisorPair(s, l)


def test_middle_pair_matches_enumeration():
    for k in range(1, 26):
        m = 3 * 2**k
        pair = delta_pair(Factorization(((2, k), (3, 1))))
        assert pair == delta_pair(m)
        assert pair.small * pair.large == m


def test_middle_pair_difference_exponent():
    for k in range(1, 1001):
        pair = delta_pair(Factorization(((2, k), (3, 1))))
        assert pair.difference == 2 ** ((k + 1) // 2 - 1)


def test_divisor_count_law_report():
    rep = check_divisor_count_law(1000)
    assert rep.all_passed
    assert len(rep.records) == 1000
    assert rep.records[0].index == 1
    assert rep.records[29].expected == 62


@pytest.mark.parametrize("max_k", [1, 7, 30, 31])
def test_divisor_count_law_enumerates_once_and_compares_lists(monkeypatch, max_k):
    # trial division runs once, on 3 * 2**min(max_k, BRUTE_UP_TO); the list
    # each k derives from it must be divisor_list(3 << k), divisor by divisor
    real = divisors.divisor_list
    truth = {k: real(3 << k) for k in range(1, min(max_k, BRUTE_UP_TO) + 1)}
    enumerated, compared = [], []
    monkeypatch.setattr(divisors, "divisor_list", lambda m: enumerated.append(m) or real(m))

    def factored(f, **kwargs):
        k = dict(f.pairs)[2]
        compared.append(k)
        return truth[k]

    monkeypatch.setattr(divisors, "divisor_list_factored", factored)
    rep = check_divisor_count_law(max_k)
    assert enumerated == [3 << min(max_k, BRUTE_UP_TO)]
    assert compared == list(truth)
    assert rep.all_passed and len(rep.records) == max_k
    # a list of the right length with one wrong divisor fails its k alone
    k = min(max_k, 5)
    truth[k] = truth[k][:-1] + [truth[k][-1] + 1]
    assert check_divisor_count_law(max_k).failures == (CheckRecord(k, False, 2 * k + 2, 2 * k + 2),)


def test_middle_pair_law_report_carries_the_exponent_note():
    rep = check_middle_pair_law(100)
    assert rep.all_passed
    assert rep.failures == ()
    assert any("ceil(k/2) - 1" in note for note in rep.notes)
    # records hold exponents of two, as verify_theorem's do
    assert rep.records[3] == CheckRecord(4, True, 1, 1)
    assert rep.records[99] == CheckRecord(100, True, 49, 49)


def skew_at(monkeypatch, name, at, replacement):
    """Rebind divisors.name so that it answers replacement for the argument at."""
    real = getattr(divisors, name)
    monkeypatch.setattr(divisors, name,
                        lambda m, *args: replacement if m == at else real(m, *args))


@pytest.mark.parametrize("gap, actual", [
    ({2: 20}, 20),  # off by one exponent
    ({2: 19, 3: 1}, None),  # not a power of two
])
def test_middle_pair_law_fails_a_skewed_walk_past_the_brute_force_range(
        monkeypatch, gap, actual):
    # k = 40 lies past BRUTE_UP_TO, so only the walk answers there; its step
    # on 3 * 2**40 splits the product as p = 2, E = 40
    real = divisors._gap_exponents
    monkeypatch.setattr(divisors, "_gap_exponents",
                        lambda step, *args: gap if step[:2] == (2, 40) else real(step, *args))
    rep = check_middle_pair_law(50)
    assert rep.failures == (CheckRecord(40, False, 19, actual),)


def test_middle_pair_law_fails_a_skewed_oracle_in_the_brute_force_range(monkeypatch):
    # the walk is right at k = 10, but trial division disagrees with it
    skew_at(monkeypatch, "delta", 3 << 10, 2**5)
    rep = check_middle_pair_law(50)
    assert rep.failures == (CheckRecord(10, False, 4, 4),)


def test_middle_pair_law_matches_the_fresh_split_per_k():
    assert check_middle_pair_law(10**4) == fresh_split_middle_pair_law(10**4)


# products grown one factor at a time: the factor raises the split's p, a
# prime of the coprime part (which may overtake p), or a new prime
GROWTH_MOVES = st.lists(
    st.tuples(st.sampled_from(("p", "rest", "new")), st.integers(1, 3)),
    min_size=1, max_size=6)


def grow_and_compare(moves, threshold: int) -> None:
    """Carry a split through _grow; hold it to a fresh split, and its walk to the stepping walk."""
    product = {2: 3, 3: 1}
    split = _chain_split(((2, 3), (3, 1)))
    new_primes = [7, 5]
    for kind, e in moves:
        p = split[0]
        if kind == "new" and new_primes:
            q = new_primes.pop()
        elif kind == "rest":
            q = min(r for r in product if r != p)
        else:
            q = p
        split = _grow(product, split, {q: e})
        f = Factorization._proven(product)
        assert split == _chain_split(f.pairs), (moves, product)
        assert outcome(_walk, split, threshold) == outcome(stepping_min_gap_step, f, threshold)


@settings(max_examples=200, deadline=None)
@given(GROWTH_MOVES, st.integers(0, 60))
def test_a_carried_split_walks_as_a_fresh_one(moves, threshold):
    grow_and_compare(moves, threshold)


def test_a_carried_split_walks_as_a_fresh_one_pinned():
    # p changes from 2 to 3 (a tie goes to the later prime of the sorted
    # pairs), the coprime part gains 5, and p's own growth keeps the chains
    grow_and_compare([("p", 1), ("rest", 3), ("p", 2)], 1)
    grow_and_compare([("rest", 2), ("rest", 1), ("new", 3), ("p", 3), ("new", 1)], 0)
    grow_and_compare([("new", 3), ("new", 3), ("rest", 3), ("rest", 3)], 17)
    # _grow keeps the very chain list when only p grows
    product = {2: 3, 3: 1}
    split = _chain_split(((2, 3), (3, 1)))
    assert _grow(product, split, {2: 5})[2] is split[2]
    assert product == {2: 8, 3: 1}


def test_middle_pair_law_stays_in_exponent_space():
    # a check that builds 3 * 2**k for every k peaks at 8.1 MiB
    tracemalloc.start()
    try:
        rep = check_middle_pair_law(10000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.all_passed
    assert peak < 4 * 2**20


def test_law_reports_reject_bad_ranges():
    with pytest.raises(ValueError):
        check_divisor_count_law(0)
    with pytest.raises(ValueError):
        check_middle_pair_law(-3)


@pytest.mark.parametrize("law", [check_divisor_count_law, check_middle_pair_law])
def test_law_reports_refuse_a_range_above_the_limit_before_any_record(law):
    assert MAX_K_LIMIT == 10**5
    tracemalloc.start()
    try:
        for max_k in (MAX_K_LIMIT + 1, 10**8, 10**400):
            with pytest.raises(ResourceLimit, match="--max-k") as info:
                law(max_k)
            assert len(str(info.value)) < 200
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**10


def test_default_bounds_are_sane():
    assert ORACLE_BOUND >= 10**14
    assert DIVISOR_CAP >= 10**6
