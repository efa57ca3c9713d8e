"""Divisor enumeration and complementary-divisor gap computations.

Every gap operation has two independent routes. The oracle route is plain
trial division on machine integers and is deliberately brute force; it is
the ground truth for everything else. The factored route works from a prime
factorization and never materializes the full divisor list, so it scales to
integers with millions of bits. Agreement between the two routes is part of
the test surface, not an assumption.
"""

from __future__ import annotations

from collections import namedtuple
from math import isqrt, log

from .errors import (
    DIVISOR_CAP,
    MAX_K_LIMIT,
    ORACLE_BOUND,
    NoQualifyingPair,
    OracleBoundExceeded,
    ResourceLimit,
    brief,
)
from .report import CheckedRecord, CheckRecord, VerificationReport

# Both 3*2^k laws are also recomputed by trial division up to this k: the
# divisor count by enumerating every divisor, the minimal gap by the oracle.
BRUTE_UP_TO = 30


def _least_wheel_factor(n: int, start: int) -> int:
    """The least prime factor of n, tried among 6j - 1 and 6j + 1 from start on.

    start is of the form 6j - 1 and n has no prime factor below it, 2 and 3
    included, so every prime left to try is one of those; 0 means n is 1 or
    prime. A 6j + 1 just past isqrt(n) cannot divide such an n.
    """
    for d in range(start, isqrt(n) + 1, 6):
        if not n % d:
            return d
        if not n % (d + 2):
            return d + 2
    return 0


def _is_prime(p: int) -> bool:
    # Factorization checks the primes it is built from, mostly 2 and 3, so
    # those answer without building a range
    if p < 9:
        return p in (2, 3, 5, 7)
    return p % 2 != 0 and p % 3 != 0 and not _least_wheel_factor(p, 5)


def _divisor_count(pairs) -> int:
    """Number of divisors of the product of p**e over pairs: the product of e + 1."""
    count = 1
    for _, e in pairs:
        count *= e + 1
    return count


class Factorization(CheckedRecord, namedtuple("Factorization", "pairs")):
    """Prime factorization as an ordered tuple of (prime, exponent) pairs.

    The empty tuple represents 1. Primes must be strictly increasing with
    positive exponents and are verified prime by trial division, so keep
    individual primes at desk scale; exponents may be arbitrarily large.
    multiply and factorize build their results from primes already proven
    and skip that check.
    """

    __slots__ = ()

    def __new__(cls, pairs: tuple[tuple[int, int], ...]):
        last = 1
        for p, e in pairs:
            if p <= last:
                raise ValueError(
                    f"primes must be strictly increasing, got {brief(p)} after {brief(last)}")
            if e < 1:
                raise ValueError(f"exponent for prime {brief(p)} must be positive, got {brief(e)}")
            if not _is_prime(p):
                raise ValueError(f"{brief(p)} is not prime")
            last = p
        return tuple.__new__(cls, (pairs,))

    @classmethod
    def from_mapping(cls, mapping: dict[int, int]) -> Factorization:
        return cls(tuple(sorted(mapping.items())))

    @classmethod
    def _proven(cls, mapping: dict[int, int]) -> Factorization:
        """from_mapping for primes already proven, without proving them again."""
        return tuple.__new__(cls, (tuple(sorted(mapping.items())),))

    def value(self) -> int:
        m = 1
        for p, e in self.pairs:
            m *= _pow(p, e)
        return m

    def multiply(self, other: Factorization) -> Factorization:
        merged = dict(self.pairs)
        for p, e in other.pairs:
            merged[p] = merged.get(p, 0) + e
        return Factorization._proven(merged)


class DivisorPair(CheckedRecord, namedtuple("DivisorPair", "small large")):
    """A complementary divisor pair d, m/d with small <= large."""

    __slots__ = ()

    def __new__(cls, small: int, large: int):
        if not 1 <= small <= large:
            raise ValueError(f"need 1 <= small <= large, got ({brief(small)}, {brief(large)})")
        return tuple.__new__(cls, (small, large))

    @property
    def difference(self) -> int:
        return self.large - self.small


def _check_bound(n: int, bound: int, named: str, instead: str) -> None:
    """Raise OracleBoundExceeded, naming n as named.format(brief(n)), when n > bound."""
    if n > bound:
        raise OracleBoundExceeded(
            f"{named.format(brief(n))} exceeds the trial-division bound {brief(bound)}; "
            f"raise it with --oracle-bound or {instead}"
        )


def factorize(m: int, *, oracle_bound: int = ORACLE_BOUND,
              hints: tuple[int, ...] = ()) -> Factorization:
    """Factor m by trial division; subject to the same bound as divisor_list.

    Hint primes are divided out exactly before the bound is checked, so an
    integer that is smooth over the hints factors in time linear in its bit
    length no matter how large it is. A cofactor above the bound still
    raises; nothing is ever assumed about it.
    """
    if m < 1:
        raise ValueError(f"m must be positive, got {brief(m)}")
    found = {}
    rest = m
    for p in hints:
        # 1 and -1 would divide out forever, 0 not at all
        if p < 2:
            raise ValueError(f"{brief(p)} is not prime")
        if rest % p == 0:
            rest, found[p] = _divide_out(rest, p)
    # a hint is the caller's claim, so each one that divided m is proven; the
    # primes found below are proven by the scan that finds them
    Factorization.from_mapping(found)
    _check_bound(rest, oracle_bound, "unfactored part {} of m", "supply a Factorization")
    for p in (2, 3):
        if rest % p == 0:
            rest, e = _divide_out(rest, p)
            found[p] = found.get(p, 0) + e
    # then only 6j - 1 and 6j + 1 up to the square root of what is left, the
    # bound shrinking each time a prime is divided out
    p = _least_wheel_factor(rest, 5)
    while p:
        rest, e = _divide_out(rest, p)
        found[p] = found.get(p, 0) + e
        p = _least_wheel_factor(rest, p if p % 6 == 5 else p + 4)
    if rest > 1:
        found[rest] = found.get(rest, 0) + 1
    return Factorization._proven(found)


def _divide_out(rest: int, p: int) -> tuple[int, int]:
    """rest with every factor p removed, and how many were removed."""
    if p == 2:
        e = (rest & -rest).bit_length() - 1
        return rest >> e, e
    e = 0
    while rest % p == 0:
        rest //= p
        e += 1
    return rest, e


def divisor_list(m: int) -> list[int]:
    """All divisors of m in increasing order, by trial division up to isqrt(m)."""
    if m < 1:
        raise ValueError(f"m must be positive, got {brief(m)}")
    _check_bound(m, ORACLE_BOUND, "m={}", "use divisor_list_factored")
    small, large = [], []
    for d in range(1, isqrt(m) + 1):
        if m % d == 0:
            small.append(d)
            if d != m // d:
                large.append(m // d)
    return small + large[::-1]


def divisor_list_factored(f: Factorization, *, divisor_cap: int = DIVISOR_CAP) -> list[int]:
    """All divisors generated from a factorization, in increasing order.

    Works far beyond the trial-division bound, but materializes the whole
    list, so the divisor count is capped up front.
    """
    count = _divisor_count(f.pairs)
    if count > divisor_cap:
        raise ResourceLimit(
            f"divisor count {brief(count)} exceeds the cap {brief(divisor_cap)}; "
            "raise it with --divisor-cap or use the gap operations, which do not materialize"
        )
    divs = _divisors_unsorted(f.pairs)
    divs.sort()
    return divs


def _divisors_unsorted(pairs) -> list[int]:
    """Every divisor of the product of p**e over pairs; the last is that product."""
    divs = [1]
    for p, e in pairs:
        powers = []
        v = 1
        for _ in range(e + 1):
            powers.append(v)
            v *= p
        divs = [d * w for d in divs for w in powers]
    return divs


def divisor_count(f: Factorization) -> int:
    """Number of divisors, straight from the exponents."""
    return _divisor_count(f.pairs)


# --- gap computations, oracle route ---


def _oracle_min_pair(m: int, threshold: int | None, oracle_bound: int) -> DivisorPair:
    _check_bound(m, oracle_bound, "m={}", "pass a Factorization")
    # For d | m the gap m/d - d exceeds t exactly when d * (d + t) < m, that
    # is (2d + t)**2 <= t*t + 4m - 1, and it strictly decreases as d grows;
    # so scanning down from the largest such d, the first divisor has the
    # minimal qualifying gap, and no scan runs when that d is 0. A prime m
    # still costs that many probes; `not m % d` is the cheapest divisibility
    # test per probe in CPython bytecode.
    if threshold is None:
        start = isqrt(m)
    else:
        start = (isqrt(threshold * threshold + 4 * m - 1) - threshold) // 2
    for d in range(start, 0, -1):
        if not m % d:
            return DivisorPair(d, m // d)
    raise NoQualifyingPair(
        f"no divisor pair of {brief(m)} has difference above {brief(threshold)}")


# --- gap computations, factored route ---
#
# Big-integer division is quadratic in CPython, so this route never divides
# a large value. A divisor is carried as (s, a) meaning s * p**a, where p is
# the prime with the largest exponent and s runs over divisors of the
# coprime rest; the complementary divisor is the product (T // s) * p**(E-a)
# with T the full coprime part, and every boundary decision reduces to
# small-integer and exponent arithmetic. The gap itself is p**min(a, E-a)
# times a small inner factor, so gap_factorization returns it factored
# without building either divisor; only the public DivisorPair results
# materialize them.


def _pow(p: int, a: int) -> int:
    return 1 << a if p == 2 else p**a


def _ilog(x: int, p: int) -> int:
    """Largest a >= 0 with p**a <= x, for x >= 1.

    For odd p, the float quotient of logs lands within a step or two of the
    answer; one power is built there, and exact comparisons, each after one
    multiplication or division by p, move it onto the answer.
    """
    if p == 2:
        return x.bit_length() - 1
    if x < p:
        return 0
    a = int(log(x) / log(p))
    power = p**a
    while power > x:
        power //= p
        a -= 1
    while power * p <= x:
        power *= p
        a += 1
    return a


def _chain_split(pairs: tuple[tuple[int, int], ...]) -> tuple[int, int, list[tuple[int, int]]]:
    """Split a factorization into p**E times a coprime part T.

    Returns (p, E, chains) where p carries the largest exponent (the larger
    prime on a tie, as pairs come sorted by prime) and chains lists
    (s, T // s) over every divisor s of T; the empty factorization splits as
    2**0 with the single chain (1, 1). The chain count equals the divisor
    count of T, so it is capped at DIVISOR_CAP like any other
    materialization.
    """
    ordered = sorted(pairs, key=lambda pe: pe[1]) or [(2, 0)]
    p, e_big = ordered[-1]
    rest = ordered[:-1]
    count = _divisor_count(rest)
    if count > DIVISOR_CAP:
        raise ResourceLimit(
            f"the part coprime to {p} has {brief(count)} divisors, above the cap "
            f"{DIVISOR_CAP}; the walk builds one chain per divisor of that part"
        )
    small = _divisors_unsorted(rest)
    total = small[-1]
    return p, e_big, [(s, total // s) for s in small]


def _walk(split: tuple[int, int, list[tuple[int, int]]],
          threshold: int | None) -> tuple[int, int, int, int, int, int]:
    """The minimal pair of p**E * T with difference above threshold, kept in pieces.

    split is _chain_split's (p, E, chains). Returns (p, E, s, a, c, inner)
    for the pair s * p**a <= c * p**(E - a), whose difference is
    p**min(a, E - a) * inner. Only inner is built: it is c * p**(E - 2a) - s
    or c - s * p**(2a - E), and E - 2a stays near log_p T close to the
    square root, so inner stays small however large E is.
    """
    p, e_big, chains = split
    # for p = 2 a power is a shift and a log a bit length
    two = p == 2
    # The gap strictly grows as the small side shrinks, so the qualifying
    # divisors are exactly those up to one bound. Each chain steps down from
    # its square-root boundary to its largest qualifying divisor, and the
    # largest of those over all chains has the minimal gap.
    best = None
    # The gap inner * p**j exceeds the threshold outright when j > t_log,
    # and otherwise p**j <= threshold is small enough to build; a threshold
    # of 0 is exceeded by every gap
    t_log = _ilog(threshold, p) if threshold else -1
    for s, c in chains:
        # The boundary is the largest a in [0, E] with s * p**a at most its
        # complement c * p**(E - a), that is s * p**(2a - E) <= c. With k the
        # largest integer, possibly negative, with s * p**k <= c, it is the
        # largest a with 2a - E <= k. Below c, k = -j for the least j with
        # p**j > (s - 1) // c, the least with s <= c * p**j. A chain whose
        # boundary is negative has no divisor on the small side.
        if c >= s:
            k = (c // s).bit_length() - 1 if two else _ilog(c // s, p)
        else:
            k = -((s - 1) // c).bit_length() if two else -1 - _ilog((s - 1) // c, p)
        a = min(e_big, (e_big + k) >> 1)
        while a >= 0:
            k = e_big - 2 * a
            if k >= 0:
                j = a
                inner = ((c << k) if two else c * p**k) - s
            else:
                j = e_big - a
                inner = c - ((s << -k) if two else s * p**-k)
            # inner is 0 only at an exact square root, where no threshold is met
            if threshold is None or (inner and (
                    j > t_log or ((inner << j) if two else inner * p**j) > threshold)):
                # The largest candidate is the minimal pair's small side D,
                # and every chain's lies in [D / (p * T), D], so the power of
                # p between two of them is at most p * T**2
                if best is None or (s * p**(a - best[1]) > best[0] if a >= best[1]
                                    else s > best[0] * p**(best[1] - a)):
                    best = s, a, c, inner
                break
            # Below the boundary the gap lies in [1 - 1/p**2, 1) times
            # c * p**(E - a), so no a qualifies until c * p**(E - a) exceeds
            # the threshold, and the first such a or the next one does: jump
            # there rather than step down one exponent at a time.
            q = threshold // c
            a = min(a - 1, e_big - (_ilog(q, p) + 1 if q else 0))
    if best is None:
        raise NoQualifyingPair(
            f"no divisor pair of the factored input has difference above {brief(threshold)}"
        )
    return (p, e_big, *best)


def _gap_exponents(step: tuple[int, int, int, int, int, int], primes,
                   oracle_bound: int) -> dict[int, int]:
    """The prime -> exponent mapping of a walk step's gap p**min(a, E - a) * inner.

    primes are the walked product's own primes, already proven, so they are
    divided out of inner directly; only a cofactor coprime to all of them is
    left to factorize, which raises OracleBoundExceeded above oracle_bound.
    """
    p, e_big, _, a, _, inner = step
    shared = min(a, e_big - a)
    found = {p: shared} if shared else {}
    if inner > 1:
        for q in primes:
            if not inner % q:
                inner, e = _divide_out(inner, q)
                found[q] = found.get(q, 0) + e
        if inner > 1:
            found.update(factorize(inner, oracle_bound=oracle_bound).pairs)
    return found


def _grow(product: dict[int, int], split: tuple[int, int, list[tuple[int, int]]],
          gap: dict[int, int]) -> tuple[int, int, list[tuple[int, int]]]:
    """Multiply product by gap in place and return the split of the result.

    When gap raises only the exponent of the split's p, p keeps the largest
    exponent and the part coprime to it is unchanged, so the chains, which
    are exactly that part's divisor pairs, carry over with the new E;
    otherwise the product is split afresh.
    """
    for q, e in gap.items():
        product[q] = product.get(q, 0) + e
    p, _, chains = split
    # gap is 1 or a power of p alone
    if len(gap) == (p in gap):
        return p, product[p], chains
    return _chain_split(tuple(sorted(product.items())))


# --- public gap interface ---


def _min_pair(m: int | Factorization, threshold: int | None, oracle_bound: int) -> DivisorPair:
    """The minimal pair of m with difference above threshold (None: any pair).

    An int goes to the trial-division oracle, a Factorization to the walk.
    """
    if isinstance(m, Factorization):
        p, e_big, s, a, c, _ = _walk(_chain_split(m.pairs), threshold)
        return DivisorPair(s * _pow(p, a), c * _pow(p, e_big - a))
    if threshold is None and m < 1:
        raise ValueError(f"m must be positive, got {brief(m)}")
    if threshold is not None and m < 2:
        raise ValueError(f"m must be at least 2, got {brief(m)}")
    return _oracle_min_pair(m, threshold, oracle_bound)


def delta_pair(m: int | Factorization, *, oracle_bound: int = ORACLE_BOUND) -> DivisorPair:
    """The divisor pair of m with the smallest difference."""
    return _min_pair(m, None, oracle_bound)


def delta(m: int | Factorization) -> int:
    """Minimal |d - m/d| over divisors d; zero exactly for perfect squares."""
    return delta_pair(m).difference


def delta_above(
    m: int | Factorization, threshold: int, *, oracle_bound: int = ORACLE_BOUND
) -> DivisorPair:
    """The divisor pair whose difference is minimal among those above threshold.

    Raises NoQualifyingPair when every pair's difference is at or below the
    threshold. Ties cannot occur: the gap is strictly monotone across the
    divisors on the small side of the square root.
    """
    if threshold < 0:
        raise ValueError(f"threshold must be nonnegative, got {brief(threshold)}")
    return _min_pair(m, threshold, oracle_bound)


def gap_factorization(
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
        raise ValueError(f"threshold must be nonnegative, got {brief(threshold)}")
    step = _walk(_chain_split(f.pairs), threshold)
    return Factorization._proven(_gap_exponents(step, (q for q, _ in f.pairs), oracle_bound))


# --- verification suites for the 3*2^k laws ---


def _check_max_k(max_k: int) -> None:
    """Refuse a 3*2^k law's range before any record is built."""
    if max_k < 1:
        raise ValueError(f"max_k must be at least 1, got {brief(max_k)}")
    if max_k > MAX_K_LIMIT:
        raise ResourceLimit(
            f"max_k={brief(max_k)} is above the limit {MAX_K_LIMIT} "
            "(one record is kept per k); lower --max-k"
        )


def check_divisor_count_law(max_k: int) -> VerificationReport:
    """Check that 3 * 2**k has exactly 2k+2 divisors for k = 1..max_k.

    The exponent formula is checked for every k; full enumeration backs it
    up for k up to BRUTE_UP_TO, through both enumeration routes, which must
    give the same list. Trial division runs once, on 3 * 2**k at the largest
    such k: every smaller 3 * 2**k divides it, so its divisors are those of
    the one enumeration that divide it.
    """
    _check_max_k(max_k)
    enumerated = divisor_list(3 << min(max_k, BRUTE_UP_TO))
    records = []
    for k in range(1, max_k + 1):
        # the formula reads the exponents alone; only the enumerated k build
        # a Factorization, whose constructor proves 2 and 3 prime
        pairs = ((2, k), (3, 1))
        expected = 2 * k + 2
        got = _divisor_count(pairs)
        ok = got == expected
        if ok and k <= BRUTE_UP_TO:
            m = 3 << k
            brute = [d for d in enumerated if not m % d]
            ok = divisor_list_factored(Factorization(pairs)) == brute and len(brute) == expected
        records.append(CheckRecord(k, ok, expected, got))
    return VerificationReport("divisor-count law for 3*2^k", tuple(records))


def check_middle_pair_law(max_k: int) -> VerificationReport:
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
    # 3 * 2**k, grown by one factor of 2 per k: the split is made at k = 1,
    # where 3 carries the largest exponent, and again at k = 2, then kept
    product = {2: 1, 3: 1}
    split = _chain_split(((2, 1), (3, 1)))
    for k in range(1, max_k + 1):
        # 3 * 2**k is never a square, so its minimal gap is above 0
        exponents = _gap_exponents(_walk(split, 0), product, ORACLE_BOUND)
        actual = exponents.get(2, 0) if exponents.keys() <= {2} else None
        expected = (k + 1) // 2 - 1
        ok = actual == expected
        if ok and k <= BRUTE_UP_TO:
            ok = delta(3 << k) == 1 << expected
        records.append(CheckRecord(k, ok, expected, actual))
        split = _grow(product, split, {2: 1})
    notes = (
        "the gap exponent for 3*2^k is ceil(k/2) - 1, not the published ceil(k/2); "
        "enumeration gives gap 2 = 2^1 at k = 4 where the published form says 4",
    )
    return VerificationReport("middle-pair gap law for 3*2^k", tuple(records), notes)
