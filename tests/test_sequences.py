"""Tests for the gap sequence a, the ceiling recurrence b, and their product.

Pinned prefixes were frozen from a standalone brute-force enumeration before
this package existed; both computation paths must reproduce them, and the
factored path's power-of-two terms must match the ceiling recurrence. The
factored path's former loop, which extended the product with a fresh
Factorization.multiply per term, is kept verbatim below as the reference
for the one that extends a prime -> exponent mapping in place; so is the
loop after it, which built a Factorization and split it afresh per term
through gap_factorization, as the reference for the stream that carries
its split from term to term.
"""

import time
import tracemalloc
from itertools import islice
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cli_run import run_cli

from divgap import sequences
from divgap.divisors import ORACLE_BOUND, DivisorPair, Factorization, factorize, gap_factorization
from divgap.errors import InsufficientPrecision, OracleBoundExceeded
from divgap.intervals import RationalInterval
from divgap.sequences import (
    A_PATHS,
    SequenceReport,
    a_records,
    a_seq,
    b_closed_form,
    b_seq,
    verify_theorem,
)

A_PREFIX = [4, 3, 4, 2, 4, 8, 16, 64]
B_PREFIX = [1, 1, 1, 2, 3, 4, 6, 9, 14]


def multiplied_a_seq_factored(n_max: int, oracle_bound: int = ORACLE_BOUND) -> SequenceReport:
    # Each gap comes out of the walk already factored, so the product is
    # extended by exponent arithmetic, and a term's record keeps its power
    # of two as an exponent: no term is ever materialized.
    product = Factorization(((2, 2),))
    records = [(1, 2)]
    for _ in range(n_max):
        gap = gap_factorization(product, 1, oracle_bound=oracle_bound)
        records.append((prod(p**e for p, e in gap.pairs if p != 2), dict(gap.pairs).get(2, 0)))
        product = product.multiply(gap)
    return SequenceReport("a", 0, "factored", tuple(records))


def fresh_split_a_records(oracle_bound: int):
    """a_records' factored path as it was: a fresh split per term."""
    yield 1, 2  # a(0) = 4
    product = {2: 2}
    while True:
        gap = gap_factorization(Factorization._proven(product), 1, oracle_bound=oracle_bound)
        odd, two = 1, 0
        for p, e in gap.pairs:
            product[p] = product.get(p, 0) + e
            if p == 2:
                two = e
            else:
                odd *= p**e
        yield odd, two


def naive_b(count):
    """Re-derive b directly from its definition: b_n = ceil((sum of earlier b)/2)."""
    terms = [1]
    while len(terms) < count:
        s = sum(terms)
        terms.append((s + 1) // 2)
    return terms


# --- pinned prefixes ---


@pytest.mark.parametrize("path", A_PATHS)
def test_a_prefix_on_every_path(path):
    rep = a_seq(7, path)
    assert rep.terms == A_PREFIX
    assert rep.name == "a"
    assert rep.start_index == 0
    assert rep.path == path


def test_b_prefix():
    rep = b_seq(9)
    assert rep.terms == B_PREFIX
    assert rep.name == "b"
    assert rep.start_index == 1


def test_b_matches_its_definition():
    assert b_seq(60).terms == naive_b(60)


def test_report_indexing():
    # term n is record n - start_index, held as (odd, e) with term odd * 2**e
    rep = b_seq(9)
    assert rep.records[1 - rep.start_index] == (1, 0)
    assert rep.records[9 - rep.start_index] == (7, 1)
    assert rep.start_index + len(rep.records) - 1 == 9
    assert list(rep) == rep.terms == B_PREFIX
    with pytest.raises(IndexError):
        rep.records[10 - rep.start_index]


def test_a_seq_rejects_bad_arguments():
    with pytest.raises(ValueError):
        a_seq(-1, "oracle")
    with pytest.raises(ValueError):
        a_seq(5, "telepathy")
    with pytest.raises(ValueError):
        b_seq(0)


# --- path equivalence ---


def test_paths_agree_to_ten():
    oracle = a_seq(10, "oracle").terms
    factored = a_seq(10, "factored").terms
    assert oracle == factored
    assert factored[3:] == [1 << e for e in b_seq(10).terms[2:]]


def test_factored_path_matches_b_to_forty():
    factored = a_seq(40, "factored").terms
    b = b_seq(40).terms
    for n in range(41):
        assert factored[n] == (A_PREFIX[n] if n < 3 else 1 << b[n - 1])


def test_oracle_path_stops_at_its_bound():
    # the 11th partial product is 3 * 2^64, far past trial division
    with pytest.raises(OracleBoundExceeded):
        a_seq(11, "oracle")


def test_factored_path_reaches_sixty():
    # the walk stays in exponent space, so index 60 (gap of the product
    # 3 * 2^26510400995) is exact and every term from 3 on reads 2^b(n)
    rep = a_seq(60, "factored")
    b = b_seq(60).terms
    assert [e if odd == 1 else None for odd, e in rep.records[3:]] == b[2:]
    # what refuses now is the print budget, at term 40
    proc = run_cli("seq", "a", "--max", "51")
    assert proc.returncode == 3
    assert "term 40" in proc.stderr


def test_factored_path_reaches_two_hundred():
    # late terms are astronomically large; each stays an (odd, e) record
    # with odd part 1 and is checked against the ceiling recurrence without
    # materializing. Terms 0 and 2 are 4 = 2^2, term 1 is 3.
    rep = a_seq(200, "factored")
    b = b_seq(200).terms
    assert rep.records[:3] == ((1, 2), (3, 0), (1, 2))
    assert list(rep.records[3:]) == [(1, e) for e in b[2:]]
    odd, e = rep.records[3]
    assert odd << e == 2
    odd, e = rep.records[45]
    assert odd << e == 1 << b[44]


def test_in_place_product_matches_the_multiplied_product():
    want = multiplied_a_seq_factored(1600).records
    for n in range(401):
        assert a_seq(n).records == want[: n + 1]
    assert a_seq(1600).records == want


def test_carried_split_matches_the_fresh_split_per_term():
    want = list(islice(fresh_split_a_records(ORACLE_BOUND), 2001))
    assert list(islice(a_records("factored", ORACLE_BOUND), 2001)) == want


# --- growth and structure ---


def test_b_is_nondecreasing():
    terms = b_seq(200).terms
    assert all(x <= y for x, y in zip(terms, terms[1:]))


def test_a_is_nondecreasing_from_three():
    rep = a_seq(120, "factored")
    exps = [e if odd == 1 else None for odd, e in rep.records[3:]]
    assert all(x <= y for x, y in zip(exps, exps[1:]))


def test_theorem_links_a_to_b():
    b = b_seq(40).terms
    factored = a_seq(40, "factored").terms
    for n in range(3, 41):
        assert factored[n] == 1 << b[n - 1]


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=300))
def test_b_recurrence_rederivable_from_emitted_terms(n):
    terms = b_seq(n).terms
    s = sum(terms[: n - 1])
    assert terms[n - 1] == (s + 1) // 2


# --- partial products ---


def gap_product(n, path="factored"):
    """p_n, the product of gap terms 0..n-1, factored from a_seq's (odd, e)
    records; the powers of two are added as exponents, never materialized."""
    rep = a_seq(n - 1, path)
    f = Factorization(())
    for odd, _ in rep.records:
        f = f.multiply(factorize(odd))
    e = sum(e for _, e in rep.records)
    return f.multiply(Factorization(((2, e),))) if e else f


def test_partial_product_small_values():
    # p_n = product of the first n gap terms; frozen by direct multiplication
    expected = {1: 4, 2: 12, 3: 48, 4: 96, 5: 384, 6: 3072, 7: 49152}
    for n, want in expected.items():
        for path in A_PATHS:
            assert gap_product(n, path).value() == want


def test_partial_product_structure():
    assert gap_product(1).pairs == ((2, 2),)
    for n in range(2, 30):
        pairs = gap_product(n).pairs
        assert len(pairs) == 2
        assert pairs[0][0] == 2 and pairs[1] == (3, 1)


def test_partial_product_exponent_bookkeeping():
    b = b_seq(60).terms
    for n in range(3, 60):
        e = gap_product(n).pairs[0][1]
        assert e == 2 + sum(b[: n - 1])
    # consecutive exponents differ by exactly b_n
    e_prev = gap_product(10).pairs[0][1]
    e_next = gap_product(11).pairs[0][1]
    assert e_next - e_prev == b[9]


def test_partial_product_running_sum():
    # the gap exponents of terms 3..29 add up to the running b sum b(3..29)
    b = b_seq(30).terms
    rep = a_seq(29)
    assert all(odd == 1 for odd, _ in rep.records[3:])
    assert sum(e for _, e in rep.records[3:]) == sum(b[2:29])


def test_partial_product_paths_agree():
    for n in range(1, 12):
        assert gap_product(n, "factored") == gap_product(n, "oracle")


def test_partial_product_known_large_exponent():
    # frozen from an earlier run of the recurrence alone; the walk must
    # reach it from the divisor definition
    assert gap_product(40).pairs[0] == (2, 7972439)


# --- theorem verification ---


def test_verify_theorem_oracle_range():
    rep = verify_theorem(10, "oracle")
    assert rep.all_passed
    assert [r.index for r in rep.records] == list(range(3, 11))


def test_verify_theorem_factored_range():
    rep = verify_theorem(40, "factored")
    assert rep.all_passed
    assert len(rep.records) == 38


def test_a_gap_off_the_identity_is_recorded_not_assumed(monkeypatch):
    # skew the gap at index 5 (product 384 = 2^7 * 3, walked as p = 2,
    # E = 7) to 3 * 8 and check that the factored path materializes it, the
    # theorem check flags it, and the stream splits the product afresh
    # after a gap that brings in a prime other than p
    real = sequences._gap_exponents

    def skewed(step, primes, oracle_bound):
        gap = real(step, primes, oracle_bound)
        return {**gap, 3: gap.get(3, 0) + 1} if step[:2] == (2, 7) else gap

    monkeypatch.setattr(sequences, "_gap_exponents", skewed)
    assert a_seq(5, "factored").terms[5] == 24
    # the next product, 2^10 * 3^2, has the gap 56 = 7 * 8
    gap = dict(gap_factorization(Factorization(((2, 10), (3, 2))), 1).pairs)
    assert gap == {2: 3, 7: 1}
    assert a_seq(6, "factored").records[6] == (7, 3)
    rep = verify_theorem(5)
    assert rep.records[2].index == 5 and rep.records[2].actual is None
    assert not rep.all_passed


def test_factored_theorem_cross_checks_small_gaps_by_trial_division(monkeypatch):
    # the trial-division route sees products 48, 96, 384, 3072, 49152 up to
    # n = 7; a wrong answer from it fails the record although the walk's
    # exponent still matches b(n)
    real = sequences.delta_above
    calls = []

    def skewed(m, threshold, **kwargs):
        calls.append(m)
        return DivisorPair(1, m) if m == 384 else real(m, threshold, **kwargs)

    monkeypatch.setattr(sequences, "delta_above", skewed)
    rep = verify_theorem(12)
    assert calls == [48, 96, 384, 3072, 49152]
    bad = [r for r in rep.records if not r.passed]
    assert [(r.index, r.actual == r.expected) for r in bad] == [(5, True)]


def test_factored_theorem_cross_check_keeps_its_own_bound(monkeypatch):
    # the caller's oracle_bound of 1000 is below the product 3072 that the
    # cross-check divides at n = 6, and the walk never needs it; the
    # cross-check runs under CROSS_CHECK_BOUND, so it neither refuses the
    # run nor skips a product
    real = sequences.delta_above
    calls = []

    def counted(m, threshold, **kwargs):
        calls.append(m)
        return real(m, threshold, **kwargs)

    monkeypatch.setattr(sequences, "delta_above", counted)
    rep = verify_theorem(10, oracle_bound=1000)
    assert calls == [48, 96, 384, 3072, 49152]
    assert rep.all_passed and len(rep.records) == 8


@pytest.mark.parametrize("n", [5, 40])
def test_gap_stream_walks_only_the_terms_it_reads(monkeypatch, n):
    # a(1)..a(n) take one walk each; a pull past n_max would walk once more
    real = sequences._walk
    walked = []

    def counted(split, threshold):
        walked.append(split)
        return real(split, threshold)

    monkeypatch.setattr(sequences, "_walk", counted)
    assert len(a_seq(n).records) == n + 1
    assert len(walked) == n
    walked.clear()
    assert len(verify_theorem(n).records) == n - 2
    assert len(walked) == n


def test_verify_theorem_holds_each_gap_to_lemma_2(monkeypatch):
    # a(10) and b(10) skewed alike, to 2^(b(10) + 1): the recurrence agrees
    # with the walk, and only lemma 2 on the product 3 * 2^E before it,
    # whose minimal gap is 2^(ceil(E/2) - 1), tells the record is wrong
    real_records, real_b = sequences.a_records, sequences.b_terms
    b10 = b_seq(10).terms[9]

    def skewed_records(path, oracle_bound):
        for n, (odd, e) in enumerate(real_records(path, oracle_bound)):
            yield odd, e + (n == 10)

    def skewed_b(n_max):
        for n, b in enumerate(real_b(n_max), start=1):
            yield b + (n == 10)

    monkeypatch.setattr(sequences, "a_records", skewed_records)
    monkeypatch.setattr(sequences, "b_terms", skewed_b)
    rep = verify_theorem(12)
    first = rep.failures[0]
    assert first.index == 10 and first.actual == first.expected == b10 + 1
    assert all(r.passed for r in rep.records[:7])


def test_verify_theorem_stays_small_in_memory():
    # the products reach 3 * 2^689596369 at n = 50; none of it may be built
    tracemalloc.start()
    try:
        assert verify_theorem(50).all_passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_the_theorem_stream_folds_in_small_memory():
    # verify_theorem keeps every record, each holding b(n), so its peak grows
    # as n**2 bits: 33 MiB at n = 2 * 10**4. A fold that keeps only the
    # failures and a count holds the stream's running sums, whose largest,
    # the exponent of 2 in the product, has about 11,700 bits there
    tracemalloc.start()
    try:
        count, failures = 0, []
        for record in sequences._theorem_records(2 * 10**4, "factored", ORACLE_BOUND):
            count += 1
            if not record.passed:
                failures.append(record)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == 19998 and failures == []
    assert peak < 2**20


def test_verify_theorem_rejects_bad_range():
    with pytest.raises(ValueError):
        verify_theorem(2, "factored")
    with pytest.raises(ValueError):
        verify_theorem(10, "fast")  # not a path: a_records refuses it


# --- closed form for b ---


def test_closed_form_round_trip():
    from divgap.constants import c_enclosure

    enc = c_enclosure(200)
    b = b_seq(100).terms
    for n in range(1, 101):
        assert b_closed_form(n, enc) == b[n - 1]


def test_closed_form_needs_precision():
    wide = RationalInterval(1, 2)
    with pytest.raises(InsufficientPrecision):
        b_closed_form(50, wide)


def test_closed_form_rejects_bad_index():
    from divgap.constants import c_enclosure

    with pytest.raises(ValueError):
        b_closed_form(0, c_enclosure(50))
