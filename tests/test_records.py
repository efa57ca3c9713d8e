"""The library's result records: immutable named tuples with constructor checks."""

from fractions import Fraction

import pytest

from divgap import (
    CheckRecord,
    DigitCertificate,
    DivisorPair,
    Factorization,
    RationalInterval,
    RelationReport,
    SurvivorResult,
    VerificationReport,
)

RECORDS = {
    "Factorization": lambda: Factorization(((2, 4), (3, 1))),
    "DivisorPair": lambda: DivisorPair(6, 8),
    "RationalInterval": lambda: RationalInterval(Fraction(1, 3), 1),
    "DigitCertificate": lambda: DigitCertificate("0.36", 2),
    "CheckRecord": lambda: CheckRecord(4, False, 2, 4),
    "VerificationReport": lambda: VerificationReport(
        "law", (CheckRecord(1, True), CheckRecord(2, False, 1, 2)), ("a note",)
    ),
    "RelationReport": lambda: RelationReport(
        RationalInterval(0, 1), RationalInterval(Fraction(1, 2), 2), True, 0
    ),
    "SurvivorResult": lambda: SurvivorResult(41, 3, 31, "recurrence"),
}


@pytest.mark.parametrize("make", RECORDS.values(), ids=list(RECORDS))
def test_records_are_immutable_values(make):
    record, again = make(), make()
    assert record == again and hash(record) == hash(again)
    assert record == tuple(getattr(record, name) for name in record._fields)
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)


@pytest.mark.parametrize("make, message", [
    (lambda: DivisorPair(3, 2), "need 1 <= small <= large, got (3, 2)"),
    (lambda: SurvivorResult(5, 2, 6, "simulation"), "survivor 6 outside 1..5"),
    (lambda: RationalInterval(2, 1), "empty interval: lo=2 > hi=1"),
    (lambda: Factorization(((4, 1),)), "4 is not prime"),
    (lambda: Factorization(((3, 1), (2, 1))), "primes must be strictly increasing, got 2 after 3"),
    (lambda: Factorization(((2, 0),)), "exponent for prime 2 must be positive, got 0"),
])
def test_record_constructors_check_their_fields(make, message):
    with pytest.raises(ValueError) as caught:
        make()
    assert str(caught.value) == message


@pytest.mark.parametrize("make, message", [
    (lambda: DivisorPair(6, 8)._replace(small=9), "need 1 <= small <= large, got (9, 8)"),
    (lambda: SurvivorResult(5, 2, 3, "x")._replace(survivor=9), "survivor 9 outside 1..5"),
    (lambda: RationalInterval(1, 2)._replace(lo=3), "empty interval: lo=3 > hi=2"),
    (lambda: Factorization._make([((4, 1),)]), "4 is not prime"),
], ids=["DivisorPair", "SurvivorResult", "RationalInterval", "Factorization"])
def test_make_and_replace_check_like_the_constructor(make, message):
    with pytest.raises(ValueError) as caught:
        make()
    assert str(caught.value) == message


def test_interval_endpoints_are_fractions():
    iv = RationalInterval(1, 2)
    assert type(iv.lo) is Fraction and type(iv.hi) is Fraction
    assert type(iv._replace(lo=0).lo) is Fraction


def test_proven_factorization_equals_the_checked_one():
    assert Factorization._proven({3: 1, 2: 5}) == Factorization.from_mapping({2: 5, 3: 1})
