"""The library's result records: immutable named tuples with constructor checks,
and the messages the library's checks raise."""

import sys
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
    b_closed_form,
    c_enclosure,
    delta_pair,
    divisor_list_factored,
    factorize,
    ow_sequence,
    render_digits,
)
from divgap.errors import DivgapError

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


# 5,001 digits, past the 4,300 that CPython's default guard lets str() render
HUGE = 10**5000
SHOWN = f"<{HUGE.bit_length()}-bit integer>"


@pytest.mark.parametrize("make, message", [
    (lambda: Factorization(((-HUGE, 1),)),
     f"primes must be strictly increasing, got -{SHOWN} after 1"),
    (lambda: Factorization(((2, -HUGE),)), f"exponent for prime 2 must be positive, got -{SHOWN}"),
    (lambda: Factorization(((HUGE, 1),)), f"{SHOWN} is not prime"),
    (lambda: DivisorPair(HUGE, 1), f"need 1 <= small <= large, got ({SHOWN}, 1)"),
    (lambda: factorize(12, hints=(-HUGE,)), f"-{SHOWN} is not prime"),
    (lambda: divisor_list_factored(Factorization(((2, HUGE),))),
     f"divisor count {SHOWN} exceeds the cap 10000000; "
     "raise it with --divisor-cap or use the gap operations, which do not materialize"),
    (lambda: delta_pair(Factorization(((2, HUGE), (3, HUGE + 1)))),
     f"the part coprime to 3 has {SHOWN} divisors, above the cap 10000000; "
     "the walk builds one chain per divisor of that part"),
    (lambda: RationalInterval(Fraction(HUGE, 3), 1), f"empty interval: lo={SHOWN}/3 > hi=1"),
    (lambda: RationalInterval(0, 1).scale(Fraction(-1, HUGE)),
     f"scale factor must be positive, got -1/{SHOWN}"),
    (lambda: render_digits(RationalInterval(0, 1), -HUGE),
     f"max_places must be at least 1, got -{SHOWN}"),
    (lambda: SurvivorResult(5, 2, HUGE, "simulation"), f"survivor {SHOWN} outside 1..5"),
    (lambda: ow_sequence(-HUGE, 1, 1), f"q must be at least 2, got -{SHOWN}"),
    (lambda: ow_sequence(2, -HUGE, 1), f"seed must be at least 1, got -{SHOWN}"),
    (lambda: ow_sequence(2, 1, -HUGE), f"count must be at least 1, got -{SHOWN}"),
    (lambda: b_closed_form(-HUGE, c_enclosure(10)), f"n must be at least 1, got -{SHOWN}"),
    (lambda: b_closed_form(1, RationalInterval(0, HUGE)),
     f"enclosure of width {SHOWN} spans <{HUGE.bit_length() + 1}-bit integer> candidates "
     "at index 1; tighten it with more terms"),
], ids=["Factorization-order", "Factorization-exponent", "Factorization-prime", "DivisorPair",
        "factorize-hint", "divisor_list_factored", "walk-split", "RationalInterval",
        "RationalInterval.scale", "render_digits", "SurvivorResult", "ow_sequence-q",
        "ow_sequence-seed", "ow_sequence-count", "b_closed_form-n", "b_closed_form-width"])
def test_messages_name_an_integer_past_the_guard_by_its_size(make, message):
    # under the guard a fresh interpreter has, a message that put such an
    # integer through str() would raise the guard's own ValueError instead
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with pytest.raises((ValueError, DivgapError)) as caught:
            make()
    finally:
        sys.set_int_max_str_digits(old)
    assert str(caught.value) == message
