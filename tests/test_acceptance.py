"""Acceptance gate: the nine release criteria, one test each.

Each criterion prints a single PASS/FAIL line (straight to the terminal,
bypassing capture) and enforces both its zero-tolerance checks and its
wall-clock budget. The whole gate targets well under two minutes.
"""

import json
import random
import sys
import time
from fractions import Fraction

from cli_run import run_cli

from divgap.constants import c_enclosure, relation_check
from divgap.divisors import (
    Factorization,
    delta,
    delta_pair,
    divisor_count,
    divisor_list,
    divisor_list_factored,
    factorize,
)
from divgap.intervals import render_digits
from divgap.josephus import survivor_recurrence, survivor_simulation, survivor_via_ow
from divgap.sequences import a_seq, b_closed_form, b_seq, verify_theorem

C_REFERENCE_26 = "0.36050455619661495910154466"


class Criterion:
    """Context manager that times a criterion and prints its verdict."""

    def __init__(self, number, label, budget_seconds):
        self.number = number
        self.label = label
        self.budget = budget_seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        verdict = "PASS" if exc_type is None and elapsed < self.budget else "FAIL"
        if exc_type is None and elapsed >= self.budget:
            note = f" (budget {self.budget}s exceeded: {elapsed:.1f}s)"
        else:
            note = ""
        print(
            f"ACCEPTANCE {self.number}: {verdict} [{elapsed:6.2f}s] {self.label}{note}",
            file=sys.__stdout__,
            flush=True,
        )
        if exc_type is None and elapsed >= self.budget:
            raise AssertionError(
                f"criterion {self.number} exceeded its {self.budget}s budget ({elapsed:.1f}s)"
            )
        return False


def test_criterion_1_first_terms():
    with Criterion(1, "first terms of both sequences via the CLI", 1.0):
        a = run_cli("seq", "a", "--max", "7", "--path", "oracle")
        assert a.returncode == 0
        assert a.stdout == "0 4\n1 3\n2 4\n3 2\n4 4\n5 8\n6 16\n7 64\n"
        b = run_cli("seq", "b", "--max", "9")
        assert b.returncode == 0
        assert b.stdout == "1 1\n2 1\n3 1\n4 2\n5 3\n6 4\n7 6\n8 9\n9 14\n"


def test_criterion_2_gap_terms_are_powers_of_two():
    with Criterion(2, "gap term = 2^b(n) on both exact paths (n<=10, n<=40)", 30.0):
        oracle = verify_theorem(10, "oracle")
        assert oracle.all_passed and len(oracle.records) == 8
        factored = verify_theorem(40, "factored")
        assert factored.all_passed and len(factored.records) == 38


def test_criterion_3_divisor_count_law():
    with Criterion(3, "divisor count of 3*2^k is 2k+2 (k<=30 enumerated, k<=1000)", 5.0):
        for k in range(1, 31):
            m = 3 * 2**k
            assert len(divisor_list(m)) == 2 * k + 2
            assert len(divisor_list_factored(factorize(m))) == 2 * k + 2
        for k in range(1, 1001):
            assert divisor_count(factorize(3 * 2**k, hints=(2, 3))) == 2 * k + 2


def test_criterion_4_middle_pair_law_adjudicated():
    with Criterion(4, "minimal gap of 3*2^k: brute force, middle pair, exponent", 5.0):
        for k in range(1, 31):
            brute = delta(3 * 2**k)
            pair = delta_pair(Factorization(((2, k), (3, 1))))
            assert brute == pair.difference == 2 ** ((k + 1) // 2 - 1)
        assert delta(48) == 2
        # the widely printed exponent ceil(k/2) is off by one; the package
        # must record that as a finding rather than fail or silently fix it
        proc = run_cli("reproduce", "--fast-only", "--json")
        rows = json.loads(proc.stdout)["result"]["rows"]
        finding = [r for r in rows if r["verdict"] == "FINDING"]
        assert len(finding) == 1
        assert "ceil(k/2)" in finding[0]["reference"]
        assert finding[0]["computed"] == "2^(ceil(k/2) - 1)"
        assert proc.returncode == 0  # a documented finding is not a failure


def test_criterion_5_growth_constant_digits():
    with Criterion(5, "200-term enclosure certifies all 26 reference digits", 10.0):
        enc = c_enclosure(200)
        assert enc.width <= Fraction(1, 10**27)
        assert enc.lo <= enc.hi
        cert = render_digits(enc, 200)
        assert cert.decimal_prefix.startswith(C_REFERENCE_26)
        assert cert.certified_places >= 26


def test_criterion_6_constant_relation():
    with Criterion(6, "growth constant equals 2/9 of the game constant", 10.0):
        rep = relation_check(200)
        assert rep.overlap
        assert rep.agreeing_places >= 24


def test_criterion_7_closed_form_round_trip():
    with Criterion(7, "closed form rebuilds b_n exactly for n <= 100", 5.0):
        enc = c_enclosure(200)
        terms = b_seq(100).terms
        for n in range(1, 101):
            assert b_closed_form(n, enc) == terms[n - 1]


def test_criterion_8_survivor_three_way_agreement():
    with Criterion(8, "three survivor algorithms agree (n <= 10^4, q in 2..5)", 30.0):
        top = 10**4
        for q in (2, 3, 4, 5):
            pos = 0
            for n in range(1, top + 1):
                if n > 1:
                    pos = (pos + q) % n
                want = pos + 1
                assert survivor_recurrence(n, q).survivor == want
                assert survivor_simulation(n, q).survivor == want
                assert survivor_via_ow(n, q).survivor == want
        for n in range(1, top + 1):
            L = n - (1 << (n.bit_length() - 1))
            assert survivor_recurrence(n, 2).survivor == 2 * L + 1


def test_criterion_9_property_suites():
    with Criterion(9, "interval laws, path equivalence, divisor-list sampling", 20.0):
        # interval nesting and width laws
        from divgap.constants import k3_enclosure

        prev_c, prev_k = None, None
        for n in (1, 4, 16, 64, 200):
            c_iv, k_iv = c_enclosure(n), k3_enclosure(n)
            assert c_iv.width <= Fraction(2, 3) ** n
            assert k_iv.width == 2 * Fraction(2, 3) ** n
            if prev_c is not None:
                assert prev_c.encloses(c_iv)
                assert prev_k.encloses(k_iv)
            prev_c, prev_k = c_iv, k_iv

        # path equivalence, and the factored path against the recurrence
        assert a_seq(10, "oracle").terms == a_seq(10, "factored").terms
        factored, b = a_seq(40, "factored").terms, b_seq(40).terms
        assert all(
            factored[n] == ((4, 3, 4)[n] if n < 3 else 1 << b[n - 1])
            for n in range(41)
        )

        # divisor-list equivalence at ten thousand random points
        rng = random.Random(193939)
        for _ in range(10**4):
            m = rng.randrange(1, 10**6 + 1)
            assert divisor_list_factored(factorize(m)) == divisor_list(m)

        # gap pair consistency on a thinner sample
        for _ in range(500):
            m = rng.randrange(1, 10**6 + 1)
            assert delta_pair(factorize(m)) == delta_pair(m)
