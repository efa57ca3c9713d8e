"""Tests for the circle-game survivor algorithms.

The rotation referee below is a fourth, deliberately dumb implementation
kept separate from the package: it rotates a deque q-1 steps and pops.
All three library algorithms must match it, and each other, everywhere.
The naive fold is the recurrence one step at a time, the reference for the
library's batched fold, and the two-column simulation is the circle's
former layout, the reference for the one-column simulation.
"""

import inspect
import sys
import time
import tracemalloc
from array import array
from collections import deque
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from divgap.errors import ResourceLimit, SimulationCapExceeded
from divgap.josephus import (
    BIT_OP_LIMIT,
    MOVE_LIMIT,
    SIMULATION_CAP,
    SurvivorResult,
    _label_block,
    _labels,
    _step_limit,
    ow_sequence,
    survivor_recurrence,
    survivor_simulation,
    survivor_via_ow,
)


def rotation_referee(n, q):
    """Survivor by literal rotate-and-pop; people numbered 1..n."""
    circle = deque(range(1, n + 1))
    while len(circle) > 1:
        circle.rotate(-(q - 1))
        circle.popleft()
    return circle[0]


def naive_fold(n, q):
    """Survivor by pos <- (pos + q) mod m for every m = 2..n, unbatched."""
    pos = 0
    for m in range(2, n + 1):
        pos = (pos + q) % m
    return pos + 1


def two_column_simulation(n, q):
    """Survivor by lap deletions from two columns, (hi, lo) = divmod(label, w)."""
    w = isqrt(n - 1) + 1
    blocks = -(-n // w)
    lo = array("I", range(w)) * blocks
    hi = array("I")
    for b in range(blocks):
        hi += array("I", [b]) * w
    del lo[n:], hi[n:]
    carry, size = 0, n
    while size > 1:
        empty, first = divmod((q - 1 - carry) % q, size)
        del lo[first::q], hi[first::q]
        carry = (carry + (empty + 1) * size) % q
        size = len(lo)
    return hi[0] * w + lo[0] + 1


# --- frozen single values ---


def test_classic_pinned_values():
    # the well-worn 41-people step-3 game, plus small hand-checked games
    assert survivor_recurrence(41, 3).survivor == 31
    assert survivor_recurrence(1, 2).survivor == 1
    assert survivor_recurrence(2, 3).survivor == 2
    assert survivor_recurrence(5, 2).survivor == 3
    assert survivor_recurrence(7, 3).survivor == 4


def test_result_carries_its_inputs():
    r = survivor_simulation(10, 4)
    assert (r.n, r.q, r.algorithm) == (10, 4, "simulation")
    assert 1 <= r.survivor <= r.n


def test_result_validates():
    with pytest.raises(ValueError):
        SurvivorResult(n=5, q=2, survivor=6, algorithm="recurrence")


# --- agreement with the referee and with each other ---


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7])
def test_small_games_match_rotation_referee(q):
    for n in range(1, 130):
        want = rotation_referee(n, q)
        assert survivor_recurrence(n, q).survivor == want
        assert survivor_simulation(n, q).survivor == want
        assert survivor_via_ow(n, q).survivor == want


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=1, max_value=3000), st.integers(min_value=2, max_value=9))
def test_three_way_agreement(n, q):
    a = survivor_recurrence(n, q).survivor
    b = survivor_simulation(n, q).survivor
    c = survivor_via_ow(n, q).survivor
    assert a == b == c


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=1, max_value=3000), st.integers(min_value=2, max_value=50))
@example(49, 50)  # q >= n: every step wraps
@example(3000, 2)  # q = 2 batches the most
def test_batched_recurrence_matches_naive_fold(n, q):
    assert survivor_recurrence(n, q).survivor == naive_fold(n, q)


@pytest.mark.parametrize("exponent", [18, 100, 300])
@pytest.mark.parametrize("q", range(2, 8))
def test_recurrence_matches_ow_at_huge_n(exponent, q):
    n = 10**exponent
    assert survivor_recurrence(n, q).survivor == survivor_via_ow(n, q).survivor


@pytest.mark.parametrize("n", [999**2 - 1, 999**2, 999**2 + 1, 1000**2 - 1, 1000**2, 1000**2 + 1])
def test_simulation_q2_closed_form_at_block_edges(n):
    # the edges of two_column_simulation's blocks of w = isqrt(n - 1) + 1
    # people, where n next to a square moves w; kept as q = 2 games near the cap
    m = n.bit_length() - 1
    L = n - (1 << m)
    assert survivor_simulation(n, 2, simulation_cap=n).survivor == 2 * L + 1


@pytest.mark.parametrize("q", range(2, 8))
def test_simulation_at_a_million(q):
    got = survivor_simulation(10**6, q).survivor
    assert got == survivor_recurrence(10**6, q).survivor
    assert got == survivor_via_ow(10**6, q).survivor


@pytest.mark.parametrize("q_of", [
    lambda n: n, lambda n: n + 1, lambda n: 2 * n + 3, lambda n: 10**12,
], ids=["n", "n+1", "2n+3", "1e12"])
def test_simulation_skips_empty_laps(q_of):
    # q at least the circle size leaves whole laps in which nobody is counted out
    for n in range(1, 120):
        q = max(q_of(n), 2)
        assert survivor_simulation(n, q).survivor == rotation_referee(n, q)


def test_simulation_maps_the_first_lap_back_on_either_side():
    # the circle starts after its first lap, which removes positions lap1,
    # lap1 + q, ...; the survivor's position is mapped back through it,
    # whether it stood before lap1 or after, and n <= q removes one person
    for n in range(1, 131):
        for q in {*range(2, 8), n - 1, n, n + 1, 2 * n + 3}:
            if q >= 2:
                assert survivor_simulation(n, q).survivor == rotation_referee(n, q), (n, q)


@settings(max_examples=120, deadline=None)
@given(st.one_of(
    st.tuples(st.integers(1, 3 * 10**5), st.integers(2, 50)),
    st.integers(1, 1999).flatmap(
        lambda n: st.tuples(st.just(n), st.sampled_from((max(n, 2), n + 1, 10**12)))),
))
@example((3 * 10**5, 50))
@example((65537, 2))
@example((1999, 10**12))
def test_one_column_matches_the_two_column_simulation(game):
    n, q = game
    assert survivor_simulation(n, q).survivor == two_column_simulation(n, q)


# 131069, 131071 and 131073 at q = 2, 98302, 98303 and 98305 at q = 3, and
# 76457..76459 at q = 7 leave first-lap circles of 65,535, 65,536 and 65,537
@pytest.mark.parametrize("n", [1, 2, 255, 256, 257, 65535, 65536, 65537, 76457, 76458, 76459,
                               98302, 98303, 98305, 131069, 131071, 131072, 131073])
def test_labels_at_byte_and_block_edges(n):
    # bytes 0-1 of the labels come from one block of 65,536 built once;
    # byte 2 is restamped per further block. Every circle is a fresh copy, so
    # after the simulations' lap deletions the block still reads as built
    for q in (2, 3, 7):
        assert survivor_simulation(n, q).survivor == survivor_recurrence(n, q).survivor
    assert _labels(n) == array("I", range(n))
    assert _labels(65536) == array("I", range(65536))


def test_labels_past_the_third_byte():
    # byte 3 is restamped only when it changes, first at label 2^24
    n = 2**24 + 2
    cells = _labels(n)
    assert len(cells) == n
    assert cells[2**24 - 2:] == array("I", range(2**24 - 2, n))
    assert cells[::65521] == array("I", range(0, n, 65521))


def simulation_peak(n, q):
    # the label block is built once per process, on first use; build it
    # outside the traced window, so no bound depends on which test runs first
    _label_block()
    tracemalloc.start()
    try:
        survivor_simulation(n, q)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_simulation_memory_at_a_million():
    # one int object per person would take about 42 MB here
    assert simulation_peak(10**6, 2) < 12 * 2**20


def test_simulation_memory_holds_one_column():
    # one 4 MB column of labels; two_column_simulation peaked at 7.7 MB
    assert simulation_peak(10**6, 2) < 6 * 2**20
    # the 32,769 people left after the first lap, a 0.13 MB column copied
    # from the label block; appending a last block whole and
    # trimming it afterwards once peaked at 0.78 MB
    assert simulation_peak(65537, 2) < 0.75 * 2**20
    # the first lap leaves 30,000 people, a 0.12 MB column that fits in one
    # block; writing their labels' byte planes per call peaked at 0.24 MB
    assert simulation_peak(60000, 2) < 0.18 * 2**20
    # the first lap leaves 66,667 people, a 0.25 MB column just past one
    # block; copying the whole block to stamp the 1,131 labels past it
    # peaked at 0.64 MB
    assert simulation_peak(100000, 3) < 0.4 * 2**20


def test_simulation_builds_only_the_circle_after_its_first_lap():
    # at q = 2 the first lap leaves half the people, so the column is 2 MB
    # at 10^6 and 0.13 MB at 65,537; building all n labels and deleting the
    # first lap from them peaked at 4.4 MB and 0.64 MB
    assert simulation_peak(10**6, 2) < 2.5 * 2**20
    assert simulation_peak(65537, 2) < 0.4 * 2**20


def test_q2_closed_form():
    # with n = 2^m + L the survivor is 2L + 1
    for n in range(1, 2049):
        m = n.bit_length() - 1
        L = n - (1 << m)
        assert survivor_recurrence(n, 2).survivor == 2 * L + 1


def test_input_validation():
    for fn in (survivor_recurrence, survivor_simulation, survivor_via_ow):
        with pytest.raises(ValueError):
            fn(0, 3)
        with pytest.raises(ValueError):
            fn(10, 1)


def test_simulation_cap():
    with pytest.raises(SimulationCapExceeded):
        survivor_simulation(10**6 + 1, 3)
    with pytest.raises(SimulationCapExceeded):
        survivor_simulation(1000, 3, simulation_cap=999)
    assert SIMULATION_CAP == 10**6


def test_simulation_refuses_labels_wider_than_32_bits():
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(ResourceLimit, match="--algo recurrence"):
            survivor_simulation(2**32 + 1, 2, simulation_cap=2**33)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 0.05
    assert peak < 2**20


def simulation_moves(n, q):
    """Entries survivor_simulation's lap deletions move, summed by a line tracer.

    A lap's deletion shifts or removes every entry from first to the end, so
    it moves size - first of them.
    """
    code = survivor_simulation.__code__
    lines, first_line = inspect.getsourcelines(survivor_simulation)
    body = first_line + next(i for i, line in enumerate(lines) if "del cells[" in line)
    moved = 0

    def tracer(frame, event, arg):
        nonlocal moved
        if frame.f_code is not code:
            return None
        if event == "line" and frame.f_lineno == body:
            moved += frame.f_locals["size"] - frame.f_locals["first"]
        return tracer

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        survivor_simulation(n, q)
    finally:
        sys.settrace(previous)
    return moved


@pytest.mark.parametrize("q", [2, 3, 7, 59, 97, 1000, 10**12])
def test_simulation_moves_stay_within_the_prediction(q):
    for n in (1, 2, 3, 10, 96, 97, 98, 1000, 3000):
        assert simulation_moves(n, q) <= n * min(n, q)


def test_simulation_refuses_a_predicted_move_count_above_the_limit():
    # the benchmarked and tested games sit far below the limit
    assert max(10**6 * 7, 2 * 10**6 * 2) < MOVE_LIMIT
    # n * min(n, q) is the limit itself at n = 10^5, and above it one person on
    assert survivor_simulation(10**5, 10**5).survivor == survivor_recurrence(10**5, 10**5).survivor
    with pytest.raises(ResourceLimit, match="--algo recurrence"):
        survivor_simulation(10**5 + 1, 10**12)
    start = time.perf_counter()
    with pytest.raises(ResourceLimit, match="--algo recurrence"):
        survivor_simulation(10**6, 10**12)
    assert time.perf_counter() - start < 0.05


def test_ow_refuses_a_step_count_above_the_limit():
    # q * bit_length((q - 1) * n) is 40000 * 25, exactly the limit for terms
    # up to a machine word, at n = 500
    assert BIT_OP_LIMIT == 10**6 * 64
    assert survivor_via_ow(500, 40000).survivor == survivor_recurrence(500, 40000).survivor
    with pytest.raises(ResourceLimit):
        survivor_via_ow(500, 40001)
    start = time.perf_counter()
    with pytest.raises(ResourceLimit, match="--algo recurrence"):
        survivor_via_ow(1000, 10**12)
    assert time.perf_counter() - start < 0.05


def test_ow_limit_admits_the_largest_benchmarked_games():
    # the survivors benchmark runs --algo ow at q <= 7 and n < 10^303
    n = 10**303 - 1
    assert 7 * (6 * n).bit_length() ** 2 < 10**7 < BIT_OP_LIMIT
    assert survivor_via_ow(n, 7).survivor == survivor_recurrence(n, 7).survivor


def test_machine_size_terms_keep_a_million_steps():
    # up to a machine word a step costs the same, so every game on terms
    # that fit one is held to 10^6 steps
    for widest in (1, 2, 10**6, 2**63, 2**64 - 1):
        assert _step_limit(widest) == 10**6
    assert _step_limit(2**64) < 10**6


@pytest.mark.parametrize("route", [survivor_recurrence, survivor_via_ow])
def test_wide_terms_are_refused_by_their_bit_operations(route):
    # n = 2^100000 at q = 2 is 2 * 10^5 steps on 10^5-bit terms
    for n in (2**100000, 2**500000):
        start = time.perf_counter()
        with pytest.raises(ResourceLimit, match="--q or --n"):
            route(n, 2)
        assert time.perf_counter() - start < 0.05
    # the widest games admitted at q = 2 and q = 7 stay quick
    for q, bits in ((2, 5600), (7, 3000)):
        n = (1 << bits) - 1
        start = time.perf_counter()
        assert route(n, q).survivor >= 1
        assert time.perf_counter() - start < 1.0


def test_largest_admitted_n_is_the_edge_of_every_route():
    # the widest n of all sits at q = 2, where both bit-budget routes
    # predict 2 * B steps on B-bit terms against a limit of BIT_OP_LIMIT // B:
    # they admit it and refuse the next integer; every larger q and the
    # simulation refuse it
    n = 2**5656 - 1
    assert n.bit_length() == 5656 and len(str(n)) == 1703
    assert survivor_recurrence(n, 2).survivor == survivor_via_ow(n, 2).survivor
    for route in (survivor_recurrence, survivor_via_ow):
        with pytest.raises(ResourceLimit):
            route(n + 1, 2)
        with pytest.raises(ResourceLimit):
            route(n, 3)
    with pytest.raises(SimulationCapExceeded):
        survivor_simulation(n, 2)


def recurrence_iterations(n, q):
    """How often survivor_recurrence's loop body runs, counted by a line tracer."""
    code = survivor_recurrence.__code__
    lines, first = inspect.getsourcelines(survivor_recurrence)
    body = first + next(i for i, line in enumerate(lines) if "s = min(" in line)
    count = 0

    def tracer(frame, event, arg):
        nonlocal count
        if frame.f_code is not code:
            return None
        if event == "line" and frame.f_lineno == body:
            count += 1
        return tracer

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        survivor_recurrence(n, q)
    finally:
        sys.settrace(previous)
    return count


@pytest.mark.parametrize("q", [2, 3, 7, 100, 1000, 10**5])
def test_recurrence_iterations_stay_within_the_prediction(q):
    for n in (1, 2, 3, 10, 1000, 10**6, 10**12, 10**30):
        predicted = min(n - 1, q * n.bit_length())
        if predicted <= 2 * 10**5:
            assert recurrence_iterations(n, q) <= predicted


def test_recurrence_refuses_a_predicted_count_above_the_limit():
    # min(n - 1, q * bit_length(n)) is 10^6 + 1 here, one above the limit
    with pytest.raises(ResourceLimit, match="--q or --n"):
        survivor_recurrence(10**6 + 2, 10**12)
    start = time.perf_counter()
    with pytest.raises(ResourceLimit, match="--q or --n"):
        survivor_recurrence(10**12, 10**9)
    assert time.perf_counter() - start < 0.05


def test_algorithm_labels():
    assert survivor_recurrence(9, 3).algorithm == "recurrence"
    assert survivor_simulation(9, 3).algorithm == "simulation"
    assert survivor_via_ow(9, 3).algorithm == "ow_formula"


# --- the ceiling iteration ---


def test_ow_sequence_first_terms():
    # seed 1, q = 3: x -> ceil(3x/2)
    assert ow_sequence(3, 1, 10) == [1, 2, 3, 5, 8, 12, 18, 27, 41, 62]
    # seed 2 runs one step ahead of seed 1
    assert ow_sequence(3, 2, 9) == [2, 3, 5, 8, 12, 18, 27, 41, 62]
    # q = 2 doubles with a +... ceiling that lands on powers of two shifts
    assert ow_sequence(2, 1, 6) == [1, 2, 4, 8, 16, 32]


def test_ow_seed_shift_identity():
    shifted = ow_sequence(3, 1, 201)[1:]
    assert ow_sequence(3, 2, 200) == shifted


def test_ow_growth_bounds():
    for q in (2, 3, 4, 5):
        seq = ow_sequence(q, 1, 80)
        for x, y in zip(seq, seq[1:]):
            assert y >= Fraction(q * x, q - 1)
            assert y <= Fraction(q * x, q - 1) + 1


def test_ow_sequence_validates():
    with pytest.raises(ValueError):
        ow_sequence(1, 1, 5)
    with pytest.raises(ValueError):
        ow_sequence(3, 0, 5)
    with pytest.raises(ValueError):
        ow_sequence(3, 1, 0)
