"""The divisor kernels against sympy, an oracle written outside this package.

sympy is not a dependency; without it this module is skipped.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divgap.divisors import (
    delta,
    delta_above,
    divisor_list,
    divisor_list_factored,
    factorize,
)
from divgap.errors import NoQualifyingPair

sympy = pytest.importorskip("sympy")


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=1, max_value=10**12))
def test_factorize_matches_factorint(m):
    assert dict(factorize(m).pairs) == sympy.factorint(m)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=10**12), st.integers(0, 10**4))
def test_divisors_and_gaps_match_sympy_divisors(m, t):
    divs = sympy.divisors(m)
    assert divisor_list(m) == divs
    assert divisor_list_factored(factorize(m)) == divs
    pairs = [(d, m // d) for d in divs if d * d <= m]
    assert delta(m) == pairs[-1][1] - pairs[-1][0]
    above = [(d, e) for d, e in pairs if e - d > t]
    if m >= 2 and above:
        got = delta_above(m, t)
        assert (got.small, got.large) == above[-1]
    elif m >= 2:
        with pytest.raises(NoQualifyingPair):
            delta_above(m, t)
