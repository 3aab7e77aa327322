"""FormalSeries arithmetic, the product expander, and the text format."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from support import brute_product_one_minus_qk_inverse, formal_series_from_text

from crepant.errors import CrepantError
from crepant.series import FormalSeries, general_binomial, product_series


def test_product_series_against_multinomial_expander():
    order = 6
    factors = [(-1, (k,), -k) for k in range(1, order + 1)]
    series = product_series(("q",), order, factors)
    brute = brute_product_one_minus_qk_inverse(order)
    assert {e[0]: c for e, c in series.terms.items()} == brute
    assert [series.coefficient((d,)) for d in range(7)] == [1, 1, 3, 6, 13, 24, 48]


def test_product_series_trivia():
    assert product_series(("q",), 5, []) == FormalSeries.one(("q",), 5)
    s = product_series(("Q", "q"), 2, [(-1, (1, 1), 1)])
    assert s.terms == {(0, 0): 1, (1, 1): -1}
    with pytest.raises(CrepantError):
        product_series(("q",), 3, [(1, (0,), 2)])


def test_general_binomial_negative_exponent():
    # (1-x)^(-3) = sum C(j+2, 2) x^j
    assert [general_binomial(-3, j) * (-1) ** j for j in range(5)] == [1, 3, 6, 10, 15]


def test_text_round_trip():
    s = FormalSeries(("q0", "q1"), 4, {(0, 0): 1, (2, 1): -5, (1, 0): 3})
    text = s.to_text()
    assert formal_series_from_text(text) == s
    assert text == formal_series_from_text(text).to_text()


def test_graded_lex_order_in_text():
    s = FormalSeries(("a", "b"), 3, {(0, 2): 1, (1, 0): 1, (2, 0): 1, (0, 0): 1})
    lines = s.to_text().splitlines()
    assert lines[1:] == ["0 0\t1", "1 0\t1", "0 2\t1", "2 0\t1"]


def test_collapse_forgets_refinement():
    s = FormalSeries(("q0", "q1"), 3, {(1, 0): 2, (0, 1): 3, (1, 1): 1})
    c = s.collapse()
    assert c.terms == {(1,): 5, (2,): 1}


small_series = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.integers(-9, 9), max_size=6,
).map(lambda terms: FormalSeries(("u", "v"), 5, terms))


@settings(max_examples=60, deadline=None)
@given(small_series, small_series, small_series)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)


@settings(max_examples=40, deadline=None)
@given(small_series)
def test_text_round_trip_property(s):
    assert formal_series_from_text(s.to_text()) == s
