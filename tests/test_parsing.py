"""Element-grammar tests: parsing, canonical formatting, round trips,
and error reporting with offsets."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rotnear.field import (
    ElemSyntaxError,
    PolyEps,
    RatFuncEps,
    eps,
    format_elem,
    parse_elem,
    parse_rat,
)

coeffs = st.lists(st.integers(-9, 9), max_size=4)
polys = st.builds(PolyEps, coeffs)
ratfuncs = st.builds(RatFuncEps, polys, polys.filter(bool))


def test_parse_rational():
    x = parse_elem("3/4")
    assert x == Fraction(3, 4)
    assert isinstance(x, Fraction)
    assert parse_elem("-12") == Fraction(-12)


def test_parse_quotient():
    assert parse_elem("(2*e)/(1+e^2)") == 2 * eps / (1 + eps**2)


def test_parse_keeps_coprime_parts():
    x = parse_elem("(e^2-e)/(1+e)")
    assert x.num == PolyEps((0, -1, 1))
    assert x.den == PolyEps((1, 1))


def test_parse_reduces_to_canonical_form():
    assert parse_elem("(e+e^2)/(e)") == 1 + eps
    assert parse_elem("(2*e)/(2)") == eps
    assert isinstance(parse_elem("(1+e)/(1+e)"), Fraction)


def test_whitespace_is_insignificant():
    assert parse_elem(" 1 + 2 * e ^ 2 ") == 1 + 2 * eps**2


def test_single_monomial_numerator_needs_no_parens():
    assert parse_elem("8*e^2/(1+e^2)") == 8 * eps**2 / (1 + eps**2)
    assert parse_elem("1/(e)") == 1 / eps
    assert parse_elem("-e/(1+e)") == -eps / (1 + eps)


def test_negative_and_grammar_edge_forms():
    assert parse_elem("-e") == -eps
    assert parse_elem("e^0") == Fraction(1)
    assert parse_elem("1+-2") == Fraction(-1)  # rat's own optional minus
    assert parse_elem("-1/2*e^3") == Fraction(-1, 2) * eps**3


def test_syntax_errors_carry_offsets():
    with pytest.raises(ElemSyntaxError) as err:
        parse_elem("1 + $")
    assert err.value.offset == 4
    with pytest.raises(ElemSyntaxError) as err:
        parse_elem("1+e)")
    assert err.value.offset == 3
    with pytest.raises(ElemSyntaxError):
        parse_elem("")
    with pytest.raises(ElemSyntaxError):
        parse_elem("2*x")
    with pytest.raises(ElemSyntaxError):
        parse_elem("(1+e")


def test_exponent_above_the_degree_limit_is_a_syntax_error():
    assert parse_elem("e^64") == eps**64
    with pytest.raises(ElemSyntaxError, match="degree"):
        parse_elem("e^20000000")


def test_multi_term_numerator_requires_parens():
    with pytest.raises(ElemSyntaxError):
        parse_elem("1+e/(1+e)")


def test_division_by_zero_polynomial():
    with pytest.raises(ZeroDivisionError):
        parse_elem("(1)/(e-e)")
    with pytest.raises(ZeroDivisionError):
        parse_elem("1/0")


def test_format_examples():
    assert format_elem(8 * eps**2 / (1 + eps**2)) == "8*e^2/(1+e^2)"
    assert format_elem(Fraction(-3, 4)) == "-3/4"
    assert format_elem(1 - eps) == "1-e"
    assert format_elem(-1 + eps**2) == "-1+e^2"
    assert format_elem(1 / eps) == "1/(e)"
    assert format_elem((1 + eps) / (2 + eps)) == "(1+e)/(2+e)"
    assert format_elem(RatFuncEps(0)) == "0"
    assert format_elem(Fraction(5)) == "5"


def test_parse_rat_rejects_eps():
    assert parse_rat("-7/2") == Fraction(-7, 2)
    with pytest.raises(ValueError):
        parse_rat("1+e")


@given(ratfuncs)
@settings(deadline=None)
def test_format_parse_round_trip(x):
    assert parse_elem(format_elem(x)) == x


@given(st.builds(Fraction, st.integers(-99, 99), st.integers(1, 99)))
@settings(deadline=None)
def test_rational_round_trip(q):
    got = parse_elem(format_elem(q))
    assert got == q
    assert isinstance(got, Fraction)


@given(ratfuncs)
@settings(deadline=None)
def test_formatting_is_canonical(x):
    # serialize(parse(s)) is idempotent on canonical strings
    s = format_elem(x)
    assert format_elem(parse_elem(s)) == s
