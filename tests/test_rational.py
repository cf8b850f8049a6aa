"""Exact rational arithmetic invariants."""

import random
from fractions import Fraction

import pytest

from hav.rational import SQRT_ERROR, format_rational, parse_rational, sqrt_rational


def test_lowest_terms_and_positive_denominator():
    r = parse_rational("6/8")
    assert (r.numerator, r.denominator) == (3, 4)
    r = Fraction(3, -9)
    assert (r.numerator, r.denominator) == (-1, 3)


def test_value_equality():
    assert parse_rational("1/2") == parse_rational("2/4") == parse_rational("0.5")


def test_decimal_literals_are_exact():
    assert parse_rational("0.1") == Fraction(1, 10)
    assert parse_rational("9.8") == Fraction(49, 5)


def test_zero_denominator_is_value_error():
    for text in ("1/0", "0/0", " -3/0 "):
        with pytest.raises(ValueError, match="zero denominator"):
            parse_rational(text)


def test_add_sub_roundtrip_random():
    rng = random.Random(1)
    for _ in range(500):
        a = Fraction(rng.randint(-999, 999), rng.randint(1, 999))
        b = Fraction(rng.randint(-999, 999), rng.randint(1, 999))
        assert a + b - b == a


def test_format_roundtrip():
    for text in ["3", "-3", "3/2", "-7/5", "0"]:
        assert format_rational(parse_rational(text)) == text


def test_sqrt_exact_squares():
    root, exact = sqrt_rational(Fraction(100, 49))
    assert exact and root == Fraction(10, 7)
    root, exact = sqrt_rational(Fraction(0))
    assert exact and root == 0


def test_sqrt_approximation_bound():
    value = Fraction(2)
    root, exact = sqrt_rational(value)
    assert not exact
    assert root * root <= value
    assert (root + SQRT_ERROR) * (root + SQRT_ERROR) > value
