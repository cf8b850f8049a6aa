"""Exact rational arithmetic for the verification core.

The core never touches floats: every constant, delay and variable value is a
`fractions.Fraction`, which is kept in lowest terms with a positive
denominator and compares by value.
"""

from __future__ import annotations

import math
from fractions import Fraction

ZERO = Fraction(0)

#: certified error bound for irrational square roots
SQRT_ERROR = Fraction(1, 10 ** 12)


def parse_rational(text: str) -> Fraction:
    """Parse "p/q", integer, or decimal text into an exact rational.

    Decimal literals are exact: "0.5" -> 1/2, never a float round-trip.
    Malformed text and a zero denominator are both a ValueError.
    """
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text.strip()!r}") from None


def format_rational(value: Fraction) -> str:
    """Render bit-exactly: "3" for integers, "p/q" otherwise."""
    return str(value)


def sqrt_rational(value: Fraction) -> tuple[Fraction, bool]:
    """Square root of a nonnegative rational.

    Returns (root, exact). When value is a perfect rational square the result
    is exact; otherwise it is a rational approximation r with
    r <= sqrt(value) < r + SQRT_ERROR/10.
    """
    if value < 0:
        raise ValueError("square root of negative rational")
    if value == 0:
        return ZERO, True
    p, q = value.numerator, value.denominator
    # sqrt(p/q) = sqrt(p*q)/q
    n = p * q
    s = math.isqrt(n)
    if s * s == n:
        return Fraction(s, q), True
    scale = 10 ** 13
    approx = math.isqrt((p * scale * scale) // q)
    return Fraction(approx, scale), False
