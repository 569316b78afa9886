"""Exact rational parsing and printing for scenario files and reports.

Bandwidths like 0.00406278 must survive a load/save round trip bit-exactly,
so they are kept as :class:`fractions.Fraction` everywhere and only rendered
back to decimal text when the denominator allows a finite expansion.
"""

from __future__ import annotations

from decimal import ROUND_HALF_UP, Decimal, localcontext
from fractions import Fraction


def parse_plain_integer(text: str) -> int:
    """``text`` as an int when it is an optional ``-`` then ASCII digits, the
    only integer form a scenario file or a command-line flag holds;
    :class:`ValueError` for anything else, such as the white space, ``+``,
    ``_`` or non-ASCII digits ``int`` takes."""
    digits = text[1:] if text[:1] == "-" else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def parse_rational(text: str) -> Fraction:
    """Parse decimal ('0.00406278'), integer, exponent ('100e6') or ratio
    ('1/3') notation into an exact fraction."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational number: {text!r}") from exc


def to_fraction(value) -> Fraction:
    """Coerce ints, floats, strings, Decimals and Fractions to Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        return parse_rational(value)
    return Fraction(value)


def format_rational(value: Fraction) -> str:
    """Shortest exact text form: decimal when the expansion terminates,
    'p/q' otherwise. Integers print without a point."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    den = value.denominator
    twos = fives = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den != 1:
        return f"{value.numerator}/{value.denominator}"
    digits = max(twos, fives)
    scaled = abs(value.numerator) * 10 ** digits // value.denominator
    text = str(scaled).rjust(digits + 1, "0")
    sign = "-" if value.numerator < 0 else ""
    return f"{sign}{text[:-digits]}.{text[-digits:]}"


def to_decimal(value: Fraction) -> Decimal:
    """Round an exact fraction to two decimal places, halves away from zero."""
    value = Fraction(value)
    with localcontext() as ctx:
        ctx.prec = 60
        raw = Decimal(value.numerator) / Decimal(value.denominator)
        return raw.quantize(Decimal("0.01"), rounding=ROUND_HALF_UP)
