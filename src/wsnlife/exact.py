"""Exact decimal arithmetic helpers.

All energy figures in this package are decimal quantities (millijoules with
a couple of decimal places), and most of them are not representable in
binary floating point.  Computations that must match hand arithmetic --
model coefficients, per-packet energies, iteration floors, simulated
battery drain -- are therefore carried out on exact rationals and converted
to float only where a report is built, through ``to_float``.

A number becomes exact once, where it is read: a JSON number arrives as an
int or a decimal at the digits it was written with, and ``exact_number``
checks it and makes it a ``Fraction``.  Only a float -- a command-line flag
or a float API argument -- is read at its shortest round-trip decimal form,
i.e. ``0.12`` means 12/100, not the 53-bit binary neighbour.  No string is
taken as a number.  A decimal whose exponent is beyond ±4300 is rejected
here, where it would become exact: ``1e10000000`` is exact only as an int
of ten million digits.
"""

from decimal import ROUND_HALF_UP, Context, Decimal
from fractions import Fraction

from .errors import Error

MAX_EXPONENT = 4300  # Python reads no integer literal of more digits than this


def as_exact(x: int | float | Decimal | Fraction, what: str = "number", error: type[Error] = Error) -> Fraction:
    """Exact rational value of ``x``; ``error`` naming ``what`` if ``x`` is
    infinite, NaN, or a decimal of an exponent beyond ±``MAX_EXPONENT``."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, (float, Decimal)):
        # repr() gives the shortest decimal that round-trips, which is the
        # number the user actually wrote.
        d = Decimal(repr(x)) if isinstance(x, float) else x
        if not d.is_finite():
            raise error(f"{what} must be finite")
        if abs(d.adjusted()) > MAX_EXPONENT:
            raise error(f"{what} is out of range: its exponent is beyond ±{MAX_EXPONENT}")
        return Fraction(d)
    raise TypeError(f"not a number: {x!r}")


def exact_number(what: str, value, error: type[Error]) -> Fraction:
    """``value`` as an exact rational if it is a number ``as_exact`` takes, else
    ``error`` naming ``what``: ``True`` compares equal to 1 but is not a number."""
    if isinstance(value, bool) or not isinstance(value, (int, float, Decimal, Fraction)):
        raise error(f"{what} must be a number, got {value!r}")
    return as_exact(value, what, error)


def to_float(what: str, x: Fraction | int, scale: int = 1) -> float:
    """``x / scale`` correctly rounded to a report float; ``Error`` if too large."""
    try:
        return float(x / scale)
    except OverflowError:
        raise Error(f"{what} too large to report") from None


def round_half_up(x: Fraction | float) -> float:
    """``x`` to two decimals, rounding half up: the reporting convention (2.675 -> 2.68)."""
    if isinstance(x, Fraction):
        d = Decimal(x.numerator) / Decimal(x.denominator)
    else:
        d = Decimal(repr(float(x)))
    # enough digits for every one left of the point and two right of it, or quantize raises InvalidOperation
    context = Context(prec=max(28, d.adjusted() + 3))
    return float(d.quantize(Decimal("0.01"), rounding=ROUND_HALF_UP, context=context))
